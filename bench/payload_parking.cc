/**
 * @file
 * Payload-parking crossover sweep: X-Change vs. Parking across frame
 * sizes for two header-only NFs (the standard router and a NAT whose
 * cuckoo table working set exceeds the LLC).
 *
 * The mechanism under test: X-Change DMAs the full frame, so at large
 * sizes the payload lines stream through the LLC's DDIO ways and
 * evict the NAT table's demand-filled lines; Parking DMAs only the
 * header prefix and sends the payload DRAM-direct into the park
 * arena, so the table working set keeps the whole cache. Parking's
 * buffers are also header-sized, shrinking the arena the CPU walks
 * per packet by an order of magnitude (fewer TLB walks per header
 * load). At 64 B nothing exceeds the split point, no payload is ever
 * parked, and the two models must agree to within address-layout
 * noise.
 *
 * Run lengths are pinned so every column, the park_* volumes included,
 * is bit-for-bit reproducible.
 * The crossover itself is hard-gated: at >= 1024 B the NAT rows must
 * show Parking strictly ahead on both LLC load misses and throughput,
 * the router rows must never be worse, and the 64-B rows must park
 * nothing and stay within noise.
 */

#include <cmath>
#include <cstdio>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"
#include "src/workload/workload.hh"

using namespace pmill;

namespace {

std::string
u64(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

RunResult
run_model(const std::string &config, MetadataModel model,
          std::uint32_t frame_len, std::uint32_t flows, double offered,
          double warmup_us, double duration_us)
{
    WorkloadSpec spec;
    std::string err;
    const std::string text = strprintf(
        "uniform:flows=%u,len=%u,seed=11", flows, frame_len);
    PMILL_ASSERT(spec.parse(text, &err), "payload_parking: bad spec");

    MachineConfig m;
    Engine engine(m, config, opts_model(model), spec);
    PacketMill::grind(engine);

    RunConfig rc;
    rc.offered_gbps = offered;
    rc.warmup_us = warmup_us;
    rc.duration_us = duration_us;
    return engine.run(rc);
}

} // namespace

int
main()
{
    const double kOffered = 100.0;

    // NAT sized so the steady-state touched cuckoo-bucket working set
    // sits in the contended band: small enough to fit the 24 MiB LLC
    // when Parking keeps the payload out, big enough that X-Change's
    // payload DDIO fills evict it. The long warmup populates the
    // table to steady state before the measured window; the idle
    // timeout outlives the run so aging never perturbs the model
    // comparison.
    const std::string router = router_config(32);
    const std::string nat = nat_aging_config(32, 262144, 1000.0);

    struct Nf {
        const char *name;
        const std::string *config;
        std::uint32_t flows;
        double warmup_us;
        double duration_us;
        bool strict;  ///< gate the large-frame crossover hard
    };
    const Nf nfs[] = {
        {"router", &router, 65536, 2000.0, 20000.0, false},
        {"nat", &nat, 120000, 60000.0, 20000.0, true},
    };
    const std::uint32_t sizes[] = {64, 512, 1024, 1500};

    BenchReport rep(
        "payload_parking",
        "Payload parking vs. X-Change across frame sizes @ 2.3 GHz "
        "(eq_ columns gated bit-for-bit)");
    rep.header({"NF", "Size(B)", "Xchg(Gbps)", "Parking(Gbps)",
                "eq_xchg_frames", "eq_park_frames", "eq_xchg_llc_miss",
                "eq_park_llc_miss", "park_fills", "park_gathers"});

    bool ok = true;
    for (const Nf &nf : nfs) {
        for (std::uint32_t size : sizes) {
            const RunResult xchg =
                run_model(*nf.config, MetadataModel::kXchange, size,
                          nf.flows, kOffered, nf.warmup_us,
                          nf.duration_us);
            const RunResult park =
                run_model(*nf.config, MetadataModel::kParking, size,
                          nf.flows, kOffered, nf.warmup_us,
                          nf.duration_us);
            rep.row({nf.name, u64(size),
                     strprintf("%.2f", xchg.throughput_gbps),
                     strprintf("%.2f", park.throughput_gbps),
                     u64(xchg.tx_pkts), u64(park.tx_pkts),
                     u64(xchg.mem.llc_load_misses),
                     u64(park.mem.llc_load_misses),
                     u64(park.mem.park_fills), u64(park.mem.park_gathers)});

            const double rel =
                std::fabs(park.throughput_gbps - xchg.throughput_gbps) /
                std::max(xchg.throughput_gbps, 1e-9);
            if (size <= 96) {
                // Below the split point nothing is parked: the models
                // must agree to within address-layout noise (the park
                // arena shifts later allocations, hence set mapping).
                if (park.mem.park_fills != 0) {
                    std::fprintf(stderr,
                                 "payload_parking: %s/%uB parked %llu "
                                 "lines below the split point\n",
                                 nf.name, size,
                                 static_cast<unsigned long long>(
                                     park.mem.park_fills));
                    ok = false;
                }
                if (rel > 0.02) {
                    std::fprintf(stderr,
                                 "payload_parking: %s/%uB models differ "
                                 "by %.1f%% with nothing parked\n",
                                 nf.name, size, rel * 100.0);
                    ok = false;
                }
                continue;
            }
            if (park.mem.park_fills == 0) {
                std::fprintf(stderr,
                             "payload_parking: %s/%uB parked nothing "
                             "above the split point\n",
                             nf.name, size);
                ok = false;
            }
            if (size < 1024)
                continue;
            if (nf.strict) {
                // The crossover: materially fewer LLC load misses AND
                // strictly higher per-core throughput. 4% is material
                // here: the DDIO victim policy only evicts a CPU line
                // when all of a set's DDIO ways are CPU-filled, which
                // caps the pollution-induced delta near 0.07 misses
                // per packet — ratios below ~0.94 are unreachable by
                // construction, so 0.96 gates the effect with margin
                // without chasing the ceiling.
                if (park.mem.llc_load_misses >=
                    xchg.mem.llc_load_misses * 96 / 100) {
                    std::fprintf(
                        stderr,
                        "payload_parking: %s/%uB LLC misses not "
                        "materially lower (park %llu vs xchg %llu)\n",
                        nf.name, size,
                        static_cast<unsigned long long>(
                            park.mem.llc_load_misses),
                        static_cast<unsigned long long>(
                            xchg.mem.llc_load_misses));
                    ok = false;
                }
                if (park.throughput_gbps <= xchg.throughput_gbps) {
                    std::fprintf(stderr,
                                 "payload_parking: %s/%uB parking did "
                                 "not beat X-Change (%.2f vs %.2f "
                                 "Gbps)\n",
                                 nf.name, size, park.throughput_gbps,
                                 xchg.throughput_gbps);
                    ok = false;
                }
            } else {
                // Small-working-set NF: no LLC contention to relieve,
                // so parking is roughly neutral — the per-packet
                // ticket conversion (one store at RX, one load at TX)
                // is paid back by the header-sized buffer arena's
                // smaller TLB footprint. Gate no-worse-than-1%.
                if (park.mem.llc_load_misses >
                        xchg.mem.llc_load_misses +
                            xchg.mem.llc_load_misses / 50 + 64 ||
                    park.throughput_gbps < xchg.throughput_gbps * 0.99) {
                    std::fprintf(stderr,
                                 "payload_parking: %s/%uB parking "
                                 "regressed the small-NF baseline\n",
                                 nf.name, size);
                    ok = false;
                }
            }
        }
    }

    rep.note("Crossover (EXPERIMENTS.md): at 64 B nothing exceeds the "
             "96-B split so Parking degenerates to X-Change; at >= "
             "1024 B the payload's DDIO fills evict the NAT table's "
             "LLC lines under X-Change while Parking keeps them "
             "resident — fewer LLC load misses, higher per-core "
             "throughput. The router's working set fits regardless, "
             "so its rows gate no-worse rather than strictly-better.");
    rep.emit();
    return ok ? 0 : 1;
}
