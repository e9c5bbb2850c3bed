/**
 * @file
 * Workload-synthesis bench: NAT and IDS under uniform / Zipf / churn /
 * SYN-flood traffic, plus the million-flow aging scenario.
 *
 * Each profile row reports throughput and latency alongside the flow
 * tables' occupancy/eviction behaviour — the pathology each profile
 * is designed to trigger (see EXPERIMENTS.md). All generation is
 * seeded and the simulation deterministic, so every eq_ column is
 * gated bit-for-bit by pmill_bench_diff; run lengths are pinned so
 * the columns match on every machine.
 *
 * The bench also hard-gates the tentpole acceptance scenario: a
 * 1.5M-flow universe against a bounded NAT table must complete with
 * >= 1M flows generated, occupancy within capacity, and nonzero
 * evictions (aging, not table exhaustion, bounding the state).
 */

#include <cstdio>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

namespace {

struct TableSum {
    std::uint64_t occupancy = 0;
    std::uint64_t capacity = 0;
    std::uint64_t inserts = 0;
    std::uint64_t failed_inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t half_open = 0;
};

/** Sum flow-table stats over every stateful element on every core. */
TableSum
sum_tables(Engine &engine)
{
    TableSum sum;
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
        for (Element *e : engine.pipeline(c).elements()) {
            FlowTableStats st;
            if (!e->flow_table_stats(&st))
                continue;
            sum.occupancy += st.occupancy;
            sum.capacity += st.capacity;
            sum.inserts += st.inserts;
            sum.failed_inserts += st.failed_inserts;
            sum.evictions += st.evictions;
            sum.half_open += st.half_open;
        }
    }
    return sum;
}

std::string
u64(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

struct RowResult {
    RunResult run;
    TableSum tbl;
    std::uint64_t flows_born = 0;
};

RowResult
run_profile(const std::string &config, const WorkloadSpec &spec,
            double offered, double warmup_us, double duration_us)
{
    MachineConfig m;
    Engine engine(m, config, opts_packetmill(), spec);
    PacketMill::grind(engine);

    RunConfig rc;
    rc.offered_gbps = offered;
    rc.warmup_us = warmup_us;
    rc.duration_us = duration_us;

    RowResult rr;
    rr.run = engine.run(rc);
    rr.tbl = sum_tables(engine);
    rr.flows_born = engine.workload(0)->stats().flows_born;
    return rr;
}

} // namespace

int
main()
{
    // Pinned run lengths: the golden was recorded with these.
    const double kWarmupUs = 1000.0;
    const double kDurationUs = 2000.0;
    const double kOffered = 12.0;
    const std::uint32_t kCap = 16384;   // flow-table capacity hint
    const double kTimeoutMs = 1.0;      // idle-timeout aging

    const std::string nat = nat_aging_config(32, kCap, kTimeoutMs);
    const std::string ids = ids_conntrack_config(32, kCap, kTimeoutMs);

    struct Profile {
        const char *name;
        const char *spec;
    };
    const Profile profiles[] = {
        {"uniform", "uniform:flows=65536"},
        {"zipf", "zipf:flows=65536,skew=1.1,burst=8"},
        {"churn", "churn:flows=65536,pkts=24"},
        {"synflood", "synflood:flows=65536"},
    };

    BenchReport rep("workloads",
                    "NAT / IDS under synthesized workloads @ 2.3 GHz, "
                    "12 Gbps offered (eq_ columns gated bit-for-bit)");
    rep.header({"Profile", "NF", "Thr(Gbps)", "eq_frames", "eq_p50_us",
                "eq_p99_us", "eq_llc_misses", "eq_occupancy",
                "eq_evictions", "eq_failed_inserts", "eq_flows"});

    bool ok = true;
    std::uint64_t prev_frames[2] = {0, 0};
    for (const Profile &p : profiles) {
        WorkloadSpec spec;
        std::string err;
        if (!spec.parse(p.spec, &err)) {
            std::fprintf(stderr, "workloads: bad spec %s: %s\n", p.spec,
                         err.c_str());
            return 1;
        }
        const std::string *configs[2] = {&nat, &ids};
        const char *nf_names[2] = {"nat", "ids"};
        for (int nf = 0; nf < 2; ++nf) {
            const RowResult rr = run_profile(*configs[nf], spec, kOffered,
                                             kWarmupUs, kDurationUs);
            rep.row({p.name, nf_names[nf],
                     strprintf("%.2f", rr.run.throughput_gbps),
                     u64(rr.run.tx_pkts),
                     strprintf("%.17g", rr.run.median_latency_us),
                     strprintf("%.17g", rr.run.p99_latency_us),
                     u64(rr.run.mem.llc_load_misses), u64(rr.tbl.occupancy),
                     u64(rr.tbl.evictions), u64(rr.tbl.failed_inserts),
                     u64(rr.flows_born)});
            // Profiles must be measurably distinct: identical frame
            // counts across different traffic models would mean the
            // workload knob isn't reaching the DUT.
            if (rr.run.tx_pkts == prev_frames[nf]) {
                std::fprintf(stderr,
                             "workloads: profile %s/%s indistinguishable "
                             "from the previous profile\n",
                             p.name, nf_names[nf]);
                ok = false;
            }
            prev_frames[nf] = rr.run.tx_pkts;
            if (rr.tbl.occupancy > rr.tbl.capacity) {
                std::fprintf(stderr,
                             "workloads: %s/%s table over capacity\n",
                             p.name, nf_names[nf]);
                ok = false;
            }
        }
    }

    // Tentpole scenario: 1.5M concurrent flows vs a bounded aged NAT
    // table. Aging (not failed inserts) must bound the state.
    {
        WorkloadSpec spec;
        std::string err;
        if (!spec.parse("uniform:flows=1500000,len=96,seed=7", &err)) {
            std::fprintf(stderr, "workloads: %s\n", err.c_str());
            return 1;
        }
        const std::string mf_nat = nat_aging_config(32, 131072, 0.8);
        const RowResult rr =
            run_profile(mf_nat, spec, 6.0, 1000.0, 280000.0);
        rep.row({"million", "nat",
                 strprintf("%.2f", rr.run.throughput_gbps),
                 u64(rr.run.tx_pkts),
                 strprintf("%.17g", rr.run.median_latency_us),
                 strprintf("%.17g", rr.run.p99_latency_us),
                 u64(rr.run.mem.llc_load_misses), u64(rr.tbl.occupancy),
                 u64(rr.tbl.evictions), u64(rr.tbl.failed_inserts),
                 u64(rr.flows_born)});
        if (rr.flows_born < 1000000) {
            std::fprintf(stderr,
                         "workloads: million-flow scenario generated only "
                         "%llu flows\n",
                         static_cast<unsigned long long>(rr.flows_born));
            ok = false;
        }
        if (rr.tbl.occupancy > rr.tbl.capacity || rr.tbl.evictions == 0) {
            std::fprintf(stderr,
                         "workloads: aging failed to bound the "
                         "million-flow table (occupancy %llu/%llu, "
                         "%llu evictions)\n",
                         static_cast<unsigned long long>(rr.tbl.occupancy),
                         static_cast<unsigned long long>(rr.tbl.capacity),
                         static_cast<unsigned long long>(rr.tbl.evictions));
            ok = false;
        }
    }

    rep.note("Profiles map to flow-table pathologies (EXPERIMENTS.md): "
             "uniform = miss-rate floor, zipf = cache-resident head, "
             "churn = insert+eviction pressure, synflood = half-open "
             "flood bounded only by aging. The million row is the "
             "1.5M-concurrent-flow scenario: per-flow generator state "
             "~12 MB, NAT table bounded by idle-timeout eviction.");
    rep.emit();
    return ok ? 0 : 1;
}
