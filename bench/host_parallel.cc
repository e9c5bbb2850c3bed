/**
 * @file
 * Host-parallel scaling: wall-clock speedup from running the simulated
 * cores on host worker threads, under the bit-exactness gate.
 *
 * The scenario is the hostile one from the workload-synthesis PR — a
 * million-flow Zipf NAT with flow-state aging on 8 RSS cores — run at
 * --host-threads 1/2/4/8 under the epoch scheduler. The wall_ms and
 * host_speedup columns are host-side measurements (informational in
 * pmill_bench_diff: a single-CPU runner shows a speedup near 1.0 and
 * only a multi-core runner shows the scaling); the eq_ columns are the
 * simulated results and are gated bit-for-bit. On top of the gate,
 * this binary hard-fails if ANY eq_ value differs across thread
 * counts — thread-count invariance is the epoch scheduler's contract,
 * and a violation is a determinism bug, not a perf regression.
 *
 * Run lengths are pinned so the eq_ columns are identical on every
 * machine and in every build flavor.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

namespace {

/** Everything one thread count produces that must be invariant. */
struct EqTuple {
    std::uint64_t frames = 0;
    std::uint64_t llc_loads = 0;
    std::uint64_t llc_misses = 0;
    double p50_us = 0;
    double p99_us = 0;
    std::uint64_t drops = 0;
    long long acct_sum = 0;

    bool operator==(const EqTuple &o) const = default;
};

struct ScaleRow {
    std::uint32_t threads = 0;
    double wall_s = 0;
    EqTuple eq;
};

ScaleRow
run_one(std::uint32_t threads)
{
    WorkloadSpec spec;
    std::string err;
    if (!spec.parse("zipf:flows=1000000,skew=1.1,burst=8", &err)) {
        std::fprintf(stderr, "host_parallel: %s\n", err.c_str());
        std::exit(1);
    }

    MachineConfig m;
    m.freq_ghz = 2.3;
    m.num_cores = 8;
    Engine engine(m, nat_aging_config(32, 65536, 1.0), opts_packetmill(),
                  spec);
    PacketMill::grind(engine);

    RunConfig rc;
    rc.offered_gbps = 24.0;
    rc.warmup_us = 300.0;
    rc.duration_us = 900.0;
    rc.sample_interval_us = 100.0;
    rc.host_threads = threads;

    ScaleRow row;
    row.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = engine.run(rc);
    const auto t1 = std::chrono::steady_clock::now();
    row.wall_s = std::chrono::duration<double>(t1 - t0).count();

    row.eq.frames = r.tx_pkts;
    row.eq.llc_loads = r.mem.llc_loads();
    row.eq.llc_misses = r.mem.llc_load_misses;
    row.eq.p50_us = r.median_latency_us;
    row.eq.p99_us = r.p99_latency_us;
    row.eq.drops = r.rx_drops;
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown())
        row.eq.acct_sum += static_cast<long long>(cb.delta.total);
    return row;
}

} // namespace

int
main()
{
    const std::uint32_t counts[] = {1, 2, 4, 8};

    BenchReport rep("host_parallel",
                    "Host-parallel scaling: million-flow Zipf NAT on 8 "
                    "RSS cores, epoch scheduler (eq_ columns gated "
                    "bit-for-bit, identical for every thread count)");
    rep.header({"Threads", "wall_ms", "host_speedup", "eq_frames",
                "eq_llc_loads", "eq_llc_misses", "eq_p50_us", "eq_p99_us",
                "eq_drops", "eq_acct_total"});

    std::vector<ScaleRow> rows;
    for (std::uint32_t t : counts)
        rows.push_back(run_one(t));

    bool ok = true;
    for (const ScaleRow &row : rows) {
        const double speedup =
            row.wall_s > 0 ? rows[0].wall_s / row.wall_s : 0.0;
        rep.row({strprintf("%u", row.threads),
                 strprintf("%.1f", row.wall_s * 1e3),
                 strprintf("%.2f", speedup),
                 strprintf("%llu",
                           static_cast<unsigned long long>(row.eq.frames)),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       row.eq.llc_loads)),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       row.eq.llc_misses)),
                 strprintf("%.17g", row.eq.p50_us),
                 strprintf("%.17g", row.eq.p99_us),
                 strprintf("%llu",
                           static_cast<unsigned long long>(row.eq.drops)),
                 strprintf("%lld", row.eq.acct_sum)});
        if (!(row.eq == rows[0].eq)) {
            std::fprintf(stderr,
                         "host_parallel: DETERMINISM VIOLATION — "
                         "--host-threads %u produced different simulated "
                         "results than --host-threads 1\n",
                         row.threads);
            ok = false;
        }
    }

    rep.note(strprintf(
        "wall_ms/host_speedup are this runner's wall clock (informational "
        "in the gate; %u hardware thread(s) here). eq_ columns are "
        "simulated results: bit-identical across thread counts by the "
        "epoch scheduler's determinism contract, and hard-failed by "
        "this binary if they ever diverge.",
        std::thread::hardware_concurrency()));
    rep.emit();
    return ok ? 0 : 1;
}
