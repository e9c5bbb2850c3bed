/**
 * @file
 * Host-side simulator throughput: how fast the mill itself runs.
 *
 * Applies the paper's own yardstick to the reproduction: wall-clock
 * packets simulated per second across representative configs (vanilla
 * vs PacketMill pipeline, single core vs 4-core RSS, tracing on vs
 * off). The `wall_*`/`host_*` columns are the host-performance
 * trajectory — informational in the bench gate because wall-clock is
 * runner-dependent — while the `eq_*` columns pin the *simulated*
 * results of exactly these workloads and are gated bit-for-bit: any
 * host-side optimization that perturbs a frame count, an LLC counter,
 * or a latency percentile fails the diff.
 *
 * Run lengths are pinned so the eq_ columns are identical on every
 * machine and in every build flavor (RelWithDebInfo vs Release+LTO,
 * PMILL_TRACE on/off).
 */

#include <chrono>
#include <cstdio>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"
#include "src/tracing/tracer.hh"

using namespace pmill;

namespace {

struct HostRun {
    const char *name;
    PipelineOpts opts;
    std::uint32_t cores = 1;
    bool traced = false;
};

} // namespace

int
main()
{
    const Trace trace = default_campus_trace();

    // Pinned run lengths: the golden was recorded with these.
    Quality q;
    q.warmup_us = 1200;
    q.duration_us = 2500;

    const HostRun runs[] = {
        {"vanilla", opts_vanilla(), 1, false},
        {"packetmill", opts_packetmill(), 1, false},
        {"vanilla-rss4", opts_vanilla(), 4, false},
        {"packetmill-traced", opts_packetmill(), 1, true},
    };

    BenchReport rep("host_perf",
                    "Host simulator throughput, router @ 2.3 GHz, "
                    "70 Gbps offered (eq_ columns gated bit-for-bit)");
    rep.header({"Config", "Cores", "Tracing", "wall_ms", "host_Mpps",
                "host_sim_rate", "eq_frames", "eq_llc_loads",
                "eq_llc_misses", "eq_p50_us", "eq_p99_us"});

    for (const HostRun &hr : runs) {
        MachineConfig m;
        m.freq_ghz = 2.3;
        m.num_cores = hr.cores;

        Engine engine(m, router_config(), hr.opts, trace);
        PacketMill::grind(engine);
        if (hr.traced)
            engine.enable_tracing();

        RunConfig rc;
        rc.offered_gbps = 70.0;
        rc.warmup_us = q.warmup_us;
        rc.duration_us = q.duration_us;

        const auto t0 = std::chrono::steady_clock::now();
        const RunResult r = engine.run(rc);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall_s =
            std::chrono::duration<double>(t1 - t0).count();
        const double sim_s = (q.warmup_us + q.duration_us) * 1e-6;

        rep.row({hr.name, strprintf("%u", hr.cores),
                 hr.traced && Tracer::kCompiledIn ? "on" : "off",
                 strprintf("%.1f", wall_s * 1e3),
                 strprintf("%.3f", r.tx_pkts / wall_s / 1e6),
                 strprintf("%.5f", sim_s / wall_s),
                 strprintf("%llu",
                           static_cast<unsigned long long>(r.tx_pkts)),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       r.mem.llc_loads())),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       r.mem.llc_load_misses)),
                 strprintf("%.17g", r.median_latency_us),
                 strprintf("%.17g", r.p99_latency_us)});
    }

    rep.note("wall_/host_ columns are this runner's speed (informational "
             "in the gate); eq_ columns are simulated results and must "
             "never change. Tracing alters only host time, never the "
             "simulation.");
    rep.emit();
    return 0;
}
