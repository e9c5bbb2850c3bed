/**
 * @file
 * Ablation: RX burst size. The paper's X-Change argument is that the
 * metadata working set should be proportional to the burst size so it
 * stays cache-resident; its configurations embed BURST 32 as a
 * compile-time constant. This ablation sweeps the burst size for
 * Vanilla and PacketMill, showing the throughput/latency trade-off
 * (large bursts amortize per-burst costs but add queueing delay).
 */

#include <cstdio>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

int
main()
{
    const Trace trace = default_campus_trace();

    BenchReport rep(
        "ablation_burst",
        "Ablation: RX burst size, router @ 2.3 GHz, 60 Gbps offered");
    rep.header({"Burst", "Vanilla Gbps", "Vanilla p99(us)",
                "PacketMill Gbps", "PacketMill p99(us)"});
    for (std::uint32_t burst : {4u, 8u, 16u, 32u, 64u}) {
        std::vector<std::string> row = {strprintf("%u", burst)};
        for (const PipelineOpts &o : {opts_vanilla(), opts_packetmill()}) {
            ExperimentSpec spec;
            spec.config = router_config(burst);
            spec.opts = o;
            spec.freq_ghz = 2.3;
            spec.offered_gbps = 60.0;  // below either saturation point
            RunResult r = measure(spec, trace);
            row.push_back(strprintf("%.1f", r.throughput_gbps));
            row.push_back(strprintf("%.2f", r.p99_latency_us));
        }
        rep.row(row);
    }
    rep.note("Expectation: small bursts lose throughput to "
             "per-burst overhead; beyond ~32 the gains flatten while "
             "batching delay grows.");
    rep.emit();
    return 0;
}
