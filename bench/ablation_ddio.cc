/**
 * @file
 * Ablation: Intel DDIO's LLC way allocation. The paper's testbed
 * programs the IIO LLC WAYS register from the default 2 ways to 8
 * (0x7F8) "to prevent DDIO from becoming a bottleneck" (§4, citing
 * the authors' ATC'20 DDIO study). This ablation quantifies that
 * choice on our simulated testbed: forwarding throughput and latency
 * with 2 vs 8 DDIO ways across metadata models.
 */

#include <cstdio>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

int
main()
{
    const Trace trace = make_fixed_size_trace(1024, 2048, 512);
    const std::string config = forwarder_config();

    BenchReport rep(
        "ablation_ddio",
        "Ablation: IIO LLC WAYS (DDIO) setting, forwarder @ 2.3 GHz");
    rep.header({"Model", "DDIO ways", "Throughput(Gbps)", "p99(us)",
                "LLC kmiss/100ms", "TX DMA reads from DRAM"});
    for (MetadataModel model :
         {MetadataModel::kCopying, MetadataModel::kXchange}) {
        for (std::uint32_t ways : {2u, 8u}) {
            MachineConfig m;
            m.freq_ghz = 2.3;
            m.cache.ddio_ways = ways;
            Engine engine(m, config, opts_model(model), trace);
            PacketMill::grind(engine);
            RunConfig rc;
            rc.offered_gbps = 100.0;
            rc.warmup_us = Quality{}.warmup_us;
            rc.duration_us = Quality{}.duration_us;
            RunResult r = engine.run(rc);
            const double dram_pct =
                r.mem.dev_reads
                    ? 100.0 * static_cast<double>(r.mem.dev_reads_dram) /
                          static_cast<double>(r.mem.dev_reads)
                    : 0.0;
            rep.row({metadata_model_name(model), strprintf("%u", ways),
                     strprintf("%.1f", r.throughput_gbps),
                     strprintf("%.1f", r.p99_latency_us),
                     strprintf("%.1f", r.llc_kmisses_per_100ms),
                     strprintf("%.1f%%", dram_pct)});
        }
    }
    rep.note("Expectation: with restricted (2-way) DDIO, frames "
             "wait out the deep RX/TX rings and spill to DRAM before "
             "the NIC reads them back; 8 ways keeps them LLC-resident. "
             "Application-visible throughput moves little when the NF "
             "consumes promptly — consistent with the paper enlarging "
             "IIO LLC WAYS as a precaution against DDIO becoming a "
             "bottleneck rather than as a speedup.");
    rep.emit();
    return 0;
}
