/**
 * @file
 * Quickstart: build a network function from a Click configuration,
 * run it on the simulated 100-Gbps testbed, and print the results.
 *
 *   $ ./example_quickstart
 *
 * This is the smallest end-to-end use of the library: a Trace, an
 * Engine over a Click config, one run() call.
 */

#include <cstdio>

#include "src/pmill.hh"

int
main()
{
    using namespace pmill;

    // A simple forwarder NF, written in the Click language.
    const char *config = R"(
        input  :: FromDPDKDevice(PORT 0, BURST 32);
        output :: ToDPDKDevice(PORT 0);
        input -> EtherMirror -> output;
    )";

    // Traffic: 1024-B frames spread over 64 flows.
    Trace trace = make_fixed_size_trace(/*frame_len=*/1024,
                                        /*num_packets=*/2048,
                                        /*num_flows=*/64);

    // The simulated machine: one core at 2.3 GHz, a 100-Gbps NIC.
    MachineConfig machine;
    machine.freq_ghz = 2.3;

    // Run the same NF twice: vanilla FastClick vs PacketMill.
    for (const auto &[name, opts] :
         {std::pair{"Vanilla (FastClick/Copying)", PipelineOpts::vanilla()},
          std::pair{"PacketMill (X-Change + source passes)",
                    PipelineOpts::packetmill()}}) {
        Engine engine(machine, config, opts, trace);
        PacketMill::grind(engine);

        RunConfig rc;
        rc.offered_gbps = 100.0;
        rc.warmup_us = 500;
        rc.duration_us = 1500;
        RunResult r = engine.run(rc);

        std::printf("%s\n", name);
        std::printf("  throughput: %s (%s)\n",
                    format_gbps(r.throughput_gbps * 1e9).c_str(),
                    format_mpps(r.mpps * 1e6).c_str());
        std::printf("  latency:    median %.2f us, p99 %.2f us\n",
                    r.median_latency_us, r.p99_latency_us);
        std::printf("  drops:      %llu\n\n",
                    static_cast<unsigned long long>(r.rx_drops));
    }
    return 0;
}
