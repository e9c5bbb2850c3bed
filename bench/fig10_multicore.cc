/**
 * @file
 * Reproduces Figure 10: multicore scaling of the NAT (router +
 * stateful NAPT) at 2.3 GHz, RSS spreading flows over 1..4 cores,
 * Vanilla vs PacketMill.
 *
 * The shape is hard-gated (EXPERIMENTS.md "Figure 10"): for each
 * model, throughput at n cores is at least min(0.9 * n * T(1), 90)
 * Gbps — near-linear until the link saturates — and PacketMill is at
 * least 0.99x Vanilla at every core count. Exit 1 on a violation.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

int
main()
{
    // 1024-B packets as in the artifact's multicore experiment.
    const Trace trace = make_fixed_size_trace(1024, 32768, 16384);
    const std::string config = nat_config();

    BenchReport rep("fig10_multicore",
                    "Figure 10: NAT throughput vs cores @ 2.3 GHz (RSS)");
    rep.header({"Cores", "Vanilla Gbps", "PacketMill Gbps", "Improvement"});
    constexpr std::uint32_t kMaxCores = 4;
    double vanilla[kMaxCores + 1] = {}, packetmill[kMaxCores + 1] = {};
    for (std::uint32_t cores = 1; cores <= kMaxCores; ++cores) {
        ExperimentSpec spec;
        spec.config = config;
        spec.freq_ghz = 2.3;
        spec.num_cores = cores;

        spec.opts = opts_vanilla();
        const double v = measure(spec, trace).throughput_gbps;
        spec.opts = opts_packetmill();
        const double p = measure(spec, trace).throughput_gbps;
        vanilla[cores] = v;
        packetmill[cores] = p;
        rep.row({strprintf("%u", cores), strprintf("%.1f", v),
                 strprintf("%.1f", p),
                 strprintf("%+.0f%%", (p / v - 1.0) * 100.0)});
    }
    rep.note("Paper reference: PacketMill's multicore gains are "
             "comparable to its single-core gains; both scale with "
             "cores until the link saturates.");
    rep.emit();

    bool ok = true;
    for (std::uint32_t n = 2; n <= kMaxCores; ++n) {
        const struct {
            const char *name;
            const double *gbps;
        } models[] = {{"Vanilla", vanilla}, {"PacketMill", packetmill}};
        for (const auto &m : models) {
            const double floor = std::min(0.9 * n * m.gbps[1], 90.0);
            if (m.gbps[n] < floor) {
                std::fprintf(stderr,
                             "fig10_multicore: %s at %u cores is %.1f "
                             "Gbps, below the near-linear floor %.1f\n",
                             m.name, n, m.gbps[n], floor);
                ok = false;
            }
        }
    }
    for (std::uint32_t n = 1; n <= kMaxCores; ++n) {
        if (packetmill[n] < 0.99 * vanilla[n]) {
            std::fprintf(stderr,
                         "fig10_multicore: PacketMill %.1f Gbps behind "
                         "Vanilla %.1f Gbps at %u cores\n",
                         packetmill[n], vanilla[n], n);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
