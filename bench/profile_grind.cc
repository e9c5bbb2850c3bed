/**
 * @file
 * Profile-guided grind vs.\ the default grind on the router pipeline.
 *
 * Three runs over the same campus trace at the same offered load:
 *
 *  1. baseline — the source-level optimizations (§3.2.1) with the
 *     default static grind, traced for tail attribution;
 *  2. capture — the same build with profile capture on, distilled
 *     into a Profile artifact;
 *  3. guided — rebuilt with the PlanSearch plan (burst, state
 *     placement) and ground with the Profile (hot-first rule orders,
 *     measured-weight field scan), traced again.
 *
 * The report shows the headline numbers plus where the p99+ packets'
 * excess time went before and after: the win comes from the
 * classifier matching its ~99.5%-IP traffic on the first pattern and
 * the route table's hot rule short-circuiting to a register compare,
 * which shifts tail attribution off the previously dominant element.
 */

#include <cstdio>

#include "src/mill/packet_mill.hh"
#include "src/mill/profile.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"
#include "src/tracing/lifecycle.hh"

using namespace pmill;

namespace {

constexpr double kFreqGhz = 2.3;
constexpr double kOfferedGbps = 70.0;

RunConfig
run_config()
{
    RunConfig rc;
    rc.offered_gbps = kOfferedGbps;
    rc.warmup_us = 1000;
    rc.duration_us = 1500;
    return rc;
}

struct Measured {
    RunResult r;
    TailAttribution tail;
};

/** Build, grind (optionally profile-guided), trace, run, attribute. */
Measured
measure_traced(const std::string &config, const PipelineOpts &opts,
               const Trace &trace, const Profile *profile)
{
    MachineConfig machine;
    machine.freq_ghz = kFreqGhz;
    Engine engine(machine, config, opts, trace);
    PacketMill::grind(engine, profile);
    engine.enable_tracing();
    Measured m;
    m.r = engine.run(run_config());
    m.tail = engine.tail_attribution();
    return m;
}

} // namespace

int
main()
{
    const Trace trace = default_campus_trace();
    const std::string config = router_config();
    const PipelineOpts base_opts = opts_source_all();

    // 1. Baseline: default static grind.
    const Measured base = measure_traced(config, base_opts, trace, nullptr);

    // 2. Capture run: same build, profile capture on.
    Profile profile;
    {
        MachineConfig machine;
        machine.freq_ghz = kFreqGhz;
        Engine engine(machine, config, base_opts, trace);
        PacketMill::grind(engine);
        profile = capture_profile(engine, run_config());
    }

    // 3. Guided: model and placement applied at build time, burst and
    //    rule orders by the grind with the profile. The capture ran the
    //    same config, so its burst is the one the guided engine runs.
    const Plan plan = PlanSearch::search(profile, base_opts, profile.burst);
    const PipelineOpts guided_opts = plan.apply_to_opts(base_opts);
    const Measured guided =
        measure_traced(config, guided_opts, trace, &profile);

    BenchReport rep("profile_grind",
                    "Profile-guided grind vs default grind, router @ "
                    "2.3 GHz, 70 Gbps offered");
    rep.header({"Grind", "Thr(Gbps)", "Mpps", "Mean(us)", "p99(us)",
                "Drops", "Dominant tail element"});
    auto add = [&](const char *name, const Measured &m) {
        rep.row({name, strprintf("%.2f", m.r.throughput_gbps),
                 strprintf("%.3f", m.r.mpps),
                 strprintf("%.2f", m.r.mean_latency_us),
                 strprintf("%.2f", m.r.p99_latency_us),
                 strprintf("%llu",
                           static_cast<unsigned long long>(m.r.rx_drops)),
                 m.tail.dominant_element.empty() ? "-"
                                                 : m.tail.dominant_element});
    };
    add("default", base);
    add("profile-guided", guided);
    rep.note("The guided grind must not regress throughput and must "
             "lower p99; the dominant tail element shifts off the "
             "baseline's hottest stage.");
    rep.emit();

    std::printf("\n%s", plan.to_string().c_str());
    std::printf("\n== tail attribution, default grind ==\n%s",
                base.tail.to_string().c_str());
    std::printf("\n== tail attribution, profile-guided grind ==\n%s",
                guided.tail.to_string().c_str());

    // Machine-checkable acceptance: p99 strictly better, throughput
    // not worse (beyond float noise).
    const bool ok =
        guided.r.p99_latency_us < base.r.p99_latency_us &&
        guided.r.throughput_gbps >= base.r.throughput_gbps * 0.999;
    std::printf("\nacceptance: %s (p99 %.2f -> %.2f us, throughput "
                "%.2f -> %.2f Gbps)\n",
                ok ? "PASS" : "FAIL", base.r.p99_latency_us,
                guided.r.p99_latency_us, base.r.throughput_gbps,
                guided.r.throughput_gbps);
    return ok ? 0 : 1;
}
