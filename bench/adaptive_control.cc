/**
 * @file
 * Adaptive-control trajectory: a load step under closed-loop control.
 *
 * One router on one 2.3-GHz core starts under light load (backoff-
 * friendly) and is hit mid-run by a step to near wire rate. Three
 * runs share the exact same machine, pipeline, traffic, and knob
 * limits:
 *
 *  - static:     burst 8 + 8 us poll backoff, never retuned — the
 *                low-load-efficient configuration left in place;
 *  - hysteresis: the watermark controller retunes burst/backoff when
 *                ring occupancy crosses its thresholds;
 *  - aimd:       the additive-increase controller converges to the
 *                same regime gradually.
 *
 * Three artifacts pin the before/after story: the summary table, the
 * per-interval trajectory (p99 + throughput per 50-us sample, plus
 * the controlled run's knob trajectory), and the decision logs. The
 * binary exits nonzero unless both controlled runs beat the static
 * run's p99 while matching its throughput — the closed loop must pay
 * for itself, not just move knobs.
 */

#include <algorithm>
#include <cstdio>

#include "src/control/controller.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

namespace {

constexpr double kFreqGhz = 2.3;
constexpr double kLowGbps = 12.0;
constexpr double kHighGbps = 90.0;
constexpr double kStepUs = 1000.0;
constexpr double kDurationUs = 3000.0;
constexpr double kSampleUs = 50.0;

constexpr std::uint32_t kStaticBurst = 8;
constexpr double kStaticBackoffNs = 8000.0;

ActuationLimits
limits()
{
    ActuationLimits l;
    l.burst_min = kStaticBurst;
    l.burst_max = kMaxBurst;
    l.backoff_min_ns = 0.0;
    l.backoff_max_ns = kStaticBackoffNs;
    return l;
}

struct TrajPoint {
    double t_us = 0;
    double p99_us = 0;
    double gbps = 0;
    double burst = 0;
    double backoff_ns = 0;
};

struct RunOutcome {
    RunResult result;
    std::vector<TrajPoint> traj;
    DecisionLog decisions;
    double post_step_p99_us = 0;  ///< worst interval p99 after the step
};

RunOutcome
run_one(const char *policy_name)
{
    MachineConfig machine;
    machine.freq_ghz = kFreqGhz;

    Engine engine(machine, router_config(kStaticBurst), opts_packetmill(),
                  default_campus_trace());

    std::unique_ptr<Controller> controller;
    if (policy_name) {
        ControlConfig cc;
        cc.limits = limits();
        cc.initial_burst = kStaticBurst;
        cc.initial_backoff_ns = kStaticBackoffNs;
        controller = std::make_unique<Controller>(
            make_policy(policy_name, cc.limits, cc.policy), cc);
        engine.set_controller(controller.get());
    } else {
        // The uncontrolled baseline holds the same starting knobs.
        engine.set_poll_backoff_ns(0, kStaticBackoffNs);
    }

    RunConfig rc;
    rc.offered_gbps = kLowGbps;
    rc.warmup_us = 1000.0;
    rc.duration_us = kDurationUs;
    rc.sample_interval_us = kSampleUs;
    rc.load_step_us = kStepUs;
    rc.load_step_gbps = kHighGbps;

    RunOutcome out;
    out.result = engine.run(rc);

    const Timeline &tl = engine.timeline();
    for (std::size_t i = 0; i < tl.rows.size(); ++i) {
        TrajPoint p;
        p.t_us = tl.rows[i].t_us;
        p.p99_us = tl.value(i, "p99_latency_us");
        p.gbps = tl.value(i, "throughput_gbps");
        p.burst = tl.value(i, "rx_burst");
        p.backoff_ns = tl.value(i, "poll_backoff_ns");
        out.traj.push_back(p);
        if (p.t_us > kStepUs)
            out.post_step_p99_us = std::max(out.post_step_p99_us,
                                            p.p99_us);
    }
    if (controller)
        out.decisions = controller->log();
    return out;
}

} // namespace

int
main()
{
    const RunOutcome runs[3] = {run_one(nullptr), run_one("hysteresis"),
                                run_one("aimd")};
    const char *labels[3] = {"static", "hysteresis", "aimd"};

    BenchReport rep("adaptive_control",
                    "Closed-loop control under a load step: router @ "
                    "2.3 GHz, 12 -> 90 Gbps at t=1000us");
    rep.header({"Run", "Thr(Gbps)", "Mpps", "p99(us)",
                "Post-step p99(us)", "Drops", "Decisions"});
    for (int i = 0; i < 3; ++i) {
        const RunResult &r = runs[i].result;
        rep.row({labels[i], strprintf("%.2f", r.throughput_gbps),
                 strprintf("%.2f", r.mpps),
                 strprintf("%.2f", r.p99_latency_us),
                 strprintf("%.2f", runs[i].post_step_p99_us),
                 strprintf("%llu",
                           static_cast<unsigned long long>(r.rx_drops)),
                 strprintf("%zu", runs[i].decisions.size())});
    }
    rep.note("All runs start at burst 8 + 8 us poll backoff with the "
             "same actuation limits; only the controlled runs may "
             "retune. Expectation: adaptation cuts post-step p99 "
             "without giving up throughput.");
    rep.emit();

    BenchReport traj("adaptive_control_traj",
                     "Per-interval trajectory across the load step "
                     "(50-us samples)");
    traj.header({"SimTime", "static p99(us)", "hyst p99(us)",
                 "aimd p99(us)", "static Thr(Gbps)", "hyst Thr(Gbps)",
                 "aimd Thr(Gbps)", "hyst burst", "hyst backoff"});
    const std::size_t n = runs[0].traj.size();
    for (std::size_t i = 0; i < n && i < runs[1].traj.size() &&
                            i < runs[2].traj.size();
         ++i) {
        traj.row({strprintf("%.0f", runs[0].traj[i].t_us),
                  strprintf("%.2f", runs[0].traj[i].p99_us),
                  strprintf("%.2f", runs[1].traj[i].p99_us),
                  strprintf("%.2f", runs[2].traj[i].p99_us),
                  strprintf("%.2f", runs[0].traj[i].gbps),
                  strprintf("%.2f", runs[1].traj[i].gbps),
                  strprintf("%.2f", runs[2].traj[i].gbps),
                  strprintf("%.0f", runs[1].traj[i].burst),
                  strprintf("%.0f", runs[1].traj[i].backoff_ns)});
    }
    traj.note("The step lands at t=1000us; the controllers' reaction "
              "shows up as the burst/backoff trajectory and the p99 "
              "recovery that follows.");
    traj.emit();

    BenchReport dec("adaptive_control_decisions",
                    "Decision logs of the controlled runs");
    dec.header({"Run", "SimTime", "Core", "Knob", "From", "To", "Why"});
    for (int i = 1; i < 3; ++i)
        for (const Decision &d : runs[i].decisions.decisions)
            dec.row({labels[i], strprintf("%.0f", d.t_us),
                     strprintf("%u", d.core), d.knob,
                     strprintf("%g", d.from), strprintf("%g", d.to),
                     d.reason});
    dec.note("Every actuation the controllers performed, in order; "
             "the same records land in pmill_run's stats JSONL as "
             "{\"type\":\"decision\"} lines.");
    dec.emit();

    // The gate: adaptation must beat the static configuration on
    // post-step tail latency without losing throughput.
    bool ok = true;
    for (int i = 1; i < 3; ++i) {
        const RunResult &r = runs[i].result;
        const RunResult &s = runs[0].result;
        if (runs[i].post_step_p99_us >= runs[0].post_step_p99_us ||
            r.throughput_gbps < 0.999 * s.throughput_gbps) {
            std::fprintf(stderr,
                         "adaptive_control: %s failed to beat static "
                         "(p99 %.2f vs %.2f us, post-step %.2f vs %.2f "
                         "us, thr %.2f vs %.2f Gbps)\n",
                         labels[i], r.p99_latency_us, s.p99_latency_us,
                         runs[i].post_step_p99_us,
                         runs[0].post_step_p99_us, r.throughput_gbps,
                         s.throughput_gbps);
            ok = false;
        }
        if (runs[i].decisions.empty()) {
            std::fprintf(stderr,
                         "adaptive_control: %s made no decisions "
                         "across the load step\n",
                         labels[i]);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
