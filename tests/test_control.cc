/**
 * @file
 * Closed-loop control tests: policy decision rules (hysteresis
 * debounce and regimes, AIMD convergence), actuation-limit clamping,
 * the decision log's JSONL contract, actuator bounds enforcement, and
 * end-to-end controlled engine runs (knobs stay within limits).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "src/control/controller.hh"
#include "src/control/policy.hh"
#include "src/mill/profile.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/export.hh"

namespace pmill {
namespace {

ControlObservation
congested_obs()
{
    ControlObservation o;
    o.ring_occupancy = 0.9;
    o.idle_fraction = 0.0;
    return o;
}

ControlObservation
quiet_obs()
{
    ControlObservation o;
    o.ring_occupancy = 0.0;
    o.idle_fraction = 0.9;
    return o;
}

ControlObservation
deadband_obs()
{
    ControlObservation o;
    o.ring_occupancy = 0.15;
    o.idle_fraction = 0.3;
    return o;
}

TEST(HysteresisPolicy, DebounceDelaysTheRegimeSwitch)
{
    ActuationLimits lim;
    PolicyConfig cfg;
    cfg.hysteresis_intervals = 2;
    HysteresisPolicy p(lim, cfg);
    p.reset();

    EXPECT_TRUE(p.decide(congested_obs(), 8, 8000).changes_nothing())
        << "one congested interval must not switch the regime";
    const ControlAction a = p.decide(congested_obs(), 8, 8000);
    EXPECT_EQ(a.burst, lim.burst_max);
    EXPECT_EQ(a.backoff_ns, lim.backoff_min_ns);
    EXPECT_FALSE(a.reason.empty());

    // Once in the high regime, staying congested changes nothing.
    EXPECT_TRUE(p.decide(congested_obs(), a.burst, a.backoff_ns)
                    .changes_nothing());

    // Two quiet intervals switch back down.
    EXPECT_TRUE(p.decide(quiet_obs(), a.burst, a.backoff_ns)
                    .changes_nothing());
    const ControlAction b = p.decide(quiet_obs(), a.burst, a.backoff_ns);
    EXPECT_EQ(b.burst, lim.burst_min);
    EXPECT_EQ(b.backoff_ns, lim.backoff_max_ns);
}

TEST(HysteresisPolicy, DeadBandHoldsTheRegime)
{
    ActuationLimits lim;
    PolicyConfig cfg;
    cfg.hysteresis_intervals = 2;
    HysteresisPolicy p(lim, cfg);
    p.reset();
    p.decide(congested_obs(), 8, 8000);
    p.decide(congested_obs(), 8, 8000);  // now in the high regime

    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(p.decide(deadband_obs(), lim.burst_max,
                             lim.backoff_min_ns)
                        .changes_nothing())
            << "the dead band between the watermarks must not flap";
}

TEST(HysteresisPolicy, DropsAloneTriggerCongestion)
{
    ActuationLimits lim;
    PolicyConfig cfg;
    cfg.hysteresis_intervals = 1;
    HysteresisPolicy p(lim, cfg);
    p.reset();
    ControlObservation o = deadband_obs();
    o.rx_drops = 12;
    const ControlAction a = p.decide(o, 8, 8000);
    EXPECT_EQ(a.burst, lim.burst_max);
}

TEST(AimdPolicy, ConvergesToTheLimitsAndNeverPastThem)
{
    ActuationLimits lim;
    lim.burst_min = 4;
    lim.burst_max = 48;
    lim.backoff_min_ns = 0;
    lim.backoff_max_ns = 10000;
    PolicyConfig cfg;
    AimdPolicy p(lim, cfg);

    // Sustained congestion: additive burst growth, multiplicative
    // backoff decay, fixed point at (burst_max, backoff_min).
    std::uint32_t burst = lim.burst_min;
    double backoff = lim.backoff_max_ns;
    for (int i = 0; i < 50; ++i) {
        const ControlAction a = p.decide(congested_obs(), burst, backoff);
        if (a.burst) {
            EXPECT_GE(a.burst, burst) << "congestion must not shrink burst";
            EXPECT_LE(a.burst, lim.burst_max);
            burst = a.burst;
        }
        if (a.backoff_ns >= 0) {
            EXPECT_LE(a.backoff_ns, backoff);
            EXPECT_GE(a.backoff_ns, lim.backoff_min_ns);
            backoff = a.backoff_ns;
        }
    }
    EXPECT_EQ(burst, lim.burst_max);
    EXPECT_EQ(backoff, lim.backoff_min_ns);

    // Sustained quiet: the reverse fixed point.
    for (int i = 0; i < 100; ++i) {
        const ControlAction a = p.decide(quiet_obs(), burst, backoff);
        if (a.burst) {
            EXPECT_GE(a.burst, lim.burst_min);
            burst = a.burst;
        }
        if (a.backoff_ns >= 0) {
            EXPECT_LE(a.backoff_ns, lim.backoff_max_ns);
            backoff = a.backoff_ns;
        }
    }
    EXPECT_EQ(burst, lim.burst_min);
    EXPECT_EQ(backoff, lim.backoff_max_ns);

    // The dead band is a fixed point everywhere.
    EXPECT_TRUE(p.decide(deadband_obs(), burst, backoff).changes_nothing());
}

TEST(Policies, FactoryKnowsExactlyTheShippedPolicies)
{
    ActuationLimits lim;
    PolicyConfig cfg;
    ASSERT_NE(make_policy("hysteresis", lim, cfg), nullptr);
    ASSERT_NE(make_policy("aimd", lim, cfg), nullptr);
    EXPECT_EQ(make_policy("hysteresis", lim, cfg)->name(),
              std::string("hysteresis"));
    EXPECT_EQ(make_policy("pid", lim, cfg), nullptr);
    EXPECT_EQ(make_policy("", lim, cfg), nullptr);
}

TEST(ActuationLimitsTest, ValidateRejectsInconsistentBounds)
{
    std::string err;
    EXPECT_TRUE(ActuationLimits{}.validate(&err));

    ActuationLimits l;
    l.burst_min = 32;
    l.burst_max = 8;
    EXPECT_FALSE(l.validate(&err));
    EXPECT_NE(err.find("burst"), std::string::npos);

    l = ActuationLimits{};
    l.burst_max = kMaxBurst + 1;
    EXPECT_FALSE(l.validate(&err));

    l = ActuationLimits{};
    l.backoff_max_ns = 1e9;
    EXPECT_FALSE(l.validate(&err));
    EXPECT_NE(err.find("backoff"), std::string::npos);
}

TEST(ActuationLimitsTest, FromPlanBoundsTheSearchedBurst)
{
    const std::uint32_t configured = 32;
    Plan plan;
    plan.burst = 16;
    ActuationLimits l = ActuationLimits::from_plan(plan, configured);
    std::string err;
    EXPECT_TRUE(l.validate(&err)) << err;
    EXPECT_EQ(l.burst_max, 32u)
        << "the wider of plan/configured burst is the ceiling";
    EXPECT_EQ(l.burst_min, 4u);

    plan.burst = 0;  // plan keeps the configured burst
    l = ActuationLimits::from_plan(plan, configured);
    EXPECT_EQ(l.burst_max, 32u);
    EXPECT_EQ(l.burst_min, 8u);
}

/** Records every actuation; never enforces anything itself. */
class FakeActuator : public Actuator {
  public:
    explicit FakeActuator(std::uint32_t cores = 1)
        : burst_(cores, 32), backoff_(cores, 0.0)
    {}

    std::uint32_t
    num_cores() const override
    {
        return static_cast<std::uint32_t>(burst_.size());
    }
    std::uint32_t rx_burst(std::uint32_t c) const override
    {
        return burst_[c];
    }
    void
    set_rx_burst(std::uint32_t c, std::uint32_t b) override
    {
        burst_[c] = b;
    }
    double poll_backoff_ns(std::uint32_t c) const override
    {
        return backoff_[c];
    }
    void
    set_poll_backoff_ns(std::uint32_t c, double ns) override
    {
        backoff_[c] = ns;
    }

    std::vector<std::uint32_t> burst_;
    std::vector<double> backoff_;
};

/** A policy that always demands far more than the limits allow. */
class RoguePolicy : public Policy {
  public:
    const char *name() const override { return "rogue"; }
    void reset() override {}
    ControlAction
    decide(const ControlObservation &, std::uint32_t, double) override
    {
        ControlAction a;
        a.burst = 10'000;
        a.backoff_ns = 1e12;
        a.reason = "ask for the moon";
        return a;
    }
};

Timeline
tiny_timeline()
{
    MetricsRegistry reg;
    CounterHandle idle = reg.add_counter("acct_idle_cycles");
    CounterHandle total = reg.add_counter("acct_total_cycles");
    reg.add_counter("rx_drops");
    reg.add_counter("pipeline_drops");
    reg.add_counter("tx_pkts");
    reg.add_gauge("ring_occupancy", [] { return 0.5; });
    reg.add_gauge("mempool_occupancy", [] { return 0.5; });
    reg.add_gauge("throughput_gbps", [] { return 50.0; });
    reg.add_gauge("mpps", [] { return 7.0; });
    reg.add_histogram("latency_us", 100.0, 64);
    Sampler s(reg, 10.0);
    s.start(0.0);
    idle.add(10);
    total.add(100);
    s.advance(10'000.0);
    return s.timeline();
}

TEST(ControllerTest, ClampsEveryActuationToTheLimits)
{
    ControlConfig cc;
    cc.limits.burst_min = 8;
    cc.limits.burst_max = 32;
    cc.limits.backoff_min_ns = 0;
    cc.limits.backoff_max_ns = 5000;
    Controller ctl(std::make_unique<RoguePolicy>(), cc);

    FakeActuator act;
    ctl.on_run_start(act);
    const Timeline tl = tiny_timeline();
    ctl.observe(tl, act);

    EXPECT_EQ(act.burst_[0], 32u);
    EXPECT_EQ(act.backoff_[0], 5000.0);

    ASSERT_FALSE(ctl.log().empty());
    for (const Decision &d : ctl.log().decisions) {
        EXPECT_TRUE(d.clamped)
            << "every rogue request must be marked clamped";
        EXPECT_FALSE(d.reason.empty());
    }
}

TEST(ControllerTest, ObserveConsumesEachRowExactlyOnce)
{
    ControlConfig cc;
    Controller ctl(std::make_unique<RoguePolicy>(), cc);
    FakeActuator act;
    ctl.on_run_start(act);
    const Timeline tl = tiny_timeline();
    ctl.observe(tl, act);
    const std::size_t n = ctl.log().size();
    EXPECT_GT(n, 0u);
    ctl.observe(tl, act);  // same timeline again: no new rows
    EXPECT_EQ(ctl.log().size(), n);
}

TEST(ControllerTest, DecisionLogRoundTripsAsJsonl)
{
    ControlConfig cc;
    cc.limits.burst_max = 16;
    cc.initial_burst = 12;
    cc.initial_backoff_ns = 400.0;
    Controller ctl(std::make_unique<RoguePolicy>(), cc);
    FakeActuator act;
    ctl.on_run_start(act);
    ctl.observe(tiny_timeline(), act);
    ASSERT_GE(ctl.log().size(), 3u);

    std::ostringstream os;
    ctl.log().write_jsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        std::map<std::string, std::string> obj;
        ASSERT_TRUE(parse_json_object_line(line, &obj))
            << "unparsable decision line: " << line;
        EXPECT_EQ(obj["type"], "decision");
        EXPECT_TRUE(obj.count("t_us"));
        EXPECT_TRUE(obj.count("knob"));
        EXPECT_TRUE(obj.count("from"));
        EXPECT_TRUE(obj.count("to"));
        EXPECT_TRUE(obj.count("reason"));
        ++lines;
    }
    EXPECT_EQ(lines, ctl.log().size());
}

/** Records what the controller distilled; never actuates. */
class RecordingPolicy : public Policy {
  public:
    const char *name() const override { return "recording"; }
    void reset() override { seen.clear(); }
    ControlAction
    decide(const ControlObservation &obs, std::uint32_t, double) override
    {
        seen.push_back(obs);
        return ControlAction{};
    }
    std::vector<ControlObservation> seen;
};

TEST(ControllerTest, IdleFractionIsTheLedgersIdleShare)
{
    MachineConfig m;
    m.freq_ghz = 2.3;
    Engine engine(m, router_config(), opts_packetmill(),
                  default_campus_trace());
    ControlConfig cc;
    auto policy = std::make_unique<RecordingPolicy>();
    const RecordingPolicy &rec = *policy;
    Controller ctl(std::move(policy), cc);
    engine.set_controller(&ctl);

    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 100;
    rc.duration_us = 500;
    rc.sample_interval_us = 100;
    engine.run(rc);

    ASSERT_EQ(engine.poll_backoff_ns(0), 0.0);
    ASSERT_EQ(rec.seen.size(), 5u);
    const Timeline &tl = engine.timeline();
    for (std::size_t i = 0; i < rec.seen.size(); ++i) {
        // Dry polls replayed between arrivals are idle time: a router
        // offered a tenth of line rate idles most of every interval.
        EXPECT_GE(rec.seen[i].idle_fraction, 0.8) << "interval " << i;
        EXPECT_DOUBLE_EQ(rec.seen[i].idle_fraction,
                         tl.value(i, "acct_idle_cycles") /
                             tl.value(i, "acct_total_cycles"));
    }
}

TEST(EngineActuation, HysteresisReturnsToLowLoadAfterADownwardStep)
{
    MachineConfig m;
    m.freq_ghz = 2.3;
    Engine engine(m, router_config(), opts_packetmill(),
                  default_campus_trace());
    ControlConfig cc;
    Controller ctl(make_policy("hysteresis", cc.limits, cc.policy), cc);
    engine.set_controller(&ctl);

    RunConfig rc;
    rc.offered_gbps = 90.0;
    rc.warmup_us = 100;
    rc.duration_us = 1600;
    rc.sample_interval_us = 100;
    rc.load_step_us = 1000;
    rc.load_step_gbps = 10.0;
    engine.run(rc);

    bool high = false, low_after_step = false;
    for (const Decision &d : ctl.log().decisions) {
        if (d.reason.find("high-load regime") != std::string::npos)
            high = true;
        if (d.t_us > rc.load_step_us &&
            d.reason.find("low-load regime") != std::string::npos)
            low_after_step = true;
    }
    EXPECT_TRUE(high) << ctl.log().to_string();
    EXPECT_TRUE(low_after_step)
        << "no low-load decision after the 90 -> 10 Gbps step:\n"
        << ctl.log().to_string();
}

TEST(EngineActuation, SettersEnforceBoundsHard)
{
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    engine.set_rx_burst(0, 16);
    EXPECT_EQ(engine.rx_burst(0), 16u);
    engine.set_poll_backoff_ns(0, 500.0);
    EXPECT_EQ(engine.poll_backoff_ns(0), 500.0);

    EXPECT_DEATH(engine.set_rx_burst(0, 0), "burst");
    EXPECT_DEATH(engine.set_rx_burst(0, kMaxBurst + 1), "burst");
    EXPECT_DEATH(engine.set_rx_burst(5, 16), "out of range");
    EXPECT_DEATH(engine.set_poll_backoff_ns(0, -1.0), "backoff");
}

TEST(EngineActuation, ControlledRunStaysWithinLimits)
{
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    m.freq_ghz = 1.0;  // slow core: the step saturates it for sure

    Engine engine(m, forwarder_config(8), PipelineOpts::vanilla(), t);

    ControlConfig cc;
    cc.limits.burst_min = 8;
    cc.limits.burst_max = 32;
    cc.limits.backoff_min_ns = 0;
    cc.limits.backoff_max_ns = 4000;
    cc.initial_burst = 8;
    cc.initial_backoff_ns = 4000;
    Controller ctl(make_policy("hysteresis", cc.limits, cc.policy), cc);
    engine.set_controller(&ctl);

    RunConfig rc;
    rc.offered_gbps = 8.0;
    rc.warmup_us = 200;
    rc.duration_us = 1200;
    rc.sample_interval_us = 50;
    rc.load_step_us = 400;
    rc.load_step_gbps = 95.0;
    engine.run(rc);

    EXPECT_FALSE(ctl.log().empty())
        << "the load step must provoke at least one decision";
    const Timeline &tl = engine.timeline();
    ASSERT_FALSE(tl.empty());
    for (std::size_t i = 0; i < tl.rows.size(); ++i) {
        const double burst = tl.value(i, "rx_burst");
        const double backoff = tl.value(i, "poll_backoff_ns");
        EXPECT_GE(burst, cc.limits.burst_min);
        EXPECT_LE(burst, cc.limits.burst_max);
        EXPECT_GE(backoff, cc.limits.backoff_min_ns);
        EXPECT_LE(backoff, cc.limits.backoff_max_ns);
    }
    // The step pushes the engine into the high-load regime.
    EXPECT_EQ(engine.rx_burst(0), cc.limits.burst_max);
    EXPECT_EQ(engine.poll_backoff_ns(0), cc.limits.backoff_min_ns);
}

} // namespace
} // namespace pmill