/**
 * @file
 * Tests for the profile-guided grind: Profile capture and
 * serialization determinism, the PlanSearch policies, the per-element
 * rule-order hooks, and the semantics-preservation check for a full
 * searched plan on the router pipeline.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "src/elements/elements.hh"
#include "src/mill/packet_mill.hh"
#include "src/mill/profile.hh"
#include "src/mill/verify.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

RunConfig
short_run()
{
    RunConfig rc;
    rc.offered_gbps = 70.0;
    rc.warmup_us = 300;
    rc.duration_us = 600;
    return rc;
}

/** One capture run of the router at 70 Gbps; fresh engine each call. */
Profile
capture_router_profile()
{
    MachineConfig machine;
    machine.freq_ghz = 2.3;
    Engine engine(machine, router_config(), opts_source_all(),
                  default_campus_trace());
    PacketMill::grind(engine);
    return capture_profile(engine, short_run());
}

/// The RX burst of router_config() and of synthetic_profile()'s
/// capture: the burst the searched engine runs.
constexpr std::uint32_t kBurst = 32;

/** A hand-built profile for exercising individual policies. */
Profile
synthetic_profile()
{
    Profile p;
    p.freq_ghz = 2.3;
    p.burst = kBurst;
    p.model = "Copying";
    ProfileElement cls;
    cls.name = "class";
    cls.class_name = "Classifier";
    cls.packets = 1000;
    cls.cycles = 5000;
    cls.rule_hits = {5, 100, 10};
    ProfileElement rt;
    rt.name = "rt";
    rt.class_name = "IPLookup";
    rt.packets = 900;
    rt.cycles = 9000;
    p.elements = {cls, rt};
    return p;
}

TEST(ProfileCapture, PopulatesMeasuredFields)
{
    Profile p = capture_router_profile();
    EXPECT_DOUBLE_EQ(p.freq_ghz, 2.3);
    EXPECT_EQ(p.burst, 32u);
    EXPECT_EQ(p.model, "Copying");
    EXPECT_GT(p.throughput_gbps, 0.0);
    EXPECT_GT(p.p99_latency_us, 0.0);
    ASSERT_FALSE(p.elements.empty());

    // Every element saw traffic, and the rule-bearing ones recorded
    // per-rule hits during capture.
    const ProfileElement *cls = p.find("class");
    ASSERT_NE(cls, nullptr);
    EXPECT_GT(cls->packets, 0u);
    ASSERT_EQ(cls->rule_hits.size(), 2u);  // ARP, IP patterns
    // The campus trace is overwhelmingly IP: pattern 1 dominates.
    EXPECT_GT(cls->rule_hits[1], cls->rule_hits[0]);

    const ProfileElement *rt = p.find("rt");
    ASSERT_NE(rt, nullptr);
    ASSERT_EQ(rt->rule_hits.size(), 6u);  // six configured routes
    const std::uint64_t total = std::accumulate(
        rt->rule_hits.begin(), rt->rule_hits.end(), std::uint64_t{0});
    EXPECT_GT(total, 0u);

    // Non-empty polls were observed, so the histogram has mass.
    const std::uint64_t polls = std::accumulate(
        p.burst_hist.begin(), p.burst_hist.end(), std::uint64_t{0});
    EXPECT_GT(polls, 0u);
    EXPECT_GT(p.occupancy_percentile(99.0), 0u);
}

TEST(ProfileCapture, DeterministicAcrossRuns)
{
    Profile a = capture_router_profile();
    Profile b = capture_router_profile();
    // Same trace, same seed, same machine: the artifact is
    // byte-identical ...
    EXPECT_EQ(a.to_json(), b.to_json());
    // ... and so are the searched decisions.
    Plan pa = PlanSearch::search(a, opts_source_all(), kBurst);
    Plan pb = PlanSearch::search(b, opts_source_all(), kBurst);
    EXPECT_EQ(pa.burst, pb.burst);
    EXPECT_EQ(pa.model, pb.model);
    EXPECT_EQ(pa.rule_orders, pb.rule_orders);
    EXPECT_EQ(pa.state_order, pb.state_order);
}

TEST(ProfileJson, RoundTrip)
{
    Profile a = capture_router_profile();
    Profile b;
    std::string err;
    ASSERT_TRUE(Profile::parse(a.to_json(), &b, &err)) << err;
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.elements.size(), b.elements.size());
    ASSERT_NE(b.find("rt"), nullptr);
    EXPECT_EQ(a.find("rt")->rule_hits, b.find("rt")->rule_hits);
    EXPECT_EQ(a.burst_hist, b.burst_hist);
}

TEST(ProfileJson, RejectsGarbage)
{
    Profile p;
    std::string err;
    EXPECT_FALSE(Profile::parse("not a profile\n", &p, &err));
    EXPECT_FALSE(err.empty());
}

TEST(ProfileJson, RejectsMalformedNumbers)
{
    // A corrupted or hand-edited artifact must fail the load, not
    // silently parse bad tokens as 0 and feed the search a bogus plan.
    Profile p;
    std::string err;
    EXPECT_FALSE(Profile::parse(
        "{\"type\":\"profile_meta\",\"freq_ghz\":2.x,\"burst\":32}\n",
        &p, &err));
    EXPECT_NE(err.find("freq_ghz"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(Profile::parse(
        "{\"type\":\"profile_meta\",\"freq_ghz\":2.3,\"burst\":-1}\n",
        &p, &err));
    EXPECT_NE(err.find("burst"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(Profile::parse(
        "{\"type\":\"profile_meta\",\"freq_ghz\":2.3,\"burst\":32}\n"
        "{\"type\":\"profile_element\",\"name\":\"c\","
        "\"rule_hits\":\"1,x,3\"}\n",
        &p, &err));
    EXPECT_NE(err.find("rule_hits"), std::string::npos) << err;

    // The well-formed spelling of the same lines still parses.
    err.clear();
    EXPECT_TRUE(Profile::parse(
        "{\"type\":\"profile_meta\",\"freq_ghz\":2.3,\"burst\":32}\n"
        "{\"type\":\"profile_element\",\"name\":\"c\","
        "\"rule_hits\":\"1,2,3\"}\n",
        &p, &err))
        << err;
    ASSERT_NE(p.find("c"), nullptr);
    EXPECT_EQ(p.find("c")->rule_hits,
              (std::vector<std::uint64_t>{1, 2, 3}));
}

// The capture records the configured burst (at most kMaxBurst) and
// kMaxBurst + 1 histogram slots. Anything larger would reach the
// engine through the plan's burst and abort it.
TEST(ProfileJson, RejectsBurstTheEngineCannotRun)
{
    const Profile captured = capture_router_profile();
    ASSERT_EQ(captured.burst_hist.size(), kMaxBurst + 1);
    Profile p;
    std::string err;
    ASSERT_TRUE(Profile::parse(captured.to_json(), &p, &err)) << err;

    Profile hostile = captured;
    hostile.burst = kMaxBurst;
    EXPECT_TRUE(Profile::parse(hostile.to_json(), &p, &err)) << err;
    hostile.burst = 4096;
    hostile.burst_hist.assign(1000, 0);
    hostile.burst_hist.push_back(5);
    err.clear();
    EXPECT_FALSE(Profile::parse(hostile.to_json(), &p, &err));
    EXPECT_NE(err.find("malformed value for 'burst'"), std::string::npos)
        << err;
    // Above 2^32, where a cast to the 32-bit field would wrap to 5.
    err.clear();
    EXPECT_FALSE(Profile::parse(
        "{\"type\":\"profile_meta\",\"burst\":4294967301}\n", &p, &err));
    EXPECT_NE(err.find("'burst'"), std::string::npos) << err;
}

TEST(ProfileJson, RejectsHistogramLongerThanAnyCapture)
{
    Profile hostile = capture_router_profile();
    hostile.burst_hist.assign(kMaxBurst + 2, 1);
    Profile p;
    std::string err;
    EXPECT_FALSE(Profile::parse(hostile.to_json(), &p, &err));
    EXPECT_NE(err.find("malformed value for 'hist'"), std::string::npos)
        << err;
    hostile.burst_hist.pop_back();
    err.clear();
    EXPECT_TRUE(Profile::parse(hostile.to_json(), &p, &err)) << err;
}

TEST(PlanSearchPolicy, HotFirstRuleOrder)
{
    Profile p = synthetic_profile();
    Plan plan = PlanSearch::search(p, opts_source_all(), kBurst);
    ASSERT_EQ(plan.rule_orders.size(), 1u);
    EXPECT_EQ(plan.rule_orders[0].first, "class");
    EXPECT_EQ(plan.rule_orders[0].second,
              (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(PlanSearchPolicy, IdentityRuleOrderIsSkipped)
{
    Profile p = synthetic_profile();
    p.elements[0].rule_hits = {100, 10, 5};  // already hot-first
    Plan plan = PlanSearch::search(p, opts_source_all(), kBurst);
    EXPECT_TRUE(plan.rule_orders.empty());
}

TEST(PlanSearchPolicy, BurstShrinksTowardOccupancy)
{
    Profile p = synthetic_profile();
    // Occupancy never exceeds 5 packets per poll: a 32-deep burst
    // buys nothing, so the plan shrinks to the floor of 8.
    p.burst_hist.assign(33, 0);
    p.burst_hist[4] = 500;
    p.burst_hist[5] = 500;
    Plan plan = PlanSearch::search(p, opts_source_all(), kBurst);
    EXPECT_EQ(plan.burst, 8u);
}

TEST(PlanSearchPolicy, BurstNeverGrows)
{
    Profile p = synthetic_profile();
    // Saturated polls: every poll returns the full configured burst.
    // Growing the burst only trades latency and RX-ring headroom for
    // no throughput, so the plan must leave it alone.
    p.burst_hist.assign(33, 0);
    p.burst_hist[32] = 1000;
    Plan plan = PlanSearch::search(p, opts_source_all(), kBurst);
    EXPECT_EQ(plan.burst, 0u);

    // No histogram at all (tracing ring wrapped past every RX
    // record): likewise no decision.
    p.burst_hist.clear();
    plan = PlanSearch::search(p, opts_source_all(), kBurst);
    EXPECT_EQ(plan.burst, 0u);
}

TEST(PlanSearchPolicy, ModelUpgradeThresholds)
{
    Profile p = synthetic_profile();
    PipelineOpts copying = opts_source_all();
    copying.model = MetadataModel::kCopying;

    p.stall_share = 0.50;
    EXPECT_EQ(PlanSearch::search(p, copying, kBurst).model,
              metadata_model_name(MetadataModel::kXchange));
    p.stall_share = 0.30;
    EXPECT_EQ(PlanSearch::search(p, copying, kBurst).model,
              metadata_model_name(MetadataModel::kOverlaying));
    p.stall_share = 0.10;
    EXPECT_TRUE(PlanSearch::search(p, copying, kBurst).model.empty());

    // Already on X-Change: nothing to upgrade to, however stalled.
    PipelineOpts xchg = opts_source_all();
    xchg.model = MetadataModel::kXchange;
    p.stall_share = 0.90;
    EXPECT_TRUE(PlanSearch::search(p, xchg, kBurst).model.empty());
}

TEST(PlanSearchPolicy, StateOrderHotFirstOnlyWithStaticGraph)
{
    Profile p = synthetic_profile();
    // "rt" and "class" have equal heat ordering by packets; make the
    // second element strictly hotter so hot-first differs from the
    // profile (= configuration) order.
    p.elements[1].packets = 2000;

    PipelineOpts on = opts_source_all();
    on.static_graph = true;
    Plan plan = PlanSearch::search(p, on, kBurst);
    ASSERT_EQ(plan.state_order.size(), 2u);
    EXPECT_EQ(plan.state_order[0], "rt");
    EXPECT_EQ(plan.state_order[1], "class");

    PipelineOpts off = opts_source_all();
    off.static_graph = false;
    EXPECT_TRUE(PlanSearch::search(p, off, kBurst).state_order.empty());
}

TEST(PlanApply, FoldsBuildTimeDecisionsIntoOpts)
{
    Plan plan;
    plan.model = metadata_model_name(MetadataModel::kXchange);
    plan.state_order = {"rt", "class"};
    PipelineOpts base = opts_source_all();
    PipelineOpts out = plan.apply_to_opts(base);
    EXPECT_EQ(out.model, MetadataModel::kXchange);
    EXPECT_EQ(out.state_order, plan.state_order);

    // An empty plan changes nothing.
    Plan none;
    EXPECT_TRUE(none.empty());
    PipelineOpts same = none.apply_to_opts(base);
    EXPECT_EQ(same.model, base.model);
    EXPECT_TRUE(same.state_order.empty());
}

TEST(RuleOrder, ClassifierRejectsInvalidPermutations)
{
    SimMemory mem;
    std::string err;
    auto p =
        Pipeline::build(router_config(), mem, opts_source_all(), &err);
    ASSERT_NE(p, nullptr) << err;
    auto *cls = dynamic_cast<Classifier *>(p->find("class"));
    ASSERT_NE(cls, nullptr);

    EXPECT_FALSE(cls->apply_rule_order({0}));        // wrong size
    EXPECT_FALSE(cls->apply_rule_order({0, 0}));     // duplicate
    EXPECT_FALSE(cls->apply_rule_order({0, 7}));     // out of range
    EXPECT_EQ(cls->match_order(),
              (std::vector<std::uint32_t>{0, 1}));   // untouched

    EXPECT_TRUE(cls->apply_rule_order({1, 0}));
    EXPECT_EQ(cls->match_order(), (std::vector<std::uint32_t>{1, 0}));
}

TEST(RuleOrder, ClassifierKeepsOverlappingPatternsInConfiguredOrder)
{
    // First-match semantics: '-' matches every packet ARP matches, so
    // trying the catch-all first would steal ARP's packets and change
    // their out_port. Such orders must be refused even though they
    // are valid permutations.
    Classifier cls;
    std::string err;
    ASSERT_TRUE(cls.configure({"ARP", "-"}, &err)) << err;
    EXPECT_FALSE(cls.apply_rule_order({1, 0}));
    EXPECT_EQ(cls.match_order(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_TRUE(cls.apply_rule_order({0, 1}));  // identity stays legal

    // Disjoint patterns still reorder freely around the constraint.
    Classifier cls3;
    ASSERT_TRUE(cls3.configure({"ARP", "IP", "-"}, &err)) << err;
    EXPECT_TRUE(cls3.apply_rule_order({1, 0, 2}));   // ARP/IP swap: safe
    EXPECT_FALSE(cls3.apply_rule_order({2, 0, 1}));  // '-' first
    EXPECT_FALSE(cls3.apply_rule_order({0, 2, 1}));  // '-' before IP
    EXPECT_EQ(cls3.match_order(), (std::vector<std::uint32_t>{1, 0, 2}));
}

TEST(RuleOrder, IPLookupPromotesOnlySafeHotRoutes)
{
    SimMemory mem;
    std::string err;
    auto p =
        Pipeline::build(router_config(), mem, opts_source_all(), &err);
    ASSERT_NE(p, nullptr) << err;
    auto *rt = dynamic_cast<IPLookup *>(p->find("rt"));
    ASSERT_NE(rt, nullptr);
    ASSERT_EQ(rt->num_rules(), 6u);

    // The default route (index 5) is shadowed by every /8: promoting
    // it to the exact fast path would be unsound.
    EXPECT_FALSE(rt->hot_route_safe(5));
    EXPECT_FALSE(rt->apply_rule_order({5, 0, 1, 2, 3, 4}));
    EXPECT_EQ(rt->hot_route(), -1);

    // A /8 with no more-specific overlap is exact, so it promotes.
    EXPECT_TRUE(rt->hot_route_safe(0));
    EXPECT_TRUE(rt->apply_rule_order({0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(rt->hot_route(), 0);

    EXPECT_FALSE(rt->apply_rule_order({9, 0, 1, 2, 3, 4}));  // bad index
}

TEST(GrindWithProfile, AppliesPlanInPlace)
{
    Profile profile = capture_router_profile();

    MachineConfig machine;
    machine.freq_ghz = 2.3;
    Engine engine(machine, router_config(), opts_source_all(),
                  default_campus_trace());
    MillReport rep = PacketMill::grind(engine, &profile);
    EXPECT_TRUE(rep.profile_guided);
    // The router's classifier lists ARP before IP while the traffic
    // is ~all IP, so at least that order is rewritten.
    EXPECT_GE(rep.rules_reordered, 1u);

    auto *cls = dynamic_cast<Classifier *>(engine.pipeline().find("class"));
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->match_order(), (std::vector<std::uint32_t>{1, 0}));
}

TEST(GrindWithProfile, AppliesThePlannedBurstToEveryCore)
{
    Profile profile = synthetic_profile();
    profile.burst_hist.assign(33, 0);
    profile.burst_hist[4] = 500;  // polls never fill a burst of 8
    profile.burst_hist[5] = 500;

    MachineConfig machine;
    machine.num_cores = 2;
    Engine engine(machine, router_config(32), opts_source_all(),
                  default_campus_trace());
    const MillReport rep = PacketMill::grind(engine, &profile);
    EXPECT_EQ(rep.plan.burst, 8u);
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
        EXPECT_EQ(engine.rx_burst(c), 8u) << "core " << c;

    // A capture reads the burst the engine polls with, not a default.
    const Profile next = capture_profile(engine, short_run());
    EXPECT_EQ(next.burst, 8u);
}

// The plan shrinks the burst the engine runs, whatever burst the
// profile was captured at: a capture at 32 whose polls hold at most 5
// packets plans 8, which a config written with BURST 4 must not be
// raised to.
TEST(GrindWithProfile, PlanNeverRaisesTheConfiguredBurst)
{
    Profile profile = synthetic_profile();
    profile.burst_hist.assign(33, 0);
    profile.burst_hist[4] = 500;
    profile.burst_hist[5] = 500;

    MachineConfig machine;
    machine.num_cores = 2;
    Engine engine(machine, router_config(4), opts_source_all(),
                  default_campus_trace());
    const MillReport rep = PacketMill::grind(engine, &profile);
    EXPECT_EQ(rep.plan.burst, 0u);
    for (const std::string &r : rep.plan.rationale)
        EXPECT_EQ(r.find("burst"), std::string::npos) << r;
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
        EXPECT_EQ(engine.rx_burst(c), 4u) << "core " << c;
}

TEST(GrindWithProfile, RefusedOrdersAreDroppedFromTheReportedPlan)
{
    // A catch-all classifier under mostly-IP traffic: the hot-first
    // search wants '-' ahead of ARP, which Classifier must refuse at
    // grind time. The reported plan has to reflect that refusal.
    const std::string cfg =
        "in :: FromDPDKDevice(PORT 0, BURST 32);\n"
        "out :: ToDPDKDevice(PORT 0);\n"
        "c :: Classifier(ARP, -);\n"
        "in -> c;\n"
        "c [0] -> Discard;\n"
        "c [1] -> out;\n";

    Profile profile;
    profile.freq_ghz = 2.3;
    profile.burst = 32;
    profile.model = "Copying";
    ProfileElement pe;
    pe.name = "c";
    pe.class_name = "Classifier";
    pe.packets = 105;
    pe.rule_hits = {5, 100};  // the catch-all dominates
    profile.elements = {pe};

    MachineConfig machine;
    machine.freq_ghz = 2.3;
    Engine engine(machine, cfg, opts_source_all(),
                  default_campus_trace());
    const MillReport rep = PacketMill::grind(engine, &profile);

    EXPECT_TRUE(rep.profile_guided);
    EXPECT_EQ(rep.rules_reordered, 0u);
    EXPECT_TRUE(rep.plan.rule_orders.empty());
    ASSERT_EQ(rep.plan.rationale.size(), 1u);
    EXPECT_NE(rep.plan.rationale[0].find("refused at grind time"),
              std::string::npos)
        << rep.plan.rationale[0];

    auto *cls = dynamic_cast<Classifier *>(engine.pipeline().find("c"));
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->match_order(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(GrindWithProfile, RuleCountIsPerElementNotPerCore)
{
    Profile profile = capture_router_profile();

    auto grind_on = [&](std::uint32_t cores) {
        MachineConfig machine;
        machine.freq_ghz = 2.3;
        machine.num_cores = cores;
        Engine engine(machine, router_config(), opts_source_all(),
                      default_campus_trace());
        return PacketMill::grind(engine, &profile);
    };
    const MillReport one = grind_on(1);
    const MillReport four = grind_on(4);
    // "Elements with a new order" must not scale with the core count,
    // and must agree with the surviving plan decisions.
    EXPECT_EQ(one.rules_reordered, four.rules_reordered);
    EXPECT_EQ(four.rules_reordered,
              static_cast<std::uint32_t>(four.plan.rule_orders.size()));
    EXPECT_GE(one.rules_reordered, 1u);
}

TEST(VerifyPlan, RouterPlanIsSemanticsPreserving)
{
    Profile profile = capture_router_profile();
    EquivalenceReport rep = verify_plan(router_config(), opts_source_all(),
                                        profile, default_campus_trace(),
                                        500.0);
    EXPECT_TRUE(rep.equivalent) << rep.to_string();
    EXPECT_GT(rep.frames_a, 0u);
}

} // namespace
} // namespace pmill
