/**
 * @file
 * Tests for the differential equivalence verifier (§5's verification
 * stage) and the classifier hit counters that profile-guided grinding
 * reads: every PacketMill optimization must be semantics-preserving,
 * and the verifier must be able to tell when two builds are NOT
 * equivalent.
 */

#include <gtest/gtest.h>

#include "src/mill/verify.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

TEST(Verify, VanillaEqualsItself)
{
    Trace t = make_fixed_size_trace(256, 256, 32);
    EquivalenceReport r = verify_equivalence(
        forwarder_config(), opts_vanilla(), opts_vanilla(), t, 400.0);
    EXPECT_TRUE(r.equivalent) << r.to_string();
    EXPECT_GT(r.frames_a, 100u);
    EXPECT_EQ(r.frames_a, r.frames_b);
}

TEST(Verify, PacketMillPreservesForwarderSemantics)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    EquivalenceReport r = verify_equivalence(
        forwarder_config(), opts_vanilla(), opts_packetmill(), t, 400.0);
    EXPECT_TRUE(r.equivalent) << r.to_string();
}

TEST(Verify, PacketMillPreservesRouterSemantics)
{
    Trace t = make_campus_trace({512, 128, 5});
    EquivalenceReport r = verify_equivalence(
        router_config(), opts_vanilla(), opts_packetmill(), t, 500.0);
    EXPECT_TRUE(r.equivalent) << r.to_string();
}

TEST(Verify, ReorderingPreservesRouterSemantics)
{
    Trace t = make_campus_trace({512, 128, 9});
    EquivalenceReport r = verify_equivalence(
        router_config(), opts_vanilla(), opts_lto_reorder(), t, 500.0);
    EXPECT_TRUE(r.equivalent) << r.to_string();
}

TEST(Verify, AllMetadataModelsAgreeOnNat)
{
    Trace t = make_campus_trace({512, 64, 2, 0.12, 0.0, 0.0});
    for (MetadataModel m :
         {MetadataModel::kOverlaying, MetadataModel::kXchange}) {
        EquivalenceReport r = verify_equivalence(
            nat_config(), opts_model(MetadataModel::kCopying),
            opts_model(m), t, 500.0);
        EXPECT_TRUE(r.equivalent)
            << metadata_model_name(m) << ": " << r.to_string();
    }
}

TEST(Verify, DetectsDifferentNfs)
{
    // A forwarder (mirrors MACs) and a router (decrements TTL,
    // rewrites MACs to fixed values) transform packets differently;
    // the cross-config verifier must flag that.
    Trace t = make_fixed_size_trace(256, 128, 16);
    EquivalenceReport r =
        verify_equivalence(forwarder_config(), opts_vanilla(),
                           router_config(), opts_vanilla(), t, 400.0);
    EXPECT_FALSE(r.equivalent);
    EXPECT_GT(r.mismatches, 0u);
    EXPECT_FALSE(r.detail.empty());
}

TEST(Pgo, HitCountersTrackTraffic)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 256;
    cfg.frac_arp = 0.3;  // ARP-heavy
    Trace t = make_campus_trace(cfg);
    MachineConfig m;
    Engine engine(m, router_config(), opts_vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 10;
    rc.warmup_us = 50;
    rc.duration_us = 200;
    engine.run(rc);
    const Element *cl = engine.pipeline().find_class("Classifier");
    ASSERT_NE(cl, nullptr);
    const std::vector<std::uint64_t> hits = cl->rule_hits();
    ASSERT_EQ(hits.size(), 2u);  // ARP, IP patterns
    EXPECT_GT(hits[0], 0u) << "ARP hits recorded";
    EXPECT_GT(hits[1], 0u) << "IP hits recorded";
    EXPECT_GT(hits[1], hits[0] * 2) << "IP still dominates at 30% ARP";
}

} // namespace
} // namespace pmill
