/**
 * @file
 * Engine-level unit tests: run configuration details (generator
 * cutoff, TX capture, measurement windows), result bookkeeping, and
 * topology validation.
 */

#include <gtest/gtest.h>

#include "src/net/packet_builder.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

TEST(EngineRun, GeneratorStopDrainsEverything)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    m.freq_ghz = 3.0;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    RunConfig rc;
    rc.offered_gbps = 5.0;
    rc.warmup_us = 0;
    rc.duration_us = 400;
    rc.generator_stop_us = 300;
    engine.run(rc);

    const auto &s = engine.nic().stats();
    EXPECT_EQ(s.tx_frames, s.rx_frames)
        << "after the generator stops, the DUT must drain completely";
    EXPECT_GT(s.tx_frames, 100u);
}

// FromDPDKDevice(BURST n) is the burst every core polls with: the
// engine reports it, the timeline's rx_burst column carries it, and no
// poll of the overloaded forwarder returns more.
TEST(EngineRun, ConfigBurstIsThePolledBurst)
{
    Trace t = make_fixed_size_trace(64, 256, 32);
    MachineConfig m;
    m.num_cores = 2;
    Engine engine(m, forwarder_config(8), PipelineOpts::vanilla(), t);
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
        EXPECT_EQ(engine.rx_burst(c), 8u) << "core " << c;
    engine.enable_tracing();

    RunConfig rc;
    rc.warmup_us = 100;
    rc.duration_us = 300;
    rc.sample_interval_us = 50;
    const RunResult r = engine.run(rc);
    EXPECT_GT(r.rx_drops, 0u) << "the polls must be able to fill";

    const Timeline &tl = engine.timeline();
    ASSERT_FALSE(tl.empty());
    for (std::size_t i = 0; i < tl.rows.size(); ++i)
        EXPECT_EQ(tl.value(i, "rx_burst"), 8.0) << "row " << i;

    const std::vector<std::uint64_t> hist =
        burst_occupancy_histogram(*engine.tracer(), kMaxBurst);
    EXPECT_GT(hist[8], 0u);
    for (std::size_t b = 9; b < hist.size(); ++b)
        EXPECT_EQ(hist[b], 0u) << "a poll returned " << b << " packets";
}

TEST(EngineRun, TxCaptureSeesTransformedFrames)
{
    Trace t = make_fixed_size_trace(256, 128, 8);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    // The forwarder mirrors MACs: captured frames must have the
    // original src/dst swapped relative to the trace.
    const FiveTuple expect_tuple = extract_tuple(t.data(0), t.len(0));
    std::uint64_t captured = 0;
    bool swapped_ok = true;
    engine.set_tx_capture([&](const std::uint8_t *data, std::uint32_t len) {
        ++captured;
        FrameView v = parse_frame(const_cast<std::uint8_t *>(data), len);
        if (!v.eth)
            swapped_ok = false;
        (void)expect_tuple;
    });
    RunConfig rc;
    rc.offered_gbps = 5.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    engine.run(rc);
    EXPECT_GT(captured, 50u);
    EXPECT_TRUE(swapped_ok);
}

// A TX slot is held from post until its completion takes effect
// kTxCompletionLatencyNs after departure, so at 100 Gbps of 1024-B
// frames (about 12 frames per us, dozens within that latency) an
// 8-slot TX ring overflows: the X-Change driver drops what does not
// fit at post time, the device counts it, and the driver must release
// those frames' parked payloads. run() hard-asserts ticket
// conservation; the same run on the default ring drops nothing, so the
// drops are the overflow's.
TEST(EngineRun, ParkingTxRingOverflowReleasesTickets)
{
    auto run = [](std::uint32_t tx_ring_size, RunResult *r) {
        MachineConfig m;
        m.nic.tx_ring_size = tx_ring_size;
        Engine engine(m, router_config(), opts_model(MetadataModel::kParking),
                      make_fixed_size_trace(1024, 256, 32));
        RunConfig rc;
        rc.offered_gbps = 100.0;
        rc.warmup_us = 100;
        rc.duration_us = 300;
        rc.sample_interval_us = 50;
        *r = engine.run(rc);
        EXPECT_LT(r->tx_pkts, engine.nic().stats().rx_frames);
        const Timeline &tl = engine.timeline();
        double dropped = 0;
        for (std::size_t i = 0; i < tl.rows.size(); ++i)
            dropped += tl.value(i, "park_dropped");
        return dropped;
    };
    RunResult overflow, roomy;
    EXPECT_GT(run(8, &overflow), 0.0);
    EXPECT_EQ(run(NicConfig{}.tx_ring_size, &roomy), 0.0);
    EXPECT_LT(overflow.tx_pkts, roomy.tx_pkts);
    EXPECT_GT(overflow.tx_drops, 0u);
    EXPECT_EQ(roomy.tx_drops, 0u);
}

TEST(EngineRun, ResultFieldsAreConsistent)
{
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    m.freq_ghz = 2.0;
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 200;
    rc.duration_us = 500;
    RunResult r = run_experiment(m, forwarder_config(),
                                 PipelineOpts::vanilla(), t, rc);
    // Wire rate strictly exceeds goodput (framing overhead).
    EXPECT_GT(r.throughput_gbps, r.goodput_gbps);
    // Mpps consistent with goodput at 1024-B frames.
    EXPECT_NEAR(r.goodput_gbps, r.mpps * 1024 * 8 / 1000.0,
                r.goodput_gbps * 0.02);
    EXPECT_GT(r.duration_ns, 0.0);
    EXPECT_GT(r.exec.instructions, 0.0);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(EngineRun, MultiNicMulticoreGrid)
{
    // 2 NICs x 2 cores: every NIC fans out over one queue per core,
    // so each core polls its queue on both devices and the engine
    // forwards traffic from both generators.
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    m.num_cores = 2;
    m.num_nics = 2;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    EXPECT_EQ(engine.num_cores(), 2u);
    RunConfig rc;
    rc.offered_gbps = 20.0;
    rc.warmup_us = 50.0;
    rc.duration_us = 200.0;
    rc.sample_interval_us = 0.0;
    RunResult r = engine.run(rc);
    EXPECT_GT(r.tx_pkts, 0u);
    EXPECT_GT(r.throughput_gbps, 0.0);
}

TEST(EngineRun, RejectsInvalidTopology)
{
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    m.num_cores = 2;
    m.num_sockets = 4;  // more sockets than cores is meaningless
    EXPECT_DEATH(
        {
            Engine engine(m, forwarder_config(), PipelineOpts::vanilla(),
                          t);
        },
        "num_sockets");
}

TEST(EngineRun, EmptyTraceRejected)
{
    Trace empty;
    MachineConfig m;
    EXPECT_DEATH(
        {
            Engine engine(m, forwarder_config(), PipelineOpts::vanilla(),
                          empty);
        },
        "nonempty");
}

TEST(EngineRun, PerNicOfferedLoadIsIndependent)
{
    // Two NICs at 40 G each: total TX should be ~80 G.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    m.freq_ghz = 3.0;
    m.num_nics = 2;
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 200;
    rc.duration_us = 500;
    RunResult r = run_experiment(m, forwarder_config(),
                                 PipelineOpts::packetmill(), t, rc);
    EXPECT_NEAR(r.throughput_gbps, 80.0, 4.0);
}

TEST(EngineRun, WorkPackageWarmupEstablishesResidency)
{
    // With warm_caches, a small scratch region should show ~zero LLC
    // misses from the very start of measurement.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    RunConfig rc;
    rc.offered_gbps = 50.0;
    rc.warmup_us = 100;  // deliberately short
    rc.duration_us = 300;
    RunResult r = run_experiment(m, workpackage_config(2, 1, 0),
                                 PipelineOpts::packetmill(), t, rc);
    EXPECT_LT(static_cast<double>(r.mem.llc_load_misses) /
                  static_cast<double>(r.tx_pkts),
              0.05);
}

TEST(EngineRun, AccessorBoundsAreChecked)
{
    // A 1-core / 1-NIC engine: any nonzero index is a caller bug and
    // must trip the bounds assert instead of indexing out of range.
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    ASSERT_EQ(engine.num_cores(), 1u);
    EXPECT_DEATH({ (void)engine.pipeline(1); }, "out of range");
    EXPECT_DEATH({ (void)engine.caches(2); }, "out of range");
    EXPECT_DEATH({ (void)engine.nic(3); }, "out of range");
}

TEST(EngineRun, LoadStepRaisesOfferedRate)
{
    // The offered rate must switch at warm_end + load_step_us: the
    // sampled throughput before the step sits near the low rate,
    // after it near the high rate.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::packetmill(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 200;
    rc.duration_us = 1000;
    rc.sample_interval_us = 100;
    rc.load_step_us = 500;
    rc.load_step_gbps = 60.0;
    engine.run(rc);

    const Timeline &tl = engine.timeline();
    ASSERT_GE(tl.rows.size(), 10u);
    double pre = 0, post = 0;
    for (std::size_t i = 0; i < 4; ++i)
        pre += tl.value(i, "throughput_gbps") / 4.0;
    for (std::size_t i = 6; i < 10; ++i)
        post += tl.value(i, "throughput_gbps") / 4.0;
    EXPECT_NEAR(pre, 10.0, 3.0);
    EXPECT_NEAR(post, 60.0, 6.0);
}

// Frame ledger under overload. 64-B frames at 100 G leave most
// arrivals without an RX descriptor, and every generated frame must
// still land on exactly one side of each NIC's ledger: accepted or
// refused. run() hard-asserts this against its own count; these tests
// pin it against counts taken outside the engine.
RunConfig
overload_rc()
{
    RunConfig rc;
    rc.offered_gbps = 100.0;
    rc.warmup_us = 100;
    rc.duration_us = 400;
    rc.sample_interval_us = 0;
    return rc;
}

std::uint64_t
nic_ledger(Engine &engine, std::uint32_t n)
{
    const NicStats s = engine.nic(n).stats();
    EXPECT_GT(s.rx_drops_no_desc, 0u) << "nic" << n << " was not overloaded";
    return s.rx_frames + s.rx_drops_no_desc + s.rx_drops_pcie;
}

TEST(FrameLedger, OverloadedTraceReplayBalances)
{
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::packetmill(),
                  make_fixed_size_trace(64, 1024, 256));
    const RunConfig rc = overload_rc();
    engine.run(rc);

    // The generator's own pacing: a 64-B frame starts every
    // (64 + 24) * 8 / 100 ns, and every frame starting before the run
    // end is emitted.
    const TimeNs end = (rc.warmup_us + rc.duration_us) * 1000.0;
    const double gap = static_cast<double>((64 + kWireOverheadBytes) * 8) /
                       rc.offered_gbps;
    std::uint64_t generated = 0;
    for (TimeNs start = 0; start < end; start += gap)
        ++generated;
    EXPECT_EQ(nic_ledger(engine, 0), generated);
}

TEST(FrameLedger, OverloadedWorkloadBalances)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("uniform:flows=4096,len=64,seed=3", &err)) << err;
    MachineConfig m;
    m.num_cores = 2;
    m.num_nics = 2;
    Engine engine(m, router_config(), PipelineOpts::packetmill(), spec);
    engine.run(overload_rc());
    for (std::uint32_t n = 0; n < 2; ++n)
        EXPECT_EQ(nic_ledger(engine, n), engine.workload(n)->stats().frames)
            << "nic" << n;
}

} // namespace
} // namespace pmill
