/**
 * @file
 * Determinism gate for the epoch scheduler (parallel host execution).
 *
 * The contract under test: the simulated results are bit-identical
 * for EVERY host thread count — 1 worker and N workers produce the
 * same frames, the same cache/TLB counters, the same latency
 * percentiles, the same timeline rows, and the same cycle-accounting
 * ledgers. As in
 * test_bitexact.cc the floating-point comparisons use EXPECT_EQ
 * deliberately: the schedule is deterministic IEEE arithmetic in a
 * fixed order, so any deviation is a semantic race, not noise.
 *
 * The same contract holds for every epoch up to the run's lookahead
 * (EpochEdge.*): TX completions and steering handoffs fall due at
 * modeled times, at least one lookahead after their cause. Edge
 * cases ride along: arrivals landing exactly on an epoch edge, edges
 * that collide (warm-up/sampler boundaries on the epoch grid dedupe
 * rather than creating zero-length epochs), an epoch above the
 * lookahead (refused), and a zero-length warm-up.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/pmill.hh"

namespace pmill {
namespace {

/** Everything a run produces that the gate compares bit-for-bit. */
struct Snap {
    RunResult r;
    Timeline tl;
    long long acct_sum = 0;
    long long acct_resid = 0;
    long long acct_total = 0;
};

Snap
snapshot(Engine &engine, const RunConfig &rc)
{
    Snap s;
    s.r = engine.run(rc);
    s.tl = engine.timeline();
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown()) {
        s.acct_sum += static_cast<long long>(cb.delta.sum_minus_total());
        s.acct_resid += static_cast<long long>(cb.residual);
        s.acct_total += static_cast<long long>(cb.delta.total);
    }
    return s;
}

void
expect_bitexact(const Snap &a, const Snap &b)
{
    EXPECT_EQ(a.r.tx_pkts, b.r.tx_pkts);
    EXPECT_EQ(a.r.rx_drops, b.r.rx_drops);
    EXPECT_EQ(a.r.throughput_gbps, b.r.throughput_gbps);
    EXPECT_EQ(a.r.goodput_gbps, b.r.goodput_gbps);
    EXPECT_EQ(a.r.mpps, b.r.mpps);
    EXPECT_EQ(a.r.mean_latency_us, b.r.mean_latency_us);
    EXPECT_EQ(a.r.median_latency_us, b.r.median_latency_us);
    EXPECT_EQ(a.r.p99_latency_us, b.r.p99_latency_us);
    EXPECT_EQ(a.r.mem.loads, b.r.mem.loads);
    EXPECT_EQ(a.r.mem.stores, b.r.mem.stores);
    EXPECT_EQ(a.r.mem.llc_loads(), b.r.mem.llc_loads());
    EXPECT_EQ(a.r.mem.llc_load_misses, b.r.mem.llc_load_misses);
    EXPECT_EQ(a.r.mem.llc_store_misses, b.r.mem.llc_store_misses);
    EXPECT_EQ(a.r.mem.tlb_misses, b.r.mem.tlb_misses);
    EXPECT_EQ(a.r.mem.dev_reads, b.r.mem.dev_reads);
    EXPECT_EQ(a.r.mem.dev_writes, b.r.mem.dev_writes);
    EXPECT_EQ(a.r.exec.compute_cycles, b.r.exec.compute_cycles);
    EXPECT_EQ(a.r.exec.access_cycles, b.r.exec.access_cycles);
    EXPECT_EQ(a.r.exec.wall_ns, b.r.exec.wall_ns);
    EXPECT_EQ(a.r.exec.instructions, b.r.exec.instructions);
    EXPECT_EQ(a.r.exec.accesses, b.r.exec.accesses);
    EXPECT_EQ(a.r.ipc, b.r.ipc);

    EXPECT_EQ(a.acct_sum, b.acct_sum);
    EXPECT_EQ(a.acct_resid, b.acct_resid);
    EXPECT_EQ(a.acct_total, b.acct_total);

    ASSERT_EQ(a.tl.columns, b.tl.columns);
    ASSERT_EQ(a.tl.rows.size(), b.tl.rows.size());
    for (std::size_t i = 0; i < a.tl.rows.size(); ++i) {
        EXPECT_EQ(a.tl.rows[i].t_us, b.tl.rows[i].t_us);
        EXPECT_EQ(a.tl.rows[i].dt_us, b.tl.rows[i].dt_us);
        EXPECT_EQ(a.tl.rows[i].partial, b.tl.rows[i].partial);
        ASSERT_EQ(a.tl.rows[i].values.size(), b.tl.rows[i].values.size());
        for (std::size_t j = 0; j < a.tl.rows[i].values.size(); ++j)
            EXPECT_EQ(a.tl.rows[i].values[j], b.tl.rows[i].values[j])
                << "timeline row " << i << " col " << a.tl.columns[j];
    }
}

RunConfig
base_rc(std::uint32_t threads, double epoch_us)
{
    RunConfig rc;
    rc.warmup_us = 300.0;
    rc.duration_us = 900.0;
    rc.sample_interval_us = 100.0;
    rc.host_threads = threads;
    rc.epoch_us = epoch_us;
    return rc;
}

Snap
run_router_campus(std::uint32_t threads, const RunConfig &rc_in)
{
    MachineConfig m;
    m.num_cores = 4;
    Engine engine(m, router_config(), opts_packetmill(),
                  default_campus_trace());
    RunConfig rc = rc_in;
    rc.offered_gbps = 70.0;
    rc.host_threads = threads;
    return snapshot(engine, rc);
}

Snap
run_nat_zipf(std::uint32_t threads, const RunConfig &rc_in)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_TRUE(spec.parse("zipf:flows=65536,skew=1.1,burst=8", &err))
        << err;
    MachineConfig m;
    m.num_cores = 4;
    Engine engine(m, nat_aging_config(32, 16384, 1.0), opts_packetmill(),
                  spec);
    PacketMill::grind(engine);
    RunConfig rc = rc_in;
    rc.offered_gbps = 12.0;
    rc.host_threads = threads;
    return snapshot(engine, rc);
}

TEST(Parallel, RouterCampusThreadInvariant)
{
    const RunConfig rc = base_rc(1, 1.0);
    const Snap t1 = run_router_campus(1, rc);
    const Snap t2 = run_router_campus(2, rc);
    const Snap t4 = run_router_campus(4, rc);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t2);
    expect_bitexact(t1, t4);
}

TEST(Parallel, NatZipfThreadInvariant)
{
    const RunConfig rc = base_rc(1, 1.0);
    const Snap t1 = run_nat_zipf(1, rc);
    const Snap t3 = run_nat_zipf(3, rc);
    const Snap t4 = run_nat_zipf(4, rc);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t3);
    expect_bitexact(t1, t4);
}

// Fixed 60-B frames at 84 Gbps: the generator gap is exactly
// (60+24)*8/84 = 8 ns, and with epoch_us = 0.008 every arrival lands
// exactly on an epoch edge. The `start < T1` convention must put each
// edge arrival in the NEXT epoch identically for every thread count.
TEST(EpochEdge, ArrivalsExactlyOnEdges)
{
    auto run_one = [](std::uint32_t threads) {
        MachineConfig m;
        m.num_cores = 4;
        Engine engine(m, router_config(), opts_packetmill(),
                      make_fixed_size_trace(60, 2048, 512));
        RunConfig rc;
        rc.offered_gbps = 84.0;
        rc.warmup_us = 100.0;
        rc.duration_us = 300.0;
        rc.sample_interval_us = 100.0;
        rc.host_threads = threads;
        rc.epoch_us = 0.008;
        return snapshot(engine, rc);
    };
    const Snap t1 = run_one(1);
    const Snap t4 = run_one(4);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t4);
}

// TX completions take effect kTxCompletionLatencyNs after departure,
// on the owning core, so the drain cadence does not shape the
// results: the BitExact 4-core router gives the same snapshot at the
// default epoch (the lookahead, kTxCompletionLatencyNs) and at the
// lookahead, 1 and 0.1 us, carries the offered 70 Gbps, and keeps p99
// near the unloaded latency.
TEST(EpochEdge, DrainCadenceDoesNotShapeResults)
{
    auto run_one = [](double epoch_us) {
        MachineConfig m;
        m.num_cores = 4;
        Engine engine(m, router_config(), PipelineOpts::vanilla(),
                      make_fixed_size_trace(512, 2048, 512));
        EXPECT_EQ(engine.lookahead_ns(), kTxCompletionLatencyNs);
        RunConfig rc;
        rc.offered_gbps = 70.0;
        rc.warmup_us = 500;
        rc.duration_us = 2000;
        rc.sample_interval_us = 100;
        rc.host_threads = 1;
        rc.epoch_us = epoch_us;
        return snapshot(engine, rc);
    };
    const Snap lookahead = run_one(0.0);
    EXPECT_GT(lookahead.r.tx_pkts, 0u);
    EXPECT_GE(lookahead.r.throughput_gbps, 69.9);
    EXPECT_LT(lookahead.r.p99_latency_us, 2.0);
    for (double epoch_us : {kTxCompletionLatencyNs / 1000.0, 1.0, 0.1}) {
        SCOPED_TRACE(epoch_us);
        expect_bitexact(lookahead, run_one(epoch_us));
    }
}

// The lookahead bounds the epoch: with a FlowSteer element it is the
// 1-us handoff latency, otherwise the completion latency. A longer
// epoch could hand a core an effect it should already have applied,
// so run() refuses it.
TEST(EpochEdge, EpochAboveTheLookaheadIsRefused)
{
    auto run_one = [](const std::string &config, double epoch_us) {
        MachineConfig m;
        m.num_cores = 2;
        Engine engine(m, config, opts_packetmill(), default_campus_trace());
        RunConfig rc;
        rc.warmup_us = 10.0;
        rc.duration_us = 10.0;
        rc.epoch_us = epoch_us;
        engine.run(rc);
    };
    EXPECT_DEATH(run_one(router_config(),
                         kTxCompletionLatencyNs / 1000.0 + 0.001),
                 "lookahead");
    EXPECT_DEATH(run_one(router_config(), 1e6), "lookahead");
    EXPECT_DEATH(run_one(steered_router_config(), 1.5), "lookahead");
    EXPECT_DEATH(run_one(router_config(), -1.0), "lookahead");
}

// Steered handoffs land on the destination core at staging time + the
// 1-us fabric latency, so the steered 8-core router with a
// reprogrammed table (about half the buckets hand off) gives one
// snapshot at every epoch up to that lookahead.
TEST(EpochEdge, SteeredHandoffsDoNotDependOnTheEpoch)
{
    auto run_one = [](double epoch_us, SteerStats *st) {
        WorkloadSpec spec;
        std::string err;
        EXPECT_TRUE(spec.parse("zipf:flows=100000,skew=1.1,burst=8", &err))
            << err;
        MachineConfig m;
        m.num_cores = 8;
        Engine engine(m, steered_router_config(), opts_packetmill(), spec);
        EXPECT_EQ(engine.lookahead_ns(), 1000.0);
        const std::uint32_t tsize = engine.rss_table_size();
        for (std::uint32_t i = 0; i < tsize; i += 2)
            engine.set_rss_table_entry(i, (engine.rss_table_entry(i) + 3) %
                                              engine.num_cores());
        RunConfig rc = base_rc(1, epoch_us);
        rc.offered_gbps = 30.0;
        Snap s = snapshot(engine, rc);
        *st = engine.steering()->stats();
        return s;
    };
    SteerStats st1, st;
    const Snap coarse = run_one(0.0, &st1);
    EXPECT_GT(coarse.r.tx_pkts, 0u);
    EXPECT_GT(st1.delivered, 0u);
    for (double epoch_us : {1.0, 0.5, 0.1}) {
        SCOPED_TRACE(epoch_us);
        expect_bitexact(coarse, run_one(epoch_us, &st));
        EXPECT_EQ(st.steered, st1.steered);
        EXPECT_EQ(st.delivered, st1.delivered);
        EXPECT_EQ(st.in_flight, st1.in_flight);
    }
}

// Parking holds a payload's ticket until its TX completion takes
// effect, so the park arena's LIFO slot sequence follows completion
// times: 1024-B frames park every payload, and the snapshot is the
// same at every epoch up to the lookahead.
TEST(EpochEdge, ParkingDoesNotDependOnTheEpoch)
{
    auto run_one = [](double epoch_us) {
        MachineConfig m;
        m.num_cores = 2;
        Engine engine(m, router_config(),
                      opts_model(MetadataModel::kParking),
                      make_fixed_size_trace(1024, 512, 64));
        RunConfig rc = base_rc(1, epoch_us);
        rc.offered_gbps = 90.0;
        return snapshot(engine, rc);
    };
    const Snap coarse = run_one(kTxCompletionLatencyNs / 1000.0);
    EXPECT_GT(coarse.r.tx_pkts, 0u);
    EXPECT_GT(coarse.r.mem.park_fills, 0u);
    for (double epoch_us : {0.0, 1.0, 0.1}) {
        SCOPED_TRACE(epoch_us);
        expect_bitexact(coarse, run_one(epoch_us));
    }
}

// At one instant a core applies its TX completion before its arrival
// (and a handoff between them): the completion frees a TX slot, a
// buffer or a park slot that the arrival may take.
TEST(EpochEdge, CompletionBeforeArrivalAtTheSameInstant)
{
    constexpr TimeNs inf = std::numeric_limits<double>::infinity();
    TimeNs due = 0;
    EXPECT_EQ(inbox_next(500.0, inf, 500.0, &due), InboxKind::kCompletion);
    EXPECT_EQ(due, 500.0);
    EXPECT_EQ(inbox_next(500.0, 500.0, 500.0, &due), InboxKind::kCompletion);
    EXPECT_EQ(inbox_next(inf, 500.0, 500.0, &due), InboxKind::kHandoff);
    EXPECT_EQ(inbox_next(500.5, inf, 500.0, &due), InboxKind::kArrival);
    EXPECT_EQ(due, 500.0);
    EXPECT_EQ(inbox_next(400.0, 300.0, 500.0, &due), InboxKind::kHandoff);
    EXPECT_EQ(due, 300.0);
    inbox_next(inf, inf, inf, &due);
    EXPECT_EQ(due, inf);
}

// Warm-up end exactly on the epoch grid (300 us on a 1-us grid) is
// the default above; here the misaligned case — warm-up and duration
// that land between epoch multiples — must dedupe/insert edges
// identically for every thread count.
TEST(EpochEdge, MisalignedWarmupAndDuration)
{
    RunConfig rc = base_rc(1, 1.0);
    rc.warmup_us = 333.25;
    rc.duration_us = 777.5;
    const Snap t1 = run_router_campus(1, rc);
    const Snap t4 = run_router_campus(4, rc);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t4);
}

// Zero warm-up: the measured window opens at t = 0, before the first
// epoch runs.
TEST(EpochEdge, ZeroWarmup)
{
    RunConfig rc = base_rc(1, 1.0);
    rc.warmup_us = 0.0;
    const Snap t1 = run_router_campus(1, rc);
    const Snap t4 = run_router_campus(4, rc);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t4);
}

// Tracing forces one worker (with a warning); results still must not
// depend on the requested thread count.
TEST(EpochEdge, TracingSerializesButStaysDeterministic)
{
    auto run_one = [](std::uint32_t threads) {
        MachineConfig m;
        m.num_cores = 4;
        Engine engine(m, router_config(), opts_packetmill(),
                      default_campus_trace());
        engine.enable_tracing();
        RunConfig rc;
        rc.offered_gbps = 70.0;
        rc.warmup_us = 200.0;
        rc.duration_us = 400.0;
        rc.host_threads = threads;
        rc.epoch_us = 1.0;
        return snapshot(engine, rc);
    };
    const Snap t1 = run_one(1);
    const Snap t4 = run_one(4);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t4);
}

// The generalized topology grid: every core polls its queue on EVERY
// NIC, and the epoch pregenerator merges the per-NIC arrival streams
// by emission time (lowest NIC index on ties). Multi-NIC multicore
// runs must be thread-invariant like the single-NIC ones.
TEST(Parallel, MultiNicGridThreadInvariant)
{
    auto run_one = [](std::uint32_t threads) {
        MachineConfig m;
        m.num_cores = 4;
        m.num_nics = 2;
        Engine engine(m, router_config(), opts_packetmill(),
                      default_campus_trace());
        RunConfig rc;
        rc.offered_gbps = 60.0;
        rc.warmup_us = 200.0;
        rc.duration_us = 600.0;
        rc.sample_interval_us = 100.0;
        rc.host_threads = threads;
        rc.epoch_us = 1.0;
        return snapshot(engine, rc);
    };
    const Snap t1 = run_one(1);
    const Snap t2 = run_one(2);
    const Snap t4 = run_one(4);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t2);
    expect_bitexact(t1, t4);
}

// The parking model threads one more piece of shared-looking state
// through the epoch scheduler — the per-queue parked-payload arena —
// and its LIFO ticket allocation is part of the simulated address
// stream. A hostile million-flow run that parks every payload must
// stay bit-identical for every worker count.
Snap
run_parking_flows(std::uint32_t threads, const std::string &config,
                  const RunConfig &rc_in, bool reprogram = false)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_TRUE(spec.parse("uniform:flows=1000000,len=700,seed=5", &err))
        << err;
    MachineConfig m;
    m.num_cores = 8;
    Engine engine(m, config, opts_model(MetadataModel::kParking), spec);
    PacketMill::grind(engine);
    if (reprogram) {
        // Desynchronize the steering fabric from the NIC's modulo
        // mapping so roughly half the buckets hand off.
        const std::uint32_t tsize = engine.rss_table_size();
        EXPECT_GT(tsize, 0u);
        for (std::uint32_t i = 0; i < tsize; i += 2)
            engine.set_rss_table_entry(i, (engine.rss_table_entry(i) + 3) %
                                              engine.num_cores());
    }
    RunConfig rc = rc_in;
    rc.offered_gbps = 24.0;
    rc.host_threads = threads;
    return snapshot(engine, rc);
}

TEST(Parallel, ParkingMillionFlowThreadInvariant)
{
    const RunConfig rc = base_rc(1, 1.0);
    const Snap t1 = run_parking_flows(1, router_config(), rc);
    const Snap t2 = run_parking_flows(2, router_config(), rc);
    const Snap t4 = run_parking_flows(4, router_config(), rc);
    const Snap t8 = run_parking_flows(8, router_config(), rc);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    EXPECT_GT(t1.r.mem.park_fills, 0u);
    expect_bitexact(t1, t2);
    expect_bitexact(t1, t4);
    expect_bitexact(t1, t8);
}

// Steered variant: FlowSteer hands frames between cores, which for
// parking means a gather out of the source arena, a drop-path ticket
// release, and a re-park on the destination — all inside the epoch
// scheduler's effect-replay machinery. The timeline's park_* columns
// make the drop-path release observable (handoffs count as drops on
// the source queue's arena).
TEST(Steering, ParkingSteeredThreadInvariant)
{
    const RunConfig rc = base_rc(1, 1.0);
    const Snap t1 = run_parking_flows(1, steered_router_config(), rc, true);
    const Snap t4 = run_parking_flows(4, steered_router_config(), rc, true);
    const Snap t8 = run_parking_flows(8, steered_router_config(), rc, true);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    EXPECT_GT(t1.r.mem.park_fills, 0u);
    expect_bitexact(t1, t4);
    expect_bitexact(t1, t8);

    double dropped = 0;
    for (std::size_t j = 0; j < t1.tl.columns.size(); ++j)
        if (t1.tl.columns[j] == "park_dropped")
            for (const auto &row : t1.tl.rows)
                dropped += row.values[j];
    EXPECT_GT(dropped, 0.0) << "steering never exercised the "
                               "drop-path ticket release";
}

// host_threads 0 and 1 are the same schedule: every core on the
// calling thread.
TEST(Parallel, ZeroAndOneHostThreadsAgreeOnOneCore)
{
    auto run_one = [](std::uint32_t threads) {
        MachineConfig m;
        Engine engine(m, router_config(), opts_packetmill(),
                      default_campus_trace());
        RunConfig rc;
        rc.offered_gbps = 70.0;
        rc.warmup_us = 200.0;
        rc.duration_us = 400.0;
        rc.host_threads = threads;
        return snapshot(engine, rc);
    };
    const Snap zero = run_one(0);
    const Snap one = run_one(1);
    EXPECT_GT(zero.r.tx_pkts, 0u);
    expect_bitexact(zero, one);
}

TEST(ParallelValidation, MoreThreadsThanCoresDies)
{
    MachineConfig m;
    m.num_cores = 2;
    Engine engine(m, router_config(), opts_packetmill(),
                  default_campus_trace());
    RunConfig rc;
    rc.warmup_us = 10.0;
    rc.duration_us = 10.0;
    rc.host_threads = 3;
    EXPECT_DEATH(engine.run(rc), "host_threads");
}

} // namespace
} // namespace pmill
