/**
 * @file
 * Tests for the many-core scale-out layer: the SteerFabric (shared
 * reprogrammable flow table + per-core handoff rings), the FlowSteer
 * element's engine integration, the NUMA placement model, and the
 * controller-driven mid-run table rewrites.
 *
 * The determinism contract from test_parallel.cc extends to all of
 * it: steered runs, multi-socket runs, and controlled runs with
 * mid-run steering-table rewrites are bit-identical for every host
 * thread count, because shared steering state is written only at
 * serial points and every handoff lands at a modeled time.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/pmill.hh"

namespace pmill {
namespace {

/** Everything a run produces that the gates compare bit-for-bit. */
struct Snap {
    RunResult r;
    Timeline tl;
    SteerStats steer;
    std::string decisions;  ///< controller log (empty when none)
};

Snap
snapshot(Engine &engine, const RunConfig &rc, const Controller *ctl = nullptr)
{
    Snap s;
    s.r = engine.run(rc);
    s.tl = engine.timeline();
    if (const SteerFabric *f = engine.steering())
        s.steer = f->stats();
    if (ctl)
        s.decisions = ctl->log().to_string();
    return s;
}

void
expect_bitexact(const Snap &a, const Snap &b)
{
    EXPECT_EQ(a.r.tx_pkts, b.r.tx_pkts);
    EXPECT_EQ(a.r.rx_drops, b.r.rx_drops);
    EXPECT_EQ(a.r.throughput_gbps, b.r.throughput_gbps);
    EXPECT_EQ(a.r.mpps, b.r.mpps);
    EXPECT_EQ(a.r.mean_latency_us, b.r.mean_latency_us);
    EXPECT_EQ(a.r.p99_latency_us, b.r.p99_latency_us);
    EXPECT_EQ(a.r.mem.loads, b.r.mem.loads);
    EXPECT_EQ(a.r.mem.stores, b.r.mem.stores);
    EXPECT_EQ(a.r.mem.llc_load_misses, b.r.mem.llc_load_misses);
    EXPECT_EQ(a.r.mem.tlb_misses, b.r.mem.tlb_misses);
    EXPECT_EQ(a.r.mem.dev_writes, b.r.mem.dev_writes);
    EXPECT_EQ(a.r.exec.compute_cycles, b.r.exec.compute_cycles);
    EXPECT_EQ(a.r.exec.access_cycles, b.r.exec.access_cycles);
    EXPECT_EQ(a.r.exec.wall_ns, b.r.exec.wall_ns);
    EXPECT_EQ(a.r.exec.instructions, b.r.exec.instructions);

    EXPECT_EQ(a.steer.steered, b.steer.steered);
    EXPECT_EQ(a.steer.passed, b.steer.passed);
    EXPECT_EQ(a.steer.delivered, b.steer.delivered);
    EXPECT_EQ(a.steer.stage_drops, b.steer.stage_drops);
    EXPECT_EQ(a.steer.ring_drops, b.steer.ring_drops);
    EXPECT_EQ(a.steer.in_flight, b.steer.in_flight);

    EXPECT_EQ(a.decisions, b.decisions);

    ASSERT_EQ(a.tl.columns, b.tl.columns);
    ASSERT_EQ(a.tl.rows.size(), b.tl.rows.size());
    for (std::size_t i = 0; i < a.tl.rows.size(); ++i) {
        EXPECT_EQ(a.tl.rows[i].t_us, b.tl.rows[i].t_us);
        ASSERT_EQ(a.tl.rows[i].values.size(), b.tl.rows[i].values.size());
        for (std::size_t j = 0; j < a.tl.rows[i].values.size(); ++j)
            EXPECT_EQ(a.tl.rows[i].values[j], b.tl.rows[i].values[j])
                << "timeline row " << i << " col " << a.tl.columns[j];
    }
}

/// @name SteerFabric unit tests.
/// @{

TEST(SteerFabric, DefaultTableIsModuloForPow2Cores)
{
    SimMemory mem;
    SteerFabric fab(4, 8, 16, 1000.0, mem);
    ASSERT_EQ(fab.table_size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(fab.entry(i), i % 4);
    // Core count divides table size, so target_of == hash % cores:
    // an unprogrammed fabric agrees with the NIC's legacy mapping.
    for (std::uint32_t h : {0u, 1u, 7u, 8u, 13u, 0xdeadbeefu, 0xffffffffu})
        EXPECT_EQ(fab.target_of(h), h % 4);
}

// Each destination lands its handoffs by due time (stage time + the
// fabric latency), ties to the lower source, then in staging order —
// whether the conductor takes the staged handoffs once or between the
// stages, merging them into the destinations' inbox lists as
// Engine::run does. Here source 3 stages late in one epoch and source
// 1 earlier times in the next, the way a core that overshoots an edge
// does.
TEST(SteerFabric, HandoffsLandInDueOrderWhateverTheRouting)
{
    auto frame = [](std::uint8_t tag) {
        return std::vector<std::uint8_t>(64, tag);
    };
    const auto f_a = frame(0xa), f_b = frame(0xb), f_c = frame(0xc),
               f_d = frame(0xd);
    auto run = [&](bool route_between, SteerStats *st) {
        SimMemory mem;
        SteerFabric fab(4, 8, 16, 1000.0, mem);
        std::vector<std::vector<Handoff>> inbox(4);
        auto route = [&] {
            std::vector<std::size_t> first_new(4);
            for (std::size_t c = 0; c < 4; ++c)
                first_new[c] = inbox[c].size();
            fab.take_staged([&](Handoff &&h) {
                inbox[h.dst].push_back(std::move(h));
            });
            for (std::size_t c = 0; c < 4; ++c)
                inbox_merge(inbox[c], first_new[c], handoff_earlier);
        };
        EXPECT_TRUE(fab.stage(3, 0, f_d.data(), 64, 10.0, 450.0));
        EXPECT_TRUE(fab.stage(0, 2, f_c.data(), 64, 20.0, 300.0));
        if (route_between)
            route();
        EXPECT_TRUE(fab.stage(1, 0, f_a.data(), 64, 30.0, 400.0));
        EXPECT_TRUE(fab.stage(1, 0, f_b.data(), 64, 40.0, 450.0));
        route();
        EXPECT_EQ(inbox[2].size(), 1u);
        EXPECT_EQ(inbox[2][0].due_ns, 1300.0);
        std::vector<std::pair<TimeNs, std::uint8_t>> seen;
        for (const Handoff &h : inbox[0]) {
            EXPECT_EQ(h.bytes.size(), 64u);
            seen.emplace_back(h.due_ns, h.bytes[0]);
            fab.note_landing(0, h.bytes[0] != 0xd);  // one ring drop
        }
        *st = fab.stats();
        return seen;
    };
    const std::vector<std::pair<TimeNs, std::uint8_t>> want = {
        {1400.0, 0xa}, {1450.0, 0xb}, {1450.0, 0xd}};
    SteerStats once, twice;
    EXPECT_EQ(run(false, &once), want);
    EXPECT_EQ(run(true, &twice), want);
    for (const SteerStats &s : {once, twice}) {
        EXPECT_EQ(s.steered, 4u);
        EXPECT_EQ(s.delivered, 2u);
        EXPECT_EQ(s.ring_drops, 1u);
        EXPECT_EQ(s.in_flight, 1u);  // 0xc, not landed on core 2
        EXPECT_EQ(s.stage_drops, 0u);
    }
}

// The bound counts handoffs still in flight: a source may have at most
// ring_capacity of them staged for one destination and not yet due.
TEST(SteerFabric, StageDropsAtRingCapacity)
{
    SimMemory mem;
    SteerFabric fab(2, 4, 2, 1000.0, mem);
    const std::vector<std::uint8_t> f(64, 0x5a);
    EXPECT_TRUE(fab.stage(0, 1, f.data(), 64, 0.0, 1.0));
    EXPECT_TRUE(fab.stage(0, 1, f.data(), 64, 0.0, 2.0));
    EXPECT_FALSE(fab.stage(0, 1, f.data(), 64, 0.0, 3.0));
    // Another destination has its own bound.
    EXPECT_TRUE(fab.stage(0, 0, f.data(), 64, 0.0, 3.0));
    // The first handoff lands at 1001 ns, which frees its slot.
    EXPECT_FALSE(fab.stage(0, 1, f.data(), 64, 0.0, 1000.5));
    EXPECT_TRUE(fab.stage(0, 1, f.data(), 64, 0.0, 1001.0));
    const SteerStats s = fab.stats();
    EXPECT_EQ(s.steered, 4u);
    EXPECT_EQ(s.stage_drops, 2u);
    EXPECT_EQ(s.in_flight, 4u);
}

TEST(SteerFabric, EntryLoadShardsSumAndReset)
{
    SimMemory mem;
    SteerFabric fab(4, 8, 16, 1000.0, mem);
    fab.note_entry_load(0, 5);
    fab.note_entry_load(0, 5);
    fab.note_entry_load(2, 5);
    fab.note_entry_load(3, 1);
    EXPECT_EQ(fab.entry_load(5), 3u);
    EXPECT_EQ(fab.entry_load(1), 1u);
    EXPECT_EQ(fab.entry_load(0), 0u);
    fab.reset_entry_loads();
    EXPECT_EQ(fab.entry_load(5), 0u);
    EXPECT_EQ(fab.entry_load(1), 0u);

    fab.set_entry(5, 3);
    EXPECT_EQ(fab.entry(5), 3u);
    EXPECT_EQ(fab.target_of(5), 3u);
}

/// @}
/// @name Engine-level steering tests.
/// @{

// With a power-of-two core count the unprogrammed fabric agrees with
// the NIC's legacy modulo RSS, so FlowSteer passes every packet
// through: the element is live (it consults the table) but no frame
// crosses cores.
TEST(Steering, UnprogrammedFabricSteersNothing)
{
    MachineConfig m;
    m.num_cores = 4;
    Engine engine(m, steered_router_config(), opts_packetmill(),
                  default_campus_trace());
    ASSERT_NE(engine.steering(), nullptr);
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 100.0;
    rc.duration_us = 300.0;
    rc.host_threads = 1;
    const RunResult r = engine.run(rc);
    EXPECT_GT(r.tx_pkts, 0u);
    const SteerStats s = engine.steering()->stats();
    EXPECT_EQ(s.steered, 0u);
    EXPECT_GT(s.passed, 0u);
}

Snap
run_steered_zipf(std::uint32_t threads, bool reprogram)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_TRUE(spec.parse("zipf:flows=1000000,skew=1.1,burst=8", &err))
        << err;
    MachineConfig m;
    m.num_cores = 8;
    Engine engine(m, steered_router_config(), opts_packetmill(), spec);
    if (reprogram) {
        // Desynchronize the fabric from the NIC's modulo mapping so
        // roughly half the buckets hand off to another core.
        const std::uint32_t tsize = engine.rss_table_size();
        EXPECT_GT(tsize, 0u);
        for (std::uint32_t i = 0; i < tsize; i += 2)
            engine.set_rss_table_entry(i, (engine.rss_table_entry(i) + 3) %
                                              engine.num_cores());
    }
    RunConfig rc;
    rc.offered_gbps = 30.0;
    rc.warmup_us = 100.0;
    rc.duration_us = 400.0;
    rc.sample_interval_us = 100.0;
    rc.host_threads = threads;
    return snapshot(engine, rc);
}

// The acceptance gate: a steered million-flow run is bit-identical
// for host_threads 1, 2, 4, and 8, with real cross-core handoffs in
// flight.
TEST(Steering, MillionFlowHandoffThreadInvariant)
{
    const Snap t1 = run_steered_zipf(1, true);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    EXPECT_GT(t1.steer.steered, 0u);
    EXPECT_GT(t1.steer.delivered, 0u);
    // Conservation: every staged frame is delivered to its home
    // queue, refused by it, or still in flight at the end.
    EXPECT_EQ(t1.steer.steered, t1.steer.delivered + t1.steer.ring_drops +
                                    t1.steer.in_flight);
    const Snap t2 = run_steered_zipf(2, true);
    const Snap t4 = run_steered_zipf(4, true);
    const Snap t8 = run_steered_zipf(8, true);
    expect_bitexact(t1, t2);
    expect_bitexact(t1, t4);
    expect_bitexact(t1, t8);
}

Snap
run_controlled(std::uint32_t threads, const std::string &config)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_TRUE(spec.parse("zipf:flows=100000,skew=1.3,burst=8", &err))
        << err;
    MachineConfig m;
    m.num_cores = 4;
    Engine engine(m, config, opts_packetmill(), spec);

    ControlConfig cc;
    Controller ctl(make_policy("steer", cc.limits, cc.policy), cc);
    engine.set_controller(&ctl);

    RunConfig rc;
    rc.offered_gbps = 25.0;
    rc.warmup_us = 100.0;
    rc.duration_us = 600.0;
    rc.sample_interval_us = 100.0;
    rc.host_threads = threads;
    Snap s = snapshot(engine, rc, &ctl);
    engine.set_controller(nullptr);
    return s;
}

bool
has_table_rewrites(const std::string &decisions)
{
    return decisions.find("rss_table_entry") != std::string::npos;
}

// Mid-run rewrites of the software steering table (the controller's
// steer policy migrating hot buckets between cores) must leave the
// run bit-identical for every host thread count, decision log
// included: the controller only ever acts at serial sampler points.
TEST(Steering, MidRunFabricRewriteThreadInvariant)
{
    const Snap t1 = run_controlled(1, steered_router_config());
    EXPECT_GT(t1.r.tx_pkts, 0u);
    EXPECT_TRUE(has_table_rewrites(t1.decisions))
        << "skewed zipf load must provoke at least one bucket move:\n"
        << t1.decisions;
    EXPECT_GT(t1.steer.steered, 0u)
        << "rewrites must desynchronize the fabric from the NIC";
    const Snap t2 = run_controlled(2, steered_router_config());
    const Snap t4 = run_controlled(4, steered_router_config());
    expect_bitexact(t1, t2);
    expect_bitexact(t1, t4);
}

/// @}
/// @name NUMA placement tests.
/// @{

// Two sockets on four cores: cores 2/3 live on socket 1 while the
// NIC's rings stay on socket 0, so their DRAM fills cross sockets and
// the gated numa_remote_fills column appears and counts. The penalty
// model must stay bit-identical across host thread counts.
TEST(Numa, RemoteFillsVisibleAndThreadInvariant)
{
    auto run_one = [](std::uint32_t threads, std::uint32_t sockets) {
        MachineConfig m;
        m.num_cores = 4;
        m.num_sockets = sockets;
        Engine engine(m, router_config(), opts_packetmill(),
                      default_campus_trace());
        RunConfig rc;
        rc.offered_gbps = 70.0;
        rc.warmup_us = 200.0;
        rc.duration_us = 600.0;
        rc.sample_interval_us = 100.0;
        rc.host_threads = threads;
        return snapshot(engine, rc);
    };

    const Snap t1 = run_one(1, 2);
    const Snap t4 = run_one(4, 2);
    EXPECT_GT(t1.r.tx_pkts, 0u);
    expect_bitexact(t1, t4);

    double remote = 0;
    bool has_column = false;
    for (std::size_t i = 0; i < t1.tl.rows.size(); ++i) {
        if (const auto v = t1.tl.try_value(i, "numa_remote_fills")) {
            has_column = true;
            remote += *v;
        }
    }
    EXPECT_TRUE(has_column);
    EXPECT_GT(remote, 0.0) << "cross-socket cores must pay remote fills";

    // Flat machine: the column is gated off entirely, so legacy
    // timeline layouts (and their goldens) are untouched.
    const Snap flat = run_one(1, 1);
    bool flat_has_column = false;
    for (std::size_t i = 0; i < flat.tl.rows.size(); ++i)
        if (flat.tl.try_value(i, "numa_remote_fills"))
            flat_has_column = true;
    EXPECT_FALSE(flat_has_column);
}

/// @}

} // namespace
} // namespace pmill
