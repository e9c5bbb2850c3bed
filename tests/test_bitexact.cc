/**
 * @file
 * Bit-exactness gate for the simulated results.
 *
 * Host-side hot-path optimizations (MRU way filters, inline fast
 * paths, devirtualization, counter batching, LTO builds) must never
 * change what the simulator computes — only how fast it computes it.
 * These tests run three fixed-seed end-to-end configurations and
 * assert the full counter set (frames, perf-style LLC counters, TLB
 * misses, latency percentiles, throughput, IPC) against checked-in
 * values captured from the pre-optimization implementation. The
 * floating-point expectations use EXPECT_EQ deliberately: the model
 * is deterministic IEEE arithmetic in a fixed order, so any deviation
 * at all means a semantic change, not noise.
 *
 * If a PR changes the *model* intentionally, regenerate these values
 * and say so in the commit; if it only touches host performance, a
 * failure here is a bug in that PR.
 */

#include <gtest/gtest.h>

#include "src/pmill.hh"

namespace pmill {
namespace {

struct Expected {
    std::uint64_t tx_pkts;
    std::uint64_t llc_loads;
    std::uint64_t llc_misses;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t tlb_misses;
    double p50_us;
    double p99_us;
    double mean_us;
    double thr_gbps;
    double ipc;
};

RunResult
run_fixed(const PipelineOpts &opts, std::uint32_t cores,
          std::uint32_t host_threads = 0)
{
    Trace t = make_fixed_size_trace(512, 2048, 512);
    MachineConfig m;
    m.num_cores = cores;
    Engine e(m, router_config(), opts, t);
    RunConfig rc;
    rc.offered_gbps = 70.0;
    rc.warmup_us = 500;
    rc.duration_us = 2000;
    rc.sample_interval_us = 0;
    rc.host_threads = host_threads;
    return e.run(rc);
}

void
expect_bitexact(const RunResult &r, const Expected &e)
{
    EXPECT_EQ(r.tx_pkts, e.tx_pkts);
    EXPECT_EQ(r.mem.llc_loads(), e.llc_loads);
    EXPECT_EQ(r.mem.llc_load_misses, e.llc_misses);
    EXPECT_EQ(r.mem.loads, e.loads);
    EXPECT_EQ(r.mem.stores, e.stores);
    EXPECT_EQ(r.mem.tlb_misses, e.tlb_misses);
    EXPECT_EQ(r.median_latency_us, e.p50_us);
    EXPECT_EQ(r.p99_latency_us, e.p99_us);
    EXPECT_EQ(r.mean_latency_us, e.mean_us);
    EXPECT_EQ(r.throughput_gbps, e.thr_gbps);
    EXPECT_EQ(r.ipc, e.ipc);
}

TEST(BitExact, VanillaRouterSingleCore)
{
    expect_bitexact(run_fixed(PipelineOpts::vanilla(), 1),
                    {13290, 12064, 12064, 320736, 279552, 20758,
                     312.27579116821289, 351.80816650390625,
                     314.77841499403962, 28.493760000000002,
                     1.780730972237339});
}

TEST(BitExact, PacketMillRouterSingleCore)
{
    expect_bitexact(run_fixed(PipelineOpts::packetmill(), 1),
                    {26106, 0, 0, 448250, 365120, 14466,
                     158.84935798461325, 159.19198107363573,
                     156.29093487061323, 55.971263999999998,
                     2.5130560762089571});
}

// The 4-core router on the epoch schedule, the only schedule, at the
// default epoch (the lookahead): the values must not depend on the
// host thread count (0 and 1 both run every core on the calling
// thread; test_parallel.cc pins 1 == N, and every epoch up to the
// lookahead, on more configurations), and pinning them here keeps a
// schedule change from hiding behind those invariances.
TEST(BitExact, EpochSchedulerRouterRss4Cores)
{
    const Expected e = {32652, 32654, 32651, 949278, 685668, 22833,
                        0.31924942164745146, 0.94356282552083326,
                        0.38362089307666342, 70.005887999999999,
                        1.366669550479809};
    for (std::uint32_t threads : {0u, 1u, 4u})
        expect_bitexact(run_fixed(PipelineOpts::vanilla(), 4, threads), e);
}

} // namespace
} // namespace pmill
