/**
 * @file
 * Unit and property tests for the simulated memory and cache
 * hierarchy: allocation invariants, host backing residency, hit/miss
 * walks, LRU behaviour, DDIO way restriction, TLB behaviour, and
 * counter bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/framework/pipeline.hh"
#include "src/mem/cache.hh"
#include "src/mem/payload_park.hh"
#include "src/mem/sim_memory.hh"
#include "src/runtime/experiments.hh"
#include "src/table/lpm.hh"
#include "tests/residency.hh"

namespace pmill {
namespace {

TEST(SimMemory, AllocationsAreDisjointAndAligned)
{
    SimMemory mem;
    MemHandle a = mem.alloc(100, 64, Region::kHeap);
    MemHandle b = mem.alloc(100, 64, Region::kHeap);
    EXPECT_EQ(a.addr % 64, 0u);
    EXPECT_EQ(b.addr % 64, 0u);
    EXPECT_GE(b.addr, a.addr + 100);
    EXPECT_TRUE(a && b);
}

TEST(SimMemory, HostBackingIsZeroedAndWritable)
{
    SimMemory mem;
    MemHandle h = mem.alloc(256, 64, Region::kPacketData);
    for (std::size_t i = 0; i < 256; ++i)
        EXPECT_EQ(h.host[i], 0);
    std::memset(h.host, 0xAB, 256);
    EXPECT_EQ(h.host[255], 0xAB);
}

TEST(SimMemory, HostPtrLookup)
{
    SimMemory mem;
    MemHandle a = mem.alloc(128, 64, Region::kTable);
    MemHandle b = mem.alloc(128, 64, Region::kTable);
    a.host[5] = 7;
    EXPECT_EQ(mem.host_ptr(a.addr + 5), a.host + 5);
    EXPECT_EQ(mem.host_ptr(b.addr), b.host);
    EXPECT_EQ(mem.host_ptr(a.addr + 4096 * 1024), nullptr);
    EXPECT_EQ(mem.host_ptr(0), nullptr);
}

TEST(SimMemory, ScatteredAllocationsLandOnDistinctPages)
{
    SimMemory mem;
    MemHandle a = mem.alloc_scattered(64, Region::kHeap);
    MemHandle b = mem.alloc_scattered(64, Region::kHeap);
    MemHandle c = mem.alloc_scattered(64, Region::kHeap);
    EXPECT_NE(page_of(a.addr), page_of(b.addr));
    EXPECT_NE(page_of(b.addr), page_of(c.addr));
}

TEST(SimMemory, RegionAccounting)
{
    SimMemory mem;
    mem.alloc(1000, 64, Region::kMbufPool);
    mem.alloc(24, 8, Region::kMbufPool);
    EXPECT_EQ(mem.allocated_bytes(Region::kMbufPool), 1024u);
    EXPECT_EQ(mem.allocated_bytes(Region::kTable), 0u);
}

// Guards sim_rate: a backing committed lazily would move its
// first-touch page faults into the timed run.
TEST(SimMemory, OrdinaryBackingIsZeroedAndCommitted)
{
#ifndef __linux__
    GTEST_SKIP() << "residency is measured with Linux mincore";
#else
    SimMemory mem;
    const std::uint64_t n = 16ull << 20;  // beyond malloc's mmap threshold
    MemHandle h = mem.alloc(n, kPageBytes, Region::kTable);
    EXPECT_GE(resident_bytes(h.host, n), n);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(h.host[i], 0) << i;
#endif
}

TEST(SimMemory, SparseBackingCommitsOnlyWrittenPages)
{
#ifndef __linux__
    GTEST_SKIP() << "residency is measured with Linux mincore";
#else
    SimMemory mem;
    const std::uint64_t n = 64ull << 20;
    const MemHandle before = mem.alloc(64, 64, Region::kTable);
    MemHandle h = mem.alloc_sparse(n, kPageBytes, Region::kTable);
    // Same simulated placement and accounting as alloc().
    EXPECT_EQ(h.addr, round_up(before.addr + before.size, kPageBytes));
    EXPECT_EQ(mem.allocated_bytes(Region::kTable), 64 + n);
    EXPECT_EQ(mem.host_ptr(h.addr + 5), h.host + 5);

    EXPECT_LE(resident_bytes(h.host, n), 64u << 10);
    h.host[0] = 1;
    h.host[n / 2] = 2;
    h.host[n - 1] = 3;
    EXPECT_LE(resident_bytes(h.host, n), 128u << 10);
    // Reading maps zero pages, so check residency first.
    std::uint64_t nonzero = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        nonzero += h.host[i] != 0;
    EXPECT_EQ(nonzero, 3u);
#endif
}

TEST(SimMemory, RouterLpmKeepsTbl24Sparse)
{
#ifndef __linux__
    GTEST_SKIP() << "residency is measured with Linux mincore";
#else
    SimMemory mem;
    const MemHandle before = mem.alloc(64, 64, Region::kTable);
    Dir24_8 t(mem);
    // router_config()'s IPLookup: five /8s and a default route.
    for (std::uint8_t top : {20, 21, 22, 23, 10})
        ASSERT_TRUE(t.add({Ipv4Addr::make(top, 0, 0, 0), 8, 0}));
    ASSERT_TRUE(t.add({Ipv4Addr::make(0, 0, 0, 0), 0, 0}));
    EXPECT_EQ(t.lookup(Ipv4Addr::make(99, 1, 2, 3)), 0);

    // tbl24 is the table's first allocation: 2^24 4-byte entries.
    const std::uint8_t *tbl24 =
        mem.host_ptr(round_up(before.addr + before.size, kPageBytes));
    ASSERT_NE(tbl24, nullptr);
    EXPECT_LT(resident_bytes(tbl24, 64ull << 20), 2u << 20);
#endif
}

TEST(SimMemory, VanillaHeapChaseRegionHasNoHostPages)
{
#ifndef __linux__
    GTEST_SKIP() << "residency is measured with Linux mincore";
#else
    SimMemory mem;
    std::string err;
    auto p = Pipeline::build(router_config(), mem, PipelineOpts::vanilla(),
                             &err);
    ASSERT_NE(p, nullptr) << err;
    // The 30 MiB chase region is build's last allocation, page aligned
    // and a line multiple, so the next line-aligned one starts at its
    // end.
    const std::uint64_t n = 30ull << 20;
    ASSERT_GE(mem.allocated_bytes(Region::kHeap), n);
    const Addr end = mem.alloc(64, 64, Region::kScratch).addr;
    const std::uint8_t *region = mem.host_ptr(end - n);
    ASSERT_NE(region, nullptr);
    ASSERT_EQ(mem.host_ptr(end - 1), region + n - 1) << "not one region";
    EXPECT_LT(resident_bytes(region, n), 64u << 10);
#endif
}

CacheConfig
tiny_config()
{
    CacheConfig c;
    c.l1_size = 1024;  // 16 lines: 2 sets x 8 ways
    c.l1_ways = 8;
    c.l2_size = 4096;
    c.l2_ways = 16;    // 4 sets
    c.llc_size = 64 * 1024;
    c.llc_ways = 16;
    c.ddio_ways = 2;
    c.tlb_enable = false;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    CacheHierarchy ch(tiny_config());
    AccessResult r1 = ch.access(0x1000, 8, AccessType::kLoad);
    EXPECT_EQ(r1.level, HitLevel::kDram);
    AccessResult r2 = ch.access(0x1000, 8, AccessType::kLoad);
    EXPECT_EQ(r2.level, HitLevel::kL1);
    EXPECT_LT(r2.core_cycles, r1.core_cycles + r1.wall_ns);
    EXPECT_EQ(ch.stats().loads, 2u);
    EXPECT_EQ(ch.stats().llc_load_misses, 1u);
}

TEST(Cache, AccessSpanningTwoLines)
{
    CacheHierarchy ch(tiny_config());
    ch.access(60, 8, AccessType::kLoad);  // crosses line 0 -> 1
    EXPECT_EQ(ch.stats().loads, 2u);
}

TEST(Cache, L1EvictionFallsBackToL2)
{
    CacheConfig cfg = tiny_config();
    CacheHierarchy ch(cfg);
    // Fill one L1 set (2 sets -> lines with even index map to set 0):
    // 8 ways + 1 extra distinct line in set 0 evicts the LRU line.
    for (int i = 0; i <= 8; ++i)
        ch.access(static_cast<Addr>(i) * 2 * kCacheLineBytes, 1,
                  AccessType::kLoad);
    // Line 0 was LRU -> now only in L2.
    AccessResult r = ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL2);
}

TEST(Cache, LruKeepsHotLine)
{
    CacheHierarchy ch(tiny_config());
    // Touch line 0 repeatedly while streaming others through set 0.
    ch.access(0, 1, AccessType::kLoad);
    for (int i = 1; i <= 7; ++i)
        ch.access(static_cast<Addr>(i) * 2 * kCacheLineBytes, 1,
                  AccessType::kLoad);
    ch.access(0, 1, AccessType::kLoad);  // refresh line 0
    ch.access(8 * 2 * kCacheLineBytes, 1, AccessType::kLoad);  // evict LRU
    AccessResult r = ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL1) << "hot line was evicted";
}

TEST(Cache, DeviceWriteLandsInLlcAndInvalidatesCore)
{
    CacheHierarchy ch(tiny_config());
    // Warm the line into L1.
    ch.access(0x2000, 4, AccessType::kLoad);
    // Device writes the line (new packet arrives in the same buffer).
    ch.access(0x2000, 4, AccessType::kDevWrite);
    // CPU load must now come from the LLC (core copies invalidated).
    AccessResult r = ch.access(0x2000, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kLlc);
}

TEST(Cache, DdioWayRestrictionThrashesWithManyLines)
{
    CacheConfig cfg = tiny_config();
    cfg.ddio_ways = 2;
    CacheHierarchy ch(cfg);
    const std::uint64_t llc_sets =
        cfg.llc_size / kCacheLineBytes / cfg.llc_ways;
    // Stream 8 distinct lines mapping to LLC set 0 via device writes;
    // only 2 ways are eligible, so older DDIO lines must be evicted.
    for (int i = 0; i < 8; ++i)
        ch.access(static_cast<Addr>(i) * llc_sets * kCacheLineBytes, 1,
                  AccessType::kDevWrite);
    AccessResult oldest = ch.access(0, 1, AccessType::kDevRead);
    EXPECT_EQ(oldest.level, HitLevel::kDram);
    AccessResult newest = ch.access(7 * llc_sets * kCacheLineBytes, 1,
                                    AccessType::kDevRead);
    EXPECT_EQ(newest.level, HitLevel::kLlc);
}

TEST(Cache, DevReadDoesNotAllocate)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x3000, 4, AccessType::kDevRead);
    AccessResult r = ch.access(0x3000, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kDram);
}

TEST(Cache, StoreCountsSeparately)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kStore);
    EXPECT_EQ(ch.stats().stores, 1u);
    EXPECT_EQ(ch.stats().loads, 0u);
    EXPECT_EQ(ch.stats().llc_store_misses, 1u);
}

TEST(Cache, StatsResetKeepsContentsWarm)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kLoad);
    ch.stats_reset();
    EXPECT_EQ(ch.stats().loads, 0u);
    AccessResult r = ch.access(0x100, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL1);
}

TEST(Cache, FlushColdsEverything)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kLoad);
    ch.flush();
    AccessResult r = ch.access(0x100, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kDram);
}

TEST(Cache, TlbMissAddsWallTime)
{
    CacheConfig cfg = tiny_config();
    cfg.tlb_enable = true;
    cfg.tlb_entries = 4;
    CacheHierarchy ch(cfg);
    ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(ch.stats().tlb_misses, 1u);
    ch.access(8, 1, AccessType::kLoad);  // same page
    EXPECT_EQ(ch.stats().tlb_misses, 1u);
    // Cycle through 5 pages in a 4-entry TLB: page 0 evicted.
    for (int p = 1; p <= 4; ++p)
        ch.access(static_cast<Addr>(p) * kPageBytes, 1, AccessType::kLoad);
    ch.access(16, 1, AccessType::kLoad);
    EXPECT_EQ(ch.stats().tlb_misses, 6u);
}

TEST(Cache, MemStatsSubtraction)
{
    MemStats a;
    a.loads = 10;
    a.llc_load_misses = 4;
    MemStats b;
    b.loads = 3;
    b.llc_load_misses = 1;
    MemStats d = a - b;
    EXPECT_EQ(d.loads, 7u);
    EXPECT_EQ(d.llc_load_misses, 3u);
}

TEST(Cache, LlcLoadsAlias)
{
    MemStats s;
    s.l2_load_misses = 123;
    EXPECT_EQ(s.llc_loads(), 123u);
}

// Property: a working set smaller than L1 eventually hits L1 on every
// access; a working set larger than LLC keeps missing.
class CacheWorkingSet : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheWorkingSet, SteadyStateResidency)
{
    CacheConfig cfg;  // full-size default config
    cfg.tlb_enable = false;
    CacheHierarchy ch(cfg);
    const std::uint64_t ws_bytes = GetParam();
    const std::uint64_t lines = ws_bytes / kCacheLineBytes;

    // Two warmup sweeps, then a measured sweep.
    for (int sweep = 0; sweep < 2; ++sweep)
        for (std::uint64_t i = 0; i < lines; ++i)
            ch.access(i * kCacheLineBytes, 1, AccessType::kLoad);
    ch.stats_reset();
    for (std::uint64_t i = 0; i < lines; ++i)
        ch.access(i * kCacheLineBytes, 1, AccessType::kLoad);

    const MemStats &s = ch.stats();
    if (ws_bytes <= cfg.l1_size) {
        EXPECT_EQ(s.l1_load_misses, 0u);
    } else if (ws_bytes <= cfg.l2_size / 2) {
        EXPECT_EQ(s.l2_load_misses, 0u);
    } else if (ws_bytes <= cfg.llc_size / 2) {
        EXPECT_EQ(s.llc_load_misses, 0u);
    } else if (ws_bytes >= cfg.llc_size * 2) {
        // Sequential sweep over 2x LLC with LRU: every access misses.
        EXPECT_GT(s.llc_load_misses, lines * 9 / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, CacheWorkingSet,
                         ::testing::Values(16 * 1024,        // fits L1
                                           512 * 1024,       // fits L2
                                           8 * 1024 * 1024,  // fits LLC
                                           48 * 1024 * 1024  // exceeds LLC
                                           ));

TEST(PayloadPark, TicketLifecycleAndLifoReuse)
{
    SimMemory mem;
    PayloadPark park(mem, 4, 2048);
    std::uint8_t pay[256];
    std::memset(pay, 0x5A, sizeof pay);

    const std::uint32_t t1 = park.park(pay, 256);
    const std::uint32_t t2 = park.park(pay, 128);
    EXPECT_NE(t1, t2);
    EXPECT_NE(park.slot_addr(t1), park.slot_addr(t2));
    EXPECT_EQ(std::memcmp(park.slot_host(t1), pay, 256), 0);

    PayloadPark::Stats st = park.stats();
    EXPECT_EQ(st.parked, 2u);
    EXPECT_EQ(st.outstanding, 2u);
    EXPECT_EQ(st.capacity, 4u);

    park.release(t1, /*dropped=*/false);
    park.release(t2, /*dropped=*/true);
    st = park.stats();
    EXPECT_EQ(st.rejoined, 1u);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_EQ(st.outstanding, 0u);
    EXPECT_EQ(st.parked, st.rejoined + st.dropped + st.outstanding);

    // LIFO free list: the most recently released ticket is reissued
    // first, so simulated slot addresses are a pure function of the
    // park/release sequence (determinism across thread counts).
    EXPECT_EQ(park.park(pay, 64), t2);
}

TEST(PayloadPark, DoubleFreeDies)
{
    SimMemory mem;
    PayloadPark park(mem, 2, 2048);
    std::uint8_t pay[64] = {};
    const std::uint32_t t = park.park(pay, 64);
    park.release(t, false);
    EXPECT_DEATH(park.release(t, false), "double-free");
}

TEST(PayloadPark, ExhaustionAndOversizeDie)
{
    SimMemory mem;
    PayloadPark park(mem, 1, 128);
    std::uint8_t pay[256] = {};
    EXPECT_DEATH(park.park(pay, 256), "exceeds park slot");
    (void)park.park(pay, 128);
    EXPECT_DEATH(park.park(pay, 64), "exhausted");
}

} // namespace
} // namespace pmill
