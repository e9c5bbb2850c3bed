/**
 * @file
 * Unit and property tests for the simulated memory and cache
 * hierarchy: allocation invariants, host backing residency, hit/miss
 * walks, LRU behaviour, DDIO way restriction, TLB behaviour, and
 * counter bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/framework/pipeline.hh"
#include "src/common/random.hh"
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
    ch.dma(0x2000, 4, AccessType::kDevWrite);
    EXPECT_EQ(ch.stats().dev_writes, 1u);
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
        ch.dma(static_cast<Addr>(i) * llc_sets * kCacheLineBytes, 1,
               AccessType::kDevWrite);
    // A device read that leaves the LLC counts in dev_reads_dram.
    std::uint64_t before = ch.stats().dev_reads_dram;
    ch.dma(0, 1, AccessType::kDevRead);
    EXPECT_EQ(ch.stats().dev_reads_dram - before, 1u)
        << "oldest DDIO line still in the LLC";
    before = ch.stats().dev_reads_dram;
    ch.dma(7 * llc_sets * kCacheLineBytes, 1, AccessType::kDevRead);
    EXPECT_EQ(ch.stats().dev_reads_dram - before, 0u)
        << "newest DDIO line left the LLC";
}

TEST(Cache, DevReadDoesNotAllocate)
{
    CacheHierarchy ch(tiny_config());
    for (int i = 0; i < 2; ++i) {
        const std::uint64_t before = ch.stats().dev_reads_dram;
        ch.dma(0x3000, 4, AccessType::kDevRead);
        EXPECT_EQ(ch.stats().dev_reads_dram - before, 1u) << "read " << i;
    }
    AccessResult r = ch.access(0x3000, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kDram);
}

TEST(Cache, DeviceKindThroughAccessDies)
{
    CacheHierarchy ch(tiny_config());
    EXPECT_DEATH(ch.access(0x100, 4, AccessType::kDevWrite),
                 "DevWrite is a device kind");
    EXPECT_DEATH(ch.access(0x100, 200, AccessType::kParkRead),
                 "ParkRead is a device kind");
}

TEST(Cache, CpuKindThroughDmaDies)
{
    CacheHierarchy ch(tiny_config());
    EXPECT_DEATH(ch.dma(0x100, 4, AccessType::kLoad), "Load is a CPU kind");
    EXPECT_DEATH(ch.dma(0x100, 200, AccessType::kPrefetch),
                 "Prefetch is a CPU kind");
}

// The semantics cache.hh compacts, written out plainly: per way a
// line, an LRU stamp off the level's clock, and valid and
// demand-filled flags, all found by full scans; victims are the first
// invalid way, else the LRU streaming (not demand-filled) way, else
// the LRU way, among the first way_limit ways.
class RefLevel {
  public:
    RefLevel(std::uint64_t size, std::uint32_t ways)
        : sets_(size / kCacheLineBytes / ways), ways_(ways),
          w_(sets_ * ways)
    {}

    bool
    lookup(std::uint64_t line)
    {
        Way *w = find(line);
        if (w != nullptr)
            w->stamp = ++clock_;
        return w != nullptr;
    }

    void
    insert(std::uint64_t line, std::uint32_t way_limit, bool cpu_fill)
    {
        Way *w = find(line);
        if (w == nullptr) {
            w = victim(line, way_limit);
            w->line = line;
            w->valid = true;
        }
        w->stamp = ++clock_;
        w->cpu = cpu_fill;
    }

    void
    invalidate(std::uint64_t line)
    {
        if (Way *w = find(line))
            w->valid = false;
    }

    void
    flush()
    {
        for (Way &w : w_)
            w = Way{};
    }

  private:
    struct Way {
        std::uint64_t line = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool cpu = false;
    };

    Way *set(std::uint64_t line) { return &w_[(line % sets_) * ways_]; }

    Way *
    find(std::uint64_t line)
    {
        Way *s = set(line);
        for (std::uint32_t i = 0; i < ways_; ++i)
            if (s[i].valid && s[i].line == line)
                return &s[i];
        return nullptr;
    }

    Way *
    victim(std::uint64_t line, std::uint32_t way_limit)
    {
        Way *s = set(line);
        const std::uint32_t n =
            (way_limit == 0 || way_limit > ways_) ? ways_ : way_limit;
        for (std::uint32_t i = 0; i < n; ++i)
            if (!s[i].valid)
                return &s[i];
        Way *lru = nullptr;
        for (std::uint32_t i = 0; i < n; ++i)
            if (!s[i].cpu && (lru == nullptr || s[i].stamp < lru->stamp))
                lru = &s[i];
        if (lru != nullptr)
            return lru;
        lru = &s[0];
        for (std::uint32_t i = 1; i < n; ++i)
            if (s[i].stamp < lru->stamp)
                lru = &s[i];
        return lru;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<Way> w_;
    std::uint64_t clock_ = 0;
};

// A stamped fully associative TLB: a miss fills the first never-used
// entry, else the least recently touched one.
class RefTlb {
  public:
    explicit RefTlb(std::uint32_t entries) : e_(entries) {}

    bool
    access(std::uint64_t page)
    {
        for (Entry &e : e_) {
            if (e.used && e.page == page) {
                e.stamp = ++clock_;
                return true;
            }
        }
        Entry *v = nullptr;
        for (Entry &e : e_) {
            if (!e.used) {
                v = &e;
                break;
            }
        }
        if (v == nullptr) {
            v = &e_[0];
            for (Entry &e : e_)
                if (e.stamp < v->stamp)
                    v = &e;
        }
        *v = Entry{page, ++clock_, true};
        return false;
    }

    void
    flush()
    {
        for (Entry &e : e_)
            e = Entry{};
    }

  private:
    struct Entry {
        std::uint64_t page = 0;
        std::uint64_t stamp = 0;
        bool used = false;
    };

    std::vector<Entry> e_;
    std::uint64_t clock_ = 0;
};

// The hierarchy's walks over the reference levels, one line at a time
// (no NUMA probe).
class RefHierarchy {
  public:
    explicit RefHierarchy(const CacheConfig &c)
        : c_(c), l1_(c.l1_size, c.l1_ways), l2_(c.l2_size, c.l2_ways),
          llc_(c.llc_size, c.llc_ways), tlb_(c.tlb_entries)
    {}

    AccessResult
    access(Addr addr, std::uint32_t size, AccessType type)
    {
        AccessResult total;
        for (std::uint64_t ln = line_of(addr);
             ln <= line_of(addr + size - 1); ++ln) {
            const AccessResult r = cpu_line(ln, type);
            total.core_cycles += r.core_cycles;
            total.wall_ns += r.wall_ns;
            total.tlb_misses += r.tlb_misses;
            total.llc_trips += r.llc_trips;
            total.dram_fills += r.dram_fills;
            total.remote_fills += r.remote_fills;
            total.level = std::max(total.level, r.level);
        }
        return total;
    }

    void
    dma(Addr addr, std::uint32_t len, AccessType type)
    {
        for (std::uint64_t ln = line_of(addr); ln <= line_of(addr + len - 1);
             ++ln) {
            switch (type) {
              case AccessType::kDevWrite:
                ++s_.dev_writes;
                l1_.invalidate(ln);
                l2_.invalidate(ln);
                llc_.insert(ln, c_.ddio_ways, false);
                break;
              case AccessType::kDevRead:
                ++s_.dev_reads;
                if (!llc_.lookup(ln))
                    ++s_.dev_reads_dram;
                break;
              case AccessType::kParkWrite:
                ++s_.park_fills;
                l1_.invalidate(ln);
                l2_.invalidate(ln);
                llc_.invalidate(ln);
                break;
              case AccessType::kParkRead:
                ++s_.park_gathers;
                llc_.lookup(ln);
                break;
              default:
                ADD_FAILURE() << "dma() of a CPU kind";
                return;
            }
        }
    }

    const MemStats &stats() const { return s_; }
    void stats_reset() { s_ = MemStats{}; }

    void
    flush()
    {
        l1_.flush();
        l2_.flush();
        llc_.flush();
        tlb_.flush();
    }

  private:
    AccessResult
    cpu_line(std::uint64_t ln, AccessType type)
    {
        AccessResult r;
        if (type == AccessType::kPrefetch) {
            ++s_.prefetches;
            if (!l1_.lookup(ln)) {
                if (!l2_.lookup(ln)) {
                    if (!llc_.lookup(ln))
                        llc_.insert(ln, 0, false);
                    l2_.insert(ln, 0, true);
                }
                l1_.insert(ln, 0, true);
            }
            return r;
        }
        const bool load = type == AccessType::kLoad;
        if (c_.tlb_enable && !tlb_.access(ln / kLinesPerPage)) {
            ++s_.tlb_misses;
            r.wall_ns += c_.tlb_miss_ns;
            ++r.tlb_misses;
        }
        ++(load ? s_.loads : s_.stores);
        r.core_cycles += c_.l1_cycles;
        if (l1_.lookup(ln))
            return r;
        ++(load ? s_.l1_load_misses : s_.l1_store_misses);
        r.level = HitLevel::kL2;
        r.core_cycles += c_.l2_cycles;
        if (l2_.lookup(ln)) {
            l1_.insert(ln, 0, true);
            return r;
        }
        ++(load ? s_.l2_load_misses : s_.l2_store_misses);
        r.level = HitLevel::kLlc;
        r.wall_ns += c_.llc_ns;
        ++r.llc_trips;
        if (llc_.lookup(ln)) {
            l2_.insert(ln, 0, true);
            l1_.insert(ln, 0, true);
            return r;
        }
        ++(load ? s_.llc_load_misses : s_.llc_store_misses);
        r.level = HitLevel::kDram;
        r.wall_ns += c_.dram_ns;
        ++r.dram_fills;
        llc_.insert(ln, 0, true);
        l2_.insert(ln, 0, true);
        l1_.insert(ln, 0, true);
        return r;
    }

    CacheConfig c_;
    RefLevel l1_, l2_, llc_;
    RefTlb tlb_;
    MemStats s_;
};

std::string
result_diff(const AccessResult &a, const AccessResult &b)
{
    std::string d;
    auto field = [&](const char *name, double x, double y) {
        if (x != y)
            d += std::string(name) + " " + std::to_string(x) + " vs " +
                 std::to_string(y) + "; ";
    };
    field("level", static_cast<double>(a.level), static_cast<double>(b.level));
    field("core_cycles", a.core_cycles, b.core_cycles);
    field("wall_ns", a.wall_ns, b.wall_ns);
    field("tlb_misses", a.tlb_misses, b.tlb_misses);
    field("llc_trips", a.llc_trips, b.llc_trips);
    field("dram_fills", a.dram_fills, b.dram_fills);
    field("remote_fills", a.remote_fills, b.remote_fills);
    return d;
}

void
expect_same_stats(const MemStats &a, const MemStats &b, std::uint64_t step)
{
    const std::pair<const char *, std::uint64_t MemStats::*> fields[] = {
        {"loads", &MemStats::loads},
        {"stores", &MemStats::stores},
        {"l1_load_misses", &MemStats::l1_load_misses},
        {"l2_load_misses", &MemStats::l2_load_misses},
        {"llc_load_misses", &MemStats::llc_load_misses},
        {"l1_store_misses", &MemStats::l1_store_misses},
        {"l2_store_misses", &MemStats::l2_store_misses},
        {"llc_store_misses", &MemStats::llc_store_misses},
        {"dev_writes", &MemStats::dev_writes},
        {"dev_reads", &MemStats::dev_reads},
        {"dev_reads_dram", &MemStats::dev_reads_dram},
        {"tlb_misses", &MemStats::tlb_misses},
        {"prefetches", &MemStats::prefetches},
        {"numa_remote_fills", &MemStats::numa_remote_fills},
        {"park_fills", &MemStats::park_fills},
        {"park_gathers", &MemStats::park_gathers},
    };
    static_assert(sizeof(MemStats) == sizeof(fields) / sizeof(fields[0]) *
                                          sizeof(std::uint64_t),
                  "every MemStats field is compared");
    for (const auto &[name, f] : fields)
        EXPECT_EQ(a.*f, b.*f) << name << " at step " << step;
}

// Cross-checks the compacted model (set blocks, recency permutation,
// one-compare match, the TLB's hash table and recency list, dma())
// against the plain reference on one seeded stream over the tiny
// geometry, where every level and the TLB evict: CPU loads, stores and
// prefetches of one or many lines, device DMA ranges of all four kinds
// over the same addresses, and the odd stats_reset and flush.
TEST(Cache, MatchesStampedReferenceModel)
{
    CacheConfig cfg = tiny_config();
    cfg.tlb_enable = true;
    cfg.tlb_entries = 64;
    CacheHierarchy ch(cfg);
    RefHierarchy ref(cfg);
    Xorshift64 rng(2021);
    // Footprints past L1 (2 KiB), inside the LLC (48 KiB), just past
    // the TLB's reach (80 pages) and past the LLC (1 MiB). One draw in
    // four instead revisits the page of one of the last two addresses,
    // so sets and the TLB see their MRU and second-MRU entries again.
    const std::uint64_t spans[] = {2 << 10, 48 << 10, 80 * kPageBytes,
                                   1 << 20};
    Addr recent[2] = {};
    const AccessType cpu[] = {AccessType::kLoad, AccessType::kStore,
                              AccessType::kPrefetch};
    const AccessType dev[] = {AccessType::kDevWrite, AccessType::kDevRead,
                              AccessType::kParkWrite, AccessType::kParkRead};
    std::uint64_t levels[4] = {};  // demand accesses by deepest level
    std::uint64_t dev_reads = 0, dev_reads_dram = 0, tlb_misses = 0;
    auto tally = [&] {
        dev_reads += ch.stats().dev_reads;
        dev_reads_dram += ch.stats().dev_reads_dram;
        tlb_misses += ch.stats().tlb_misses;
    };
    for (std::uint64_t step = 0; step < 200000; ++step) {
        const std::uint64_t pick = rng.next_below(8);
        const Addr addr =
            pick < 2 ? (recent[pick] & ~(kPageBytes - 1)) +
                           rng.next_below(kPageBytes)
                     : rng.next_below(spans[pick % 4]);
        recent[1] = recent[0];
        recent[0] = addr;
        const std::uint64_t op = rng.next_below(1000);
        if (op < 700) {
            const AccessType type = cpu[op % 3];
            const std::uint32_t size = static_cast<std::uint32_t>(
                1 + rng.next_below(op % 4 == 0 ? 256 : 8));
            const AccessResult got = ch.access(addr, size, type);
            const AccessResult want = ref.access(addr, size, type);
            ASSERT_EQ(result_diff(got, want), "")
                << "step " << step << ": access(" << addr << ", " << size
                << ", kind " << static_cast<int>(type) << ")";
            if (type != AccessType::kPrefetch)
                ++levels[static_cast<int>(got.level)];
        } else if (op < 995) {
            const AccessType type = dev[op % 4];
            const std::uint32_t len =
                static_cast<std::uint32_t>(1 + rng.next_below(1500));
            ch.dma(addr, len, type);
            ref.dma(addr, len, type);
        } else if (op < 999) {
            expect_same_stats(ch.stats(), ref.stats(), step);
            tally();
            ch.stats_reset();
            ref.stats_reset();
        } else {
            ch.flush();
            ref.flush();
        }
    }
    expect_same_stats(ch.stats(), ref.stats(), 200000);
    tally();
    // The stream reaches every outcome the comparison should cover:
    // each level serves demand accesses, the TLB misses, and device
    // reads find lines both in the LLC and past it.
    for (int l = 0; l < 4; ++l)
        EXPECT_GT(levels[l], 1000u) << "level " << l;
    EXPECT_GT(tlb_misses, 1000u);
    EXPECT_GT(dev_reads_dram, 1000u);
    EXPECT_GT(dev_reads - dev_reads_dram, 1000u);
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
