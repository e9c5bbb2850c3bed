/**
 * @file
 * Tests for the lookup-table substrates: cuckoo hash vs.
 * std::unordered_map ground truth, and DIR-24-8 LPM vs. the naive
 * linear-scan reference, plus access-accounting checks.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/common/random.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/sim_memory.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/table/lpm.hh"

namespace pmill {
namespace {

/** Sink that just counts accesses (no cache model). */
class CountingSink : public AccessSink {
  public:
    void
    on_access(Addr, std::uint32_t, AccessType type) override
    {
        if (type == AccessType::kLoad)
            ++loads;
        else
            ++stores;
    }
    void
    on_compute(Cycles c, double) override
    {
        cycles += c;
    }
    int loads = 0;
    int stores = 0;
    double cycles = 0;
};

struct Key64 {
    std::uint64_t v;
};

TEST(CuckooHash, InsertLookupErase)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint32_t> t(mem, 1024);
    EXPECT_TRUE(t.insert(Key64{42}, 7));
    auto v = t.lookup(Key64{42});
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
    EXPECT_FALSE(t.lookup(Key64{43}).has_value());
    EXPECT_TRUE(t.erase(Key64{42}));
    EXPECT_FALSE(t.lookup(Key64{42}).has_value());
    EXPECT_FALSE(t.erase(Key64{42}));
    EXPECT_EQ(t.size(), 0u);
}

TEST(CuckooHash, UpdateOverwrites)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint32_t> t(mem, 64);
    EXPECT_TRUE(t.insert(Key64{1}, 10));
    EXPECT_TRUE(t.insert(Key64{1}, 20));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(*t.lookup(Key64{1}), 20u);
}

TEST(CuckooHash, MatchesUnorderedMapUnderChurn)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint64_t> t(mem, 4096);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Xorshift64 rng(99);

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t k = rng.next_below(3000);
        switch (rng.next_below(3)) {
          case 0: {
            std::uint64_t v = rng.next();
            if (t.insert(Key64{k}, v))
                ref[k] = v;
            break;
          }
          case 1:
            EXPECT_EQ(t.erase(Key64{k}), ref.erase(k) > 0);
            break;
          default: {
            auto got = t.lookup(Key64{k});
            auto it = ref.find(k);
            if (it == ref.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second);
            }
          }
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

TEST(CuckooHash, HandlesKicksAtHighLoad)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint32_t> t(mem, 512);
    // Insert up to ~70% of raw capacity; displacement must kick in
    // without losing any key.
    const std::uint32_t n =
        static_cast<std::uint32_t>(t.num_buckets() * 4 * 7 / 10);
    for (std::uint32_t i = 0; i < n; ++i)
        ASSERT_TRUE(t.insert(Key64{i * 2654435761ull}, i)) << i;
    for (std::uint32_t i = 0; i < n; ++i) {
        auto v = t.lookup(Key64{i * 2654435761ull});
        ASSERT_TRUE(v.has_value()) << i;
        EXPECT_EQ(*v, i);
    }
}

TEST(CuckooHash, FiveTupleKeys)
{
    SimMemory mem;
    CuckooHash<FiveTuple, std::uint64_t> t(mem, 1024);
    FiveTuple a{};
    a.src_ip = Ipv4Addr::make(10, 0, 0, 1);
    a.dst_ip = Ipv4Addr::make(10, 0, 0, 2);
    a.src_port = 1234;
    a.dst_port = 80;
    a.proto = kIpProtoTcp;
    EXPECT_TRUE(t.insert(a, 99));
    FiveTuple b = a;
    EXPECT_EQ(*t.lookup(b), 99u);
    b.src_port = 1235;
    EXPECT_FALSE(t.lookup(b).has_value());
}

TEST(CuckooHash, ReportsAccesses)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint32_t> t(mem, 64);
    CountingSink sink;
    t.insert(Key64{5}, 1, &sink);
    EXPECT_GT(sink.loads + sink.stores, 0);
    int loads_before = sink.loads;
    t.lookup(Key64{5}, &sink);
    EXPECT_GT(sink.loads, loads_before);
}

TEST(NaiveLpm, BasicLongestMatch)
{
    NaiveLpm t;
    t.add({Ipv4Addr::make(10, 0, 0, 0), 8, 1});
    t.add({Ipv4Addr::make(10, 1, 0, 0), 16, 2});
    t.add({Ipv4Addr::make(10, 1, 1, 0), 24, 3});
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 9, 9, 9)), 1u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 1, 9, 9)), 2u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 1, 1, 9)), 3u);
    EXPECT_FALSE(t.lookup(Ipv4Addr::make(11, 0, 0, 1)).has_value());
}

TEST(Dir24_8, ShortPrefixes)
{
    SimMemory mem;
    Dir24_8 t(mem);
    EXPECT_TRUE(t.add({Ipv4Addr::make(10, 0, 0, 0), 8, 1}));
    EXPECT_TRUE(t.add({Ipv4Addr::make(10, 1, 0, 0), 16, 2}));
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 200, 0, 1)), 1u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 1, 3, 4)), 2u);
    EXPECT_FALSE(t.lookup(Ipv4Addr::make(9, 0, 0, 1)).has_value());
}

TEST(Dir24_8, LongPrefixesUseTbl8)
{
    SimMemory mem;
    Dir24_8 t(mem);
    EXPECT_TRUE(t.add({Ipv4Addr::make(10, 0, 0, 0), 24, 1}));
    EXPECT_TRUE(t.add({Ipv4Addr::make(10, 0, 0, 128), 25, 2}));
    EXPECT_TRUE(t.add({Ipv4Addr::make(10, 0, 0, 200), 32, 3}));
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 0, 0, 1)), 1u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 0, 0, 129)), 2u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 0, 0, 200)), 3u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(10, 0, 0, 201)), 2u);
}

TEST(Dir24_8, DefaultRoute)
{
    SimMemory mem;
    Dir24_8 t(mem);
    EXPECT_TRUE(t.add({Ipv4Addr::make(0, 0, 0, 0), 0, 42}));
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(1, 2, 3, 4)), 42u);
    EXPECT_TRUE(t.add({Ipv4Addr::make(1, 0, 0, 0), 8, 7}));
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(1, 2, 3, 4)), 7u);
    EXPECT_EQ(*t.lookup(Ipv4Addr::make(2, 2, 3, 4)), 42u);
}

TEST(Dir24_8, InsertionOrderIndependent)
{
    SimMemory mem;
    Dir24_8 a(mem), b(mem);
    std::vector<Route> routes = {
        {Ipv4Addr::make(10, 0, 0, 0), 8, 1},
        {Ipv4Addr::make(10, 1, 0, 0), 16, 2},
        {Ipv4Addr::make(10, 1, 1, 128), 25, 3},
    };
    for (const auto &r : routes)
        EXPECT_TRUE(a.add(r));
    for (auto it = routes.rbegin(); it != routes.rend(); ++it)
        EXPECT_TRUE(b.add(*it));
    for (std::uint32_t probe :
         {0x0A000001u, 0x0A010101u, 0x0A010181u, 0x0AFFFFFFu}) {
        EXPECT_EQ(a.lookup(Ipv4Addr{probe}), b.lookup(Ipv4Addr{probe}));
    }
}

TEST(Dir24_8, AccountsOneOrTwoAccesses)
{
    SimMemory mem;
    Dir24_8 t(mem);
    t.add({Ipv4Addr::make(10, 0, 0, 0), 8, 1});
    t.add({Ipv4Addr::make(20, 0, 0, 128), 25, 2});

    CountingSink s1;
    t.lookup(Ipv4Addr::make(10, 1, 1, 1), &s1);
    EXPECT_EQ(s1.loads, 1);

    CountingSink s2;
    t.lookup(Ipv4Addr::make(20, 0, 0, 130), &s2);
    EXPECT_EQ(s2.loads, 2);

    // A default-route hit costs the accesses of the slot it falls
    // back from: 1 from an empty tbl24 slot, 2 from an empty tbl8
    // entry beside the /25.
    t.add({Ipv4Addr::make(0, 0, 0, 0), 0, 3});
    CountingSink s3;
    EXPECT_EQ(t.lookup(Ipv4Addr::make(30, 1, 1, 1), &s3), 3);
    EXPECT_EQ(s3.loads, 1);

    CountingSink s4;
    EXPECT_EQ(t.lookup(Ipv4Addr::make(20, 0, 0, 5), &s4), 3);
    EXPECT_EQ(s4.loads, 2);
}

TEST(Dir24_8, MatchesNaiveOnRandomRouteSets)
{
    SimMemory mem;
    Dir24_8 fast(mem, 1024);
    NaiveLpm ref;
    std::vector<Route> added;
    Xorshift64 rng(2026);

    // Compare next hop and matched depth. Every other probe lands in
    // the /24 of an added route, where tbl8 groups and their empty
    // entries live; the rest are uniform.
    auto check = [&] {
        for (int i = 0; i < 5000; ++i) {
            std::uint32_t v = static_cast<std::uint32_t>(rng.next());
            if (i % 2)
                v = (added[rng.next_below(added.size())].prefix.value &
                     ~0xFFu) | (v & 0xFF);
            const Ipv4Addr probe{v};
            std::uint8_t fast_depth = 0xFF;
            std::uint8_t ref_depth = 0xFF;
            ASSERT_EQ(fast.lookup(probe, nullptr, &fast_depth),
                      ref.lookup(probe, &ref_depth))
                << probe.to_string();
            ASSERT_EQ(fast_depth, ref_depth) << probe.to_string();
        }
    };
    auto add = [&](const Route &r) {
        ref.add(r);
        ASSERT_TRUE(fast.add(r));
        added.push_back(r);
    };

    // A /0 before any tbl8 group exists; the random set below adds
    // and replaces /0 again after groups exist.
    add({Ipv4Addr{0}, 0, 100});
    check();
    int defaults_after_groups = 0;
    bool groups = false;
    for (int i = 0; i < 300; ++i) {
        Route r;
        r.prefix = Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
        r.prefix_len = static_cast<std::uint8_t>(rng.next_below(33));
        r.next_hop = static_cast<std::uint16_t>(rng.next_below(100));
        // Normalize the prefix to its network address.
        const std::uint32_t mask =
            r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
        r.prefix.value &= mask;
        groups = groups || r.prefix_len > 24;
        defaults_after_groups += groups && r.prefix_len == 0;
        add(r);
        if (i % 50 == 49)
            check();
    }
    EXPECT_GE(defaults_after_groups, 2);
}

TEST(CuckooHash, HighLoadChurnCyclesMatchReference)
{
    SimMemory mem;
    CuckooHash<Key64, std::uint32_t> t(mem, 4096);
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    Xorshift64 rng(77);

    // Fill to a high load factor, then cycle erase/reinsert waves so
    // slots get reused and kick chains cross previously-freed buckets.
    for (int cycle = 0; cycle < 6; ++cycle) {
        while (t.load_factor() < 0.80) {
            const std::uint64_t k = rng.next_below(1 << 20);
            const auto v = static_cast<std::uint32_t>(rng.next());
            if (t.insert(Key64{k}, v))
                ref[k] = v;
            else
                ref.erase(k);  // failed insert also erases nothing new
        }
        // Erase roughly a quarter of the live keys.
        std::vector<std::uint64_t> victims;
        for (const auto &kv : ref)
            if (rng.next_below(4) == 0)
                victims.push_back(kv.first);
        for (std::uint64_t k : victims) {
            EXPECT_TRUE(t.erase(Key64{k}));
            ref.erase(k);
        }
        // Spot-check agreement after each wave.
        for (const auto &kv : ref) {
            auto v = t.lookup(Key64{kv.first});
            ASSERT_TRUE(v.has_value()) << kv.first;
            EXPECT_EQ(*v, kv.second);
        }
        EXPECT_EQ(t.size(), ref.size());
    }
    // Stats must stay consistent with the live count.
    const CuckooStats &st = t.stats();
    EXPECT_EQ(st.inserts - st.erases, t.size());
    EXPECT_GT(st.displacements, 0u);  // 80% load forces kicks
    EXPECT_GT(st.max_kick_chain, 0u);
}

TEST(CuckooHash, FailedInsertLeavesTableIntact)
{
    SimMemory mem;
    // Tiny table so insertion failure is reachable.
    CuckooHash<Key64, std::uint32_t> t(mem, 4);
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    Xorshift64 rng(5);
    bool failed = false;
    for (std::uint64_t i = 0; i < 100000 && !failed; ++i) {
        const std::uint64_t k = rng.next();
        const auto v = static_cast<std::uint32_t>(i);
        if (t.insert(Key64{k}, v))
            ref[k] = v;
        else
            failed = true;
    }
    ASSERT_TRUE(failed) << "table never filled";
    EXPECT_EQ(t.stats().failed_inserts, 1u);
    // A failed insert unwinds its kick chain: every previously
    // inserted key must still be present with its original value.
    EXPECT_EQ(t.size(), ref.size());
    for (const auto &kv : ref) {
        auto v = t.lookup(Key64{kv.first});
        ASSERT_TRUE(v.has_value()) << kv.first;
        EXPECT_EQ(*v, kv.second);
    }
}

TEST(CuckooHash, DeterministicDisplacement)
{
    // Same seed + same operation sequence => identical displacement
    // decisions, hence identical stats and layout-sensitive counters.
    SimMemory mem_a, mem_b;
    CuckooHash<Key64, std::uint32_t> a(mem_a, 512, 0xABCDEFull);
    CuckooHash<Key64, std::uint32_t> b(mem_b, 512, 0xABCDEFull);
    Xorshift64 rng(9);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t k = rng.next_below(4096);
        if (rng.next_below(5) == 0) {
            EXPECT_EQ(a.erase(Key64{k}), b.erase(Key64{k}));
        } else {
            const auto v = static_cast<std::uint32_t>(i);
            EXPECT_EQ(a.insert(Key64{k}, v), b.insert(Key64{k}, v));
        }
    }
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.stats().inserts, b.stats().inserts);
    EXPECT_EQ(a.stats().displacements, b.stats().displacements);
    EXPECT_EQ(a.stats().failed_inserts, b.stats().failed_inserts);
    EXPECT_EQ(a.stats().max_kick_chain, b.stats().max_kick_chain);

    // A different seed may legitimately displace differently; the
    // tables must still agree on contents even if stats differ.
    SimMemory mem_c;
    CuckooHash<Key64, std::uint32_t> c(mem_c, 512, 0x1234ull);
    Xorshift64 rng2(9);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t k = rng2.next_below(4096);
        if (rng2.next_below(5) == 0)
            c.erase(Key64{k});
        else
            c.insert(Key64{k}, static_cast<std::uint32_t>(i));
    }
    for (std::uint64_t k = 0; k < 4096; ++k)
        EXPECT_EQ(a.lookup(Key64{k}).has_value(),
                  c.lookup(Key64{k}).has_value())
            << k;
}

TEST(Dir24_8, OverlappingPrefixChain)
{
    SimMemory mem;
    Dir24_8 t(mem, 1024);
    // Nested prefixes: each more-specific route shadows the broader
    // one for its own range only.
    ASSERT_TRUE(t.add({Ipv4Addr::make(10, 0, 0, 0), 8, 1}));
    ASSERT_TRUE(t.add({Ipv4Addr::make(10, 1, 0, 0), 16, 2}));
    ASSERT_TRUE(t.add({Ipv4Addr::make(10, 1, 1, 0), 24, 3}));
    ASSERT_TRUE(t.add({Ipv4Addr::make(10, 1, 1, 7), 32, 4}));

    EXPECT_EQ(t.lookup(Ipv4Addr::make(10, 9, 9, 9)), 1);
    EXPECT_EQ(t.lookup(Ipv4Addr::make(10, 1, 9, 9)), 2);
    EXPECT_EQ(t.lookup(Ipv4Addr::make(10, 1, 1, 9)), 3);
    EXPECT_EQ(t.lookup(Ipv4Addr::make(10, 1, 1, 7)), 4);
    // Outside 10/8 entirely: no route.
    EXPECT_FALSE(t.lookup(Ipv4Addr::make(11, 1, 1, 7)).has_value());

    // Same chain against the reference implementation.
    NaiveLpm ref;
    ref.add({Ipv4Addr::make(10, 0, 0, 0), 8, 1});
    ref.add({Ipv4Addr::make(10, 1, 0, 0), 16, 2});
    ref.add({Ipv4Addr::make(10, 1, 1, 0), 24, 3});
    ref.add({Ipv4Addr::make(10, 1, 1, 7), 32, 4});
    Xorshift64 rng(31);
    for (int i = 0; i < 5000; ++i) {
        Ipv4Addr probe{static_cast<std::uint32_t>(rng.next())};
        EXPECT_EQ(t.lookup(probe), ref.lookup(probe)) << probe.to_string();
    }
}

TEST(Dir24_8, DefaultRouteOnly)
{
    SimMemory mem;
    Dir24_8 t(mem, 64);
    ASSERT_TRUE(t.add({Ipv4Addr::make(0, 0, 0, 0), 0, 9}));
    // Every address matches the default route.
    Xorshift64 rng(13);
    for (int i = 0; i < 1000; ++i) {
        Ipv4Addr probe{static_cast<std::uint32_t>(rng.next())};
        EXPECT_EQ(t.lookup(probe), 9);
    }
    // A /32 on top of a default route wins for exactly one address.
    ASSERT_TRUE(t.add({Ipv4Addr::make(192, 168, 0, 1), 32, 5}));
    EXPECT_EQ(t.lookup(Ipv4Addr::make(192, 168, 0, 1)), 5);
    EXPECT_EQ(t.lookup(Ipv4Addr::make(192, 168, 0, 2)), 9);

    // The other order: the /32's group exists before the /0, which
    // then answers for the group's empty entries at depth 0.
    Dir24_8 u(mem, 64);
    ASSERT_TRUE(u.add({Ipv4Addr::make(192, 168, 0, 1), 32, 5}));
    EXPECT_FALSE(u.lookup(Ipv4Addr::make(192, 168, 0, 2)).has_value());
    ASSERT_TRUE(u.add({Ipv4Addr::make(0, 0, 0, 0), 0, 9}));
    std::uint8_t depth = 0xFF;
    EXPECT_EQ(u.lookup(Ipv4Addr::make(192, 168, 0, 1), nullptr, &depth), 5);
    EXPECT_EQ(depth, 32);
    EXPECT_EQ(u.lookup(Ipv4Addr::make(192, 168, 0, 2), nullptr, &depth), 9);
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(u.lookup(Ipv4Addr::make(7, 7, 7, 7), nullptr, &depth), 9);
    EXPECT_EQ(depth, 0);
}

} // namespace
} // namespace pmill
