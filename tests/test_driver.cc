/**
 * @file
 * Tests for the driver layer: mbuf layout, mempool allocation
 * semantics, the standard PMD RX/TX flow against a simulated NIC,
 * and the X-Change PMD's buffer-exchange behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>

#include "src/driver/mempool.hh"
#include "src/driver/pmd.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/packet_builder.hh"
#include "src/nic/nic_device.hh"

namespace pmill {
namespace {

struct DriverFixture : public ::testing::Test {
    DriverFixture()
        : caches(CacheConfig{}), nic(make_cfg(), caches, mem),
          pool(mem, 1024), pmd(nic, pool, 0)
    {
    }

    static NicConfig
    make_cfg()
    {
        NicConfig c;
        c.rx_ring_size = 64;
        c.tx_ring_size = 64;
        return c;
    }

    std::vector<std::uint8_t>
    frame(std::uint32_t len = 128, std::uint16_t port = 1000)
    {
        FrameSpec spec;
        spec.frame_len = len;
        spec.flow.src_port = port;
        return build_frame(spec);
    }

    SimMemory mem;
    CacheHierarchy caches;
    NicDevice nic;
    Mempool pool;
    PmdStandard pmd;
};

TEST(Mbuf, LayoutConstants)
{
    EXPECT_EQ(kMbufElementBytes,
              kMbufStructBytes + kMbufAnnoBytes + kMbufHeadroomBytes +
                  kMbufDataRoomBytes);
    EXPECT_LE(sizeof(RteMbuf), std::size_t{128});
}

TEST(Mempool, AllocFreeRoundTrip)
{
    SimMemory mem;
    Mempool pool(mem, 64);
    EXPECT_EQ(pool.free_count(), 64u);
    MbufRef a = pool.alloc(nullptr);
    ASSERT_TRUE(a);
    EXPECT_EQ(pool.free_count(), 63u);
    EXPECT_EQ(a.m->data_off, kMbufHeadroomBytes);
    EXPECT_EQ(a.m->refcnt, 1);
    pool.free(a, nullptr);
    EXPECT_EQ(pool.free_count(), 64u);
}

TEST(Mempool, LifoRecycling)
{
    SimMemory mem;
    Mempool pool(mem, 64);
    MbufRef a = pool.alloc(nullptr);
    const std::uint64_t idx = a.m->pool_elem;
    pool.free(a, nullptr);
    MbufRef b = pool.alloc(nullptr);
    EXPECT_EQ(b.m->pool_elem, idx) << "per-lcore cache is LIFO";
}

TEST(Mempool, ExhaustionReturnsNull)
{
    SimMemory mem;
    Mempool pool(mem, 4);
    MbufRef refs[4];
    for (auto &r : refs) {
        r = pool.alloc(nullptr);
        EXPECT_TRUE(r);
    }
    EXPECT_FALSE(pool.alloc(nullptr));
    pool.free(refs[0], nullptr);
    EXPECT_TRUE(pool.alloc(nullptr));
}

TEST(Mempool, OwnerOfMapsInteriorAddresses)
{
    SimMemory mem;
    Mempool pool(mem, 8);
    MbufRef a = pool.ref(3);
    MbufRef found = pool.owner_of(a.m->frame_addr() + 77);
    EXPECT_EQ(found.m->pool_elem, 3u);
}

TEST_F(DriverFixture, RxBurstConvertsCqeToMbuf)
{
    pmd.setup_rx(nullptr);
    auto f = frame(256);
    ASSERT_TRUE(nic.deliver(0, 256, 10.0, [&] { return f.data(); }));

    MbufRef out[32];
    const std::uint32_t n = pmd.rx_burst(1e6, out, 32, nullptr);
    ASSERT_EQ(n, 1u);
    EXPECT_EQ(out[0].m->pkt_len, 256u);
    EXPECT_EQ(out[0].m->data_len, 256u);
    EXPECT_GT(out[0].m->timestamp, 10.0);
    // The frame bytes landed in the buffer.
    EXPECT_EQ(std::memcmp(out[0].m->frame_host(), f.data(), 256), 0);
    // RSS hash got computed for the IPv4 frame.
    EXPECT_NE(out[0].m->rss_hash, 0u);
}

TEST_F(DriverFixture, RxBurstRespectsCompletionTime)
{
    pmd.setup_rx(nullptr);
    auto f = frame();
    ASSERT_TRUE(nic.deliver(0, 128, 1000.0, [&] { return f.data(); }));
    MbufRef out[32];
    // Poll before the DMA completes: nothing.
    EXPECT_EQ(pmd.rx_burst(1.0, out, 32, nullptr), 0u);
    EXPECT_EQ(pmd.rx_burst(1e9, out, 32, nullptr), 1u);
}

TEST_F(DriverFixture, RingReplenishedAfterRx)
{
    pmd.setup_rx(nullptr);
    const std::size_t before = nic.rx_free_descs(0);
    auto f = frame();
    nic.deliver(0, 128, 1.0, [&] { return f.data(); });
    MbufRef out[32];
    pmd.rx_burst(1e9, out, 32, nullptr);
    EXPECT_EQ(nic.rx_free_descs(0), before)
        << "rx_burst must replenish what the NIC consumed";
}

TEST_F(DriverFixture, TxRoundTripFreesBuffers)
{
    pmd.setup_rx(nullptr);
    const std::size_t free_before = pool.free_count();
    auto f = frame(200);
    nic.deliver(0, 200, 1.0, [&] { return f.data(); });
    MbufRef out[32];
    ASSERT_EQ(pmd.rx_burst(1e9, out, 32, nullptr), 1u);
    ASSERT_EQ(pmd.tx_burst(out, 1, 2000.0, nullptr), 1u);

    std::vector<TxCompletion> done;
    nic.drain_tx(1e9, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].len, 200u);
    EXPECT_GT(done[0].departure_ns, done[0].arrival_ns);
    pmd.on_tx_complete(done[0]);

    // Next tx_burst performs the deferred free.
    pmd.tx_burst(out, 0, 0, nullptr);
    EXPECT_EQ(pool.free_count(), free_before);
}

TEST_F(DriverFixture, DropWhenNoDescriptors)
{
    // No setup_rx: the RX ring is empty.
    auto f = frame();
    EXPECT_FALSE(nic.deliver(0, 128, 1.0, [&] { return f.data(); }));
    EXPECT_EQ(nic.stats().rx_drops_no_desc, 1u);
}

// A refused frame is counted and never built: deliver() asks the
// queue for a descriptor and a CQ slot before it calls the writer.
TEST(SourceContract, RefusedFrameIsNeverWritten)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.rx_ring_size = 4;
    NicDevice nic(nc, caches, mem);
    FrameSpec spec;
    spec.frame_len = 128;
    const auto f = build_frame(spec);
    int writes = 0;
    auto write = [&] {
        ++writes;
        return f.data();
    };

    // No descriptor posted.
    EXPECT_FALSE(nic.deliver(0, 128, 1.0, write));
    EXPECT_EQ(writes, 0);
    EXPECT_EQ(nic.stats().rx_drops_no_desc, 1u);

    // Each accepted frame is written exactly once.
    const MemHandle bufs = mem.alloc(4 * 2048, 64, Region::kPacketData);
    for (std::uint32_t i = 0; i < 4; ++i)
        ASSERT_TRUE(nic.replenish(
            0, RxDescriptor{bufs.at(i * 2048), bufs.host + i * 2048}));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(nic.deliver(0, 128, 10.0 + i, write));
    EXPECT_EQ(writes, 4);

    // Nothing polled, so the completion ring is full: a frame that
    // finds a fresh descriptor is still refused, for the CQ.
    ASSERT_TRUE(nic.replenish(0, RxDescriptor{bufs.addr, bufs.host}));
    EXPECT_FALSE(nic.deliver(0, 128, 20.0, write));
    EXPECT_EQ(writes, 4);
    const NicStats s = nic.stats();
    EXPECT_EQ(s.rx_drops_pcie, 1u);
    EXPECT_EQ(s.rx_drops_no_desc, 1u);
    EXPECT_EQ(s.rx_frames, 4u);
}

/** Minimal adapter for PmdXchg tests: a fixed array of slots. */
class TestAdapter : public XchgAdapter {
  public:
    explicit TestAdapter(SimMemory &mem)
    {
        bufs_ = mem.alloc(kCount * 2048, 64, Region::kPacketData);
        for (std::uint32_t i = 0; i < kCount; ++i)
            spares_.push_back(i);
    }

    struct Pkt {
        Addr buf = 0;
        std::uint8_t *host = nullptr;
        std::uint32_t len = 0;
        TimeNs ts = 0;
    };

    bool
    next_rx_slot(RxSlot &slot, AccessSink *) override
    {
        if (spares_.empty())
            return false;
        const std::uint32_t i = spares_.back();
        spares_.pop_back();
        slot.pkt = &pkts_[cursor_];
        cursor_ = (cursor_ + 1) % kPkts;
        slot.spare_buf_addr = bufs_.addr + i * 2048ull;
        slot.spare_buf_host = bufs_.host + i * 2048ull;
        return true;
    }

    void
    set_buffer(void *pkt, Addr a, std::uint8_t *h, AccessSink *) override
    {
        auto *p = static_cast<Pkt *>(pkt);
        p->buf = a;
        p->host = h;
    }
    void
    set_len(void *pkt, std::uint32_t len, AccessSink *) override
    {
        static_cast<Pkt *>(pkt)->len = len;
    }
    void set_vlan_tci(void *, std::uint16_t, AccessSink *) override {}
    void set_rss_hash(void *, std::uint32_t, AccessSink *) override {}
    void
    set_timestamp(void *pkt, TimeNs t, AccessSink *) override
    {
        static_cast<Pkt *>(pkt)->ts = t;
    }
    void set_packet_type(void *, std::uint32_t, AccessSink *) override {}

    Addr
    tx_buffer_addr(void *pkt, AccessSink *) override
    {
        return static_cast<Pkt *>(pkt)->buf;
    }
    std::uint8_t *
    tx_buffer_host(void *pkt) override
    {
        return static_cast<Pkt *>(pkt)->host;
    }
    std::uint32_t
    tx_len(void *pkt, AccessSink *) override
    {
        return static_cast<Pkt *>(pkt)->len;
    }
    TimeNs
    tx_arrival(void *pkt) override
    {
        return static_cast<Pkt *>(pkt)->ts;
    }
    void
    recycle_buffer(Addr a, std::uint8_t *, AccessSink *) override
    {
        spares_.push_back(
            static_cast<std::uint32_t>((a - bufs_.addr) / 2048));
    }

    std::size_t spare_count() const { return spares_.size(); }

    static constexpr std::uint32_t kCount = 128;
    static constexpr std::uint32_t kPkts = 64;

  private:
    MemHandle bufs_;
    std::vector<std::uint32_t> spares_;
    Pkt pkts_[kPkts];
    std::uint32_t cursor_ = 0;
};

TEST(PmdXchg, ExchangesBuffersWithoutAPool)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.rx_ring_size = 32;
    nc.tx_ring_size = 32;
    NicDevice nic(nc, caches, mem);
    TestAdapter adapter(mem);
    PmdXchg pmd(nic, adapter, 0);

    EXPECT_EQ(pmd.setup_rx(32), 32u);
    const std::size_t spares_after_setup = adapter.spare_count();

    FrameSpec spec;
    spec.frame_len = 300;
    auto f = build_frame(spec);
    ASSERT_TRUE(nic.deliver(0, 300, 5.0, [&] { return f.data(); }));

    void *pkts[32];
    ASSERT_EQ(pmd.rx_burst(1e9, pkts, 32, nullptr), 1u);
    auto *p = static_cast<TestAdapter::Pkt *>(pkts[0]);
    EXPECT_EQ(p->len, 300u);
    EXPECT_EQ(std::memcmp(p->host, f.data(), 300), 0);
    // One spare was consumed for the exchange; the ring stays full.
    EXPECT_EQ(adapter.spare_count(), spares_after_setup - 1);
    EXPECT_EQ(nic.rx_free_descs(0), 32u);

    // Transmit and complete: the buffer returns as a spare.
    ASSERT_EQ(pmd.tx_burst(pkts, 1, 1000.0, nullptr), 1u);
    std::vector<TxCompletion> done;
    nic.drain_tx(1e12, done);
    ASSERT_EQ(done.size(), 1u);
    pmd.on_tx_complete(done[0]);
    pmd.tx_burst(pkts, 0, 0, nullptr);  // triggers recycle
    EXPECT_EQ(adapter.spare_count(), spares_after_setup);
}

TEST(NicDevice, TxSerializationOrdersDepartures)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    NicDevice nic(nc, caches, mem);
    MemHandle buf = mem.alloc(4096, 64, Region::kPacketData);

    for (int i = 0; i < 3; ++i) {
        TxDescriptor d;
        d.buf_addr = buf.addr;
        d.buf_host = buf.host;
        d.len = 1000;
        d.post_ns = 100.0;
        ASSERT_TRUE(nic.post_tx(0, d));
    }
    std::vector<TxCompletion> done;
    nic.drain_tx(1e9, done);
    ASSERT_EQ(done.size(), 3u);
    // Back-to-back serialization: departures spaced by wire time.
    const double wire = nic.wire_time_ns(1000);
    EXPECT_NEAR(done[1].departure_ns - done[0].departure_ns, wire, 1.0);
    EXPECT_NEAR(done[2].departure_ns - done[1].departure_ns, wire, 1.0);
}

// Queue heads take the wire in post order (earliest post_ns first,
// ties to the lower queue), so one late drain and a drain every 10 ns
// emit the same (queue, departure) sequence. Round-robin over queue
// heads would let the late drain send q0's 900-ns frame first.
TEST(NicDevice, TxDrainIsPostOrderedWhateverTheCadence)
{
    struct Post {
        std::uint32_t queue;
        double post_ns;
    };
    const Post posts[] = {{3, 200.0},  {2, 200.0}, {1, 350.0}, {3, 600.0},
                          {0, 900.0},  {1, 950.0}, {2, 1400.0},
                          {0, 1500.0}};
    using Seq = std::vector<std::pair<std::uint32_t, double>>;
    auto drain = [&](bool every_10ns) {
        SimMemory mem;
        CacheHierarchy caches;
        NicConfig nc;
        nc.num_queues = 4;
        NicDevice nic(nc, caches, mem);
        MemHandle buf = mem.alloc(4096, 64, Region::kPacketData);
        for (const Post &p : posts) {
            TxDescriptor d;
            d.buf_addr = buf.addr;
            d.buf_host = buf.host;
            d.len = 1000;
            d.post_ns = p.post_ns;
            EXPECT_TRUE(nic.post_tx(p.queue, d));
        }
        std::vector<TxCompletion> done;
        if (every_10ns) {
            for (double now = 0; now <= 5000.0; now += 10.0)
                nic.drain_tx(now, done);
        } else {
            nic.drain_tx(5000.0, done);
        }
        Seq seq;
        for (const TxCompletion &c : done)
            seq.emplace_back(c.queue, c.departure_ns);
        return seq;
    };
    const Seq late = drain(false);
    const Seq cadenced = drain(true);
    ASSERT_EQ(late.size(), 8u);
    EXPECT_EQ(late, cadenced);
    const std::uint32_t order[] = {2, 3, 1, 3, 0, 1, 2, 0};
    for (std::size_t i = 0; i < late.size(); ++i)
        EXPECT_EQ(late[i].first, order[i]) << "departure " << i;
}

TEST(NicDevice, RssSpreadsFlowsAcrossQueues)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.num_queues = 4;
    NicDevice nic(nc, caches, mem);

    std::set<std::uint32_t> queues;
    for (int i = 0; i < 64; ++i) {
        FrameSpec spec;
        spec.flow.src_port = static_cast<std::uint16_t>(1000 + i);
        auto f = build_frame(spec);
        queues.insert(nic.rss_queue(
            extract_tuple(f.data(), static_cast<std::uint32_t>(f.size()))));
    }
    EXPECT_EQ(queues.size(), 4u) << "64 flows should hit all 4 queues";
}

// The legacy (indirection-disabled) RSS mapping is pinned to exactly
// rss_hash(tuple) % num_queues. Non-power-of-two queue counts bias
// the low queues and any queue-count change remaps every flow — that
// behaviour is what the indirection table fixes when opted into, so
// the default must never drift (every pre-indirection golden depends
// on it).
TEST(RssMapping, LegacyModuloPinned)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.num_queues = 3;  // the biased, non-power-of-two case
    NicDevice nic(nc, caches, mem);

    for (int i = 0; i < 64; ++i) {
        FrameSpec spec;
        spec.flow.src_port = static_cast<std::uint16_t>(2000 + i);
        const auto f = build_frame(spec);
        const std::uint32_t len = static_cast<std::uint32_t>(f.size());
        const FiveTuple t = extract_tuple(f.data(), len);
        EXPECT_EQ(nic.rss_queue(t), rss_hash(t) % 3)
            << "flow " << i;
    }

    // Single queue short-circuits without hashing.
    NicConfig one;
    one.num_queues = 1;
    NicDevice nic1(one, caches, mem);
    const auto f = build_frame(FrameSpec{});
    EXPECT_EQ(nic1.rss_queue(extract_tuple(
                  f.data(), static_cast<std::uint32_t>(f.size()))),
              0u);
}

// The indirection table initializes round-robin (bucket i -> queue
// i % num_queues), which for a power-of-two queue count dividing the
// table size is EXACTLY the legacy modulo mapping — enabling the
// table without reprogramming it must not move a single flow.
TEST(RssIndirection, DefaultTableMatchesLegacyModulo)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig legacy;
    legacy.num_queues = 4;
    NicDevice nic_legacy(legacy, caches, mem);

    NicConfig indirect = legacy;
    indirect.rss_table_size = 128;
    NicDevice nic_table(indirect, caches, mem);
    ASSERT_TRUE(nic_table.rss_indirection_enabled());
    ASSERT_EQ(nic_table.rss_table_size(), 128u);

    for (int i = 0; i < 128; ++i) {
        FrameSpec spec;
        spec.flow.src_port = static_cast<std::uint16_t>(3000 + i);
        const auto f = build_frame(spec);
        const std::uint32_t len = static_cast<std::uint32_t>(f.size());
        const FiveTuple t = extract_tuple(f.data(), len);
        EXPECT_EQ(nic_table.rss_queue(t), nic_legacy.rss_queue(t))
            << "flow " << i;
    }
}

TEST(RssIndirection, ReprogramRedirectsBucketAndCountsLoads)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.num_queues = 4;
    nc.rss_table_size = 64;
    NicDevice nic(nc, caches, mem);

    FrameSpec spec;
    spec.flow.src_port = 4242;
    const auto f = build_frame(spec);
    const std::uint32_t len = static_cast<std::uint32_t>(f.size());
    const FiveTuple t = extract_tuple(f.data(), len);
    const std::uint32_t hash = rss_hash(t);
    const std::uint32_t bucket = hash & 63u;

    EXPECT_EQ(nic.rss_queue(t), nic.rss_table_entry(bucket));
    EXPECT_EQ(nic.rss_entry_load(bucket), 1u);

    const std::uint32_t moved = (nic.rss_table_entry(bucket) + 1) % 4;
    nic.set_rss_table_entry(bucket, moved);
    EXPECT_EQ(nic.rss_queue(t), moved);
    EXPECT_EQ(nic.rss_entry_load(bucket), 2u);

    nic.reset_rss_entry_loads();
    EXPECT_EQ(nic.rss_entry_load(bucket), 0u);
}

// The per-metric rate helpers read one cached summed snapshot instead
// of re-summing the per-queue shards on every call; the cache must be
// indistinguishable from a fresh stats() sum at any serial point.
TEST(NicDevice, StatsSnapshotMatchesFreshSum)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.num_queues = 2;
    NicDevice nic(nc, caches, mem);

    // No posted RX descriptors: every delivery is a no-desc drop,
    // which still dirties the snapshot.
    for (int i = 0; i < 5; ++i) {
        FrameSpec spec;
        spec.flow.src_port = static_cast<std::uint16_t>(5000 + i);
        const auto f = build_frame(spec);
        const auto len = static_cast<std::uint32_t>(f.size());
        nic.deliver(nic.rss_queue(extract_tuple(f.data(), len)), len,
                    1000.0 * i, [&] { return f.data(); });
    }

    const NicStats fresh = nic.stats();
    const NicStats &snap = nic.stats_snapshot();
    EXPECT_EQ(snap.rx_frames, fresh.rx_frames);
    EXPECT_EQ(snap.rx_bytes, fresh.rx_bytes);
    EXPECT_EQ(snap.rx_drops_no_desc, fresh.rx_drops_no_desc);
    EXPECT_EQ(snap.rx_drops_pcie, fresh.rx_drops_pcie);
    EXPECT_EQ(snap.tx_frames, fresh.tx_frames);
    EXPECT_EQ(snap.tx_bytes, fresh.tx_bytes);
    EXPECT_EQ(fresh.rx_drops_no_desc, 5u);

    nic.stats_reset();
    EXPECT_EQ(nic.stats_snapshot().rx_drops_no_desc, 0u);
    EXPECT_EQ(nic.stats().rx_drops_no_desc, 0u);
}

} // namespace
} // namespace pmill
