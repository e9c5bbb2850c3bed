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
#include "src/mem/payload_park.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/packet_builder.hh"
#include "src/nic/nic_device.hh"
#include "tests/residency.hh"

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
    // The first element handed out gets its full header on that use.
    const std::uint32_t idx = static_cast<std::uint32_t>(a.m->pool_elem);
    EXPECT_EQ(idx, 63u) << "LIFO hands out the top element first";
    EXPECT_EQ(a.addr, pool.elem_addr(idx));
    EXPECT_EQ(a.m->buf_addr, pool.elem_addr(idx) + kMbufBufOffset);
    EXPECT_EQ(a.m->buf_host,
              reinterpret_cast<std::uint8_t *>(pool.elem_host(idx)) +
                  kMbufBufOffset);
    pool.free(a, nullptr);
    EXPECT_EQ(pool.free_count(), 64u);
}

TEST(Mempool, HostPagesOnlyForElementsHandedOut)
{
#ifndef __linux__
    GTEST_SKIP() << "residency is measured with Linux mincore";
#else
    SimMemory mem;
    const std::uint32_t n = 16384;
    Mempool pool(mem, n);
    const auto *base = reinterpret_cast<const std::uint8_t *>(
        pool.elem_host(0));
    const std::uint64_t bytes = std::uint64_t(n) * kMbufElementBytes;
    EXPECT_LT(resident_bytes(base, bytes), 64u << 10);

    // LIFO: the first k allocations are the top k elements.
    const std::uint32_t k = 100;
    for (std::uint32_t i = 0; i < k; ++i)
        ASSERT_TRUE(pool.alloc(nullptr));
    const auto *top = reinterpret_cast<const std::uint8_t *>(
        pool.elem_host(n - k));
    EXPECT_LE(resident_bytes(base, bytes),
              spanned_page_bytes(top, std::uint64_t(k) * kMbufElementBytes));
#endif
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

/**
 * Minimal adapter for PmdXchg tests: a fixed array of slots, and the
 * NIC queue's park dock when one is bound.
 */
class TestAdapter : public XchgAdapter {
  public:
    explicit TestAdapter(SimMemory &mem, PayloadPark *park = nullptr)
        : park_(park)
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
        ParkRef park;
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
    void
    set_park(void *pkt, std::uint32_t ticket, std::uint32_t len,
             AccessSink *) override
    {
        static_cast<Pkt *>(pkt)->park =
            ParkRef{ticket, len, park_->slot_addr(ticket),
                    park_->slot_host(ticket)};
    }

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
    ParkRef
    tx_park(void *pkt) override
    {
        return static_cast<Pkt *>(pkt)->park;
    }
    void
    release_parked(void *pkt) override
    {
        ParkRef &p = static_cast<Pkt *>(pkt)->park;
        if (p.ticket != 0)
            park_->release(p.ticket, /*dropped=*/true);
        p = ParkRef{};
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
    PayloadPark *park_;
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

// A burst larger than the free TX ring posts what fits and frees the
// rest back to the pool at once (a driver-side drop the device counts).
TEST(PmdStandard, TxRingOverflowFreesTheRest)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.tx_ring_size = 4;
    NicDevice nic(nc, caches, mem);
    Mempool pool(mem, 64);
    PmdStandard pmd(nic, pool, 0);

    MbufRef burst[8];
    for (MbufRef &m : burst) {
        m = pool.alloc(nullptr);
        ASSERT_TRUE(m);
        m.m->data_len = 128;
    }
    const std::size_t free_before = pool.free_count();
    EXPECT_EQ(pmd.tx_burst(burst, 8, 100.0, nullptr), 4u);
    EXPECT_EQ(pool.free_count(), free_before + 4);
    EXPECT_EQ(nic.stats().tx_drops, 4u);

    std::vector<TxCompletion> done;
    nic.drain_tx(1e9, done);
    ASSERT_EQ(done.size(), 4u);
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i].buf_addr, burst[i].m->frame_addr()) << i;
}

// The X-Change driver hands what does not fit back to the application:
// each buffer becomes a spare again and each parked payload's ticket
// is released as dropped, so none leaks. The posted frames' tickets
// ride their descriptors to the completions.
TEST(PmdXchg, TxRingOverflowRecyclesAndReleasesTickets)
{
    SimMemory mem;
    CacheHierarchy caches;
    NicConfig nc;
    nc.rx_ring_size = 32;
    nc.tx_ring_size = 4;
    NicDevice nic(nc, caches, mem);
    PayloadPark park(mem, 32, kMbufDataRoomBytes);
    nic.bind_queue_park(0, &park, 96);
    TestAdapter adapter(mem, &park);
    PmdXchg pmd(nic, adapter, 0);
    ASSERT_EQ(pmd.setup_rx(32), 32u);

    FrameSpec spec;
    spec.frame_len = 512;
    const auto f = build_frame(spec);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(nic.deliver(0, 512, 10.0 * i, [&] { return f.data(); }));
    void *pkts[8];
    ASSERT_EQ(pmd.rx_burst(1e9, pkts, 8, nullptr), 8u);
    ASSERT_EQ(park.stats().outstanding, 8u);
    const std::size_t spares = adapter.spare_count();

    EXPECT_EQ(pmd.tx_burst(pkts, 8, 2000.0, nullptr), 4u);
    EXPECT_EQ(adapter.spare_count(), spares + 4);
    EXPECT_EQ(nic.stats().tx_drops, 4u);
    PayloadPark::Stats st = park.stats();
    EXPECT_EQ(st.dropped, 4u);
    EXPECT_EQ(st.outstanding, 4u);

    std::vector<TxCompletion> done;
    nic.drain_tx(1e12, done);
    ASSERT_EQ(done.size(), 4u);
    for (const TxCompletion &c : done) {
        EXPECT_EQ(c.park.len, 512u - 96u);
        park.release(c.park.ticket, /*dropped=*/false);
    }
    st = park.stats();
    EXPECT_EQ(st.rejoined, 4u);
    EXPECT_EQ(st.outstanding, 0u);
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

// The NIC's RSS mapping is pinned to exactly rss_hash(tuple) %
// num_queues. Non-power-of-two queue counts bias the low queues and any
// queue-count change remaps every flow; it must never drift (every
// multicore golden depends on it).
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

} // namespace
} // namespace pmill
