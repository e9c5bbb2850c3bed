#include "src/framework/datapath.hh"

#include <bit>
#include <vector>

#include "src/common/log.hh"
#include "src/telemetry/metrics.hh"
#include "src/tracing/tracer.hh"

namespace pmill {

namespace {

constexpr std::uint32_t kMempoolSize = 16384;  ///< mbufs (Copy/Overlay)
constexpr std::uint32_t kAppPoolSize = 4096;   ///< Packet objects (Copying)
constexpr std::uint32_t kXchgMetaSlots = 64;   ///< X-Change metadata objects

/** Shared helper: populate the handle fields common to all models. */
void
fill_handle(PacketHandle &h, Addr data_addr, std::uint8_t *data_host,
            std::uint32_t len, TimeNs arrival)
{
    h.data = data_host;
    h.data_addr = data_addr;
    h.len = len;
    h.arrival_ns = arrival;
    h.trace_id = 0;
    h.out_port = 0;
    h.dropped = false;
}

/**
 * The mbuf family: a standard PMD fills generic mbufs from the
 * datapath's mempool. Copying and Overlaying differ only in how their
 * rx()/tx() convert between the mbuf and the application's packet.
 */
class MbufDatapath : public Datapath {
  public:
    MbufDatapath(NicDevice &nic, SimMemory &mem,
                 const MetadataLayout &layout, std::uint32_t queue)
        : layout_(layout), pool_(mem, kMempoolSize), pmd_(nic, pool_, queue)
    {}

    void
    setup() override
    {
        pmd_.setup_rx(nullptr);
    }

    void
    on_tx_complete(const TxCompletion &c) override
    {
        pmd_.on_tx_complete(c);
    }

    void
    register_metrics(MetricsRegistry &reg,
                     const std::string &prefix) override
    {
        pmd_.register_metrics(reg, prefix);
    }

    double
    pool_occupancy() const override
    {
        return 1.0 - static_cast<double>(pool_.free_count()) /
                         static_cast<double>(pool_.capacity());
    }

    void
    set_tracer(Tracer *t, const std::string &label) override
    {
        pmd_.set_tracer(t, t ? t->intern(label + ".pmd") : 0);
        pool_.set_tracer(t, t ? t->intern(label + ".mempool") : 0);
    }

  protected:
    const MetadataLayout &layout_;
    Mempool pool_;
    PmdStandard pmd_;
};

/**
 * Copying model: standard PMD + per-packet Packet objects copied from
 * the mbuf (double conversion).
 */
class CopyingDatapath final : public MbufDatapath {
  public:
    CopyingDatapath(NicDevice &nic, SimMemory &mem,
                    const MetadataLayout &layout, std::uint32_t queue)
        : MbufDatapath(nic, mem, layout, queue)
    {
        const std::uint64_t obj =
            round_up(layout.total_bytes, kCacheLineBytes);
        // LIFO reuse keeps the written objects to the burst in flight,
        // a few pages of the pool; the freelist line is address-only.
        app_mem_ = mem.alloc_sparse(obj * kAppPoolSize, kCacheLineBytes,
                                    Region::kMetadataPool);
        app_ring_mem_ = mem.alloc_sparse(kAppPoolSize * 4ull,
                                         kCacheLineBytes,
                                         Region::kMetadataPool);
        obj_stride_ = obj;
        app_stack_.reserve(kAppPoolSize);
        for (std::uint32_t i = 0; i < kAppPoolSize; ++i)
            app_stack_.push_back(i);
    }

    std::uint32_t
    rx(TimeNs now, PacketBatch &batch, ExecContext &ctx) override
    {
        MbufRef mbufs[kMaxBurst];
        const std::uint32_t n =
            pmd_.rx_burst(now, mbufs, ctx.burst(), &ctx);
        batch.count = n;
        // Everything past the PMD is the Copying model's conversion
        // work: Packet allocation, the mbuf->Packet field copy, and
        // object construction.
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < n; ++i) {
            RteMbuf *m = mbufs[i].m;

            // Allocate a Packet object from the application pool
            // (FastClick's per-thread freelist: hot head pointer,
            // LIFO recycling).
            PMILL_ASSERT(!app_stack_.empty(),
                         "application pool exhausted");
            ctx.load(app_ring_mem_.addr, 8);
            const std::uint32_t obj_idx = app_stack_.back();
            app_stack_.pop_back();

            PacketHandle &h = batch[i];
            fill_handle(h, m->frame_addr(), m->frame_host(), m->pkt_len,
                        m->timestamp);
            h.meta_addr = app_mem_.addr + obj_idx * obj_stride_;
            h.meta_host = app_mem_.host + obj_idx * obj_stride_;
            h.backing = m;

            // The copy: read the mbuf metadata, write the Packet
            // fields (this is conversion #2; conversion #1 was the
            // PMD's CQE->mbuf copy).
            ctx.load(mbufs[i].addr, kCacheLineBytes);
            ctx.load(mbufs[i].addr + kCacheLineBytes, 16);
            PacketView v = view(h, ctx);
            v.write(Field::kMbufPtr, m->pool_elem);
            v.write(Field::kDataAddr, h.data_addr);
            v.write(Field::kLen, h.len);
            v.write_time(Field::kTimestamp, m->timestamp);
            v.write(Field::kPort, m->port);
            v.write(Field::kPacketType, m->packet_type);
            v.write(Field::kVlanTci, m->vlan_tci);
            v.write(Field::kRssHash, m->rss_hash);
            if (ctx.opts().batch_link)
                v.write(Field::kNextPtr, i + 1 < n ? 1 : 0);
            // Packet construction: vtable/refcount init, annotation
            // clearing, conversion glue (the bulk of Copying's cost).
            ctx.on_compute(20, 50);
        }
        return n;
    }

    void
    tx(PacketBatch &batch, TimeNs now, ExecContext &ctx) override
    {
        MbufRef mbufs[kMaxBurst];
        std::uint32_t n = 0;
        // The Packet->mbuf conversion and Packet-object release are
        // metadata work; the nested mbuf free retags itself kMempool.
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < batch.count; ++i) {
            PacketHandle &h = batch[i];
            if (h.dropped) {
                release(h, ctx, /*free_mbuf=*/true);
                continue;
            }
            // Conversion back: read the Packet fields, update the mbuf.
            PacketView v = view(h, ctx);
            (void)v.read(Field::kDataAddr);
            (void)v.read(Field::kLen);
            auto *m = static_cast<RteMbuf *>(h.backing);
            m->data_off =
                static_cast<std::uint16_t>(h.data_addr - m->buf_addr);
            m->pkt_len = h.len;
            m->data_len = static_cast<std::uint16_t>(h.len);
            m->timestamp = h.arrival_ns;
            ctx.store(mbuf_addr_of(m), kCacheLineBytes);
            ctx.on_compute(8, 20);

            mbufs[n++] = MbufRef{mbuf_addr_of(m), m};
            release(h, ctx, /*free_mbuf=*/false);
        }
        if (n)
            pmd_.tx_burst(mbufs, n, now, &ctx);
    }

    void
    register_metrics(MetricsRegistry &reg,
                     const std::string &prefix) override
    {
        MbufDatapath::register_metrics(reg, prefix);
        reg.add_gauge(prefix + "app_pool_occupancy", [this] {
            return 1.0 - static_cast<double>(app_stack_.size()) /
                             static_cast<double>(kAppPoolSize);
        });
    }

  private:
    Addr
    mbuf_addr_of(RteMbuf *m) const
    {
        return pool_.elem_addr(static_cast<std::uint32_t>(m->pool_elem));
    }

    PacketView
    view(PacketHandle &h, ExecContext &ctx)
    {
        return PacketView(h, layout_, &ctx);
    }

    /** Return the Packet object to the app pool (and maybe the mbuf). */
    void
    release(PacketHandle &h, ExecContext &ctx, bool free_mbuf)
    {
        const std::uint32_t obj_idx = static_cast<std::uint32_t>(
            (h.meta_addr - app_mem_.addr) / obj_stride_);
        ctx.store(app_ring_mem_.addr, 8);
        PMILL_ASSERT(app_stack_.size() < kAppPoolSize,
                     "application pool double free");
        app_stack_.push_back(obj_idx);
        if (free_mbuf) {
            auto *m = static_cast<RteMbuf *>(h.backing);
            pool_.free(MbufRef{mbuf_addr_of(m), m}, &ctx);
        }
    }

    MemHandle app_mem_;
    MemHandle app_ring_mem_;  ///< hot freelist-head line
    std::vector<std::uint32_t> app_stack_;
    std::uint64_t obj_stride_ = 0;
};

/**
 * Overlaying model: standard PMD; the application's Packet *is* the
 * mbuf (cast), annotations live right after the struct.
 */
class OverlayDatapath final : public MbufDatapath {
  public:
    using MbufDatapath::MbufDatapath;

    std::uint32_t
    rx(TimeNs now, PacketBatch &batch, ExecContext &ctx) override
    {
        MbufRef mbufs[kMaxBurst];
        const std::uint32_t n =
            pmd_.rx_burst(now, mbufs, ctx.burst(), &ctx);
        batch.count = n;
        // Overlaying's (small) conversion: annotation init and the
        // optional VPP-style field copy.
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < n; ++i) {
            RteMbuf *m = mbufs[i].m;
            PacketHandle &h = batch[i];
            fill_handle(h, m->frame_addr(), m->frame_host(), m->pkt_len,
                        m->timestamp);
            // Point and cast: metadata is the mbuf itself.
            h.meta_addr = mbufs[i].addr;
            h.meta_host = reinterpret_cast<std::uint8_t *>(m);
            h.backing = m;

            PacketView v(h, layout_, &ctx);
            if (ctx.opts().batch_link) {
                // Initialize the annotation area (one extra line).
                v.write(Field::kNextPtr, i + 1 < n ? 1 : 0);
                v.write(Field::kPaint, 0);
            }
            if (ctx.opts().overlay_field_copy) {
                // VPP-style: copy/convert mbuf fields into the
                // framework's own buffer metadata (vlib_buffer_t),
                // which lives in the area after the rte_mbuf. (Do NOT
                // write through mbuf-mapped fields — vlib keeps its
                // own copies.)
                ctx.load(h.meta_addr, kCacheLineBytes);
                ctx.store(h.meta_addr + kMbufStructBytes + 16, 48);
                ctx.on_compute(14, 34);
            }
            ctx.on_compute(2, 5);
        }
        return n;
    }

    void
    tx(PacketBatch &batch, TimeNs now, ExecContext &ctx) override
    {
        MbufRef mbufs[kMaxBurst];
        std::uint32_t n = 0;
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < batch.count; ++i) {
            PacketHandle &h = batch[i];
            auto *m = static_cast<RteMbuf *>(h.backing);
            const Addr maddr = h.meta_addr;
            if (h.dropped) {
                pool_.free(MbufRef{maddr, m}, &ctx);
                continue;
            }
            // No conversion: just refresh length/offset in place.
            m->data_off =
                static_cast<std::uint16_t>(h.data_addr - m->buf_addr);
            m->pkt_len = h.len;
            m->data_len = static_cast<std::uint16_t>(h.len);
            ctx.store(maddr + offsetof(RteMbuf, pkt_len), 8);
            ctx.on_compute(2, 5);
            mbufs[n++] = MbufRef{maddr, m};
        }
        if (n)
            pmd_.tx_burst(mbufs, n, now, &ctx);
    }
};

/**
 * The X-Change family: the PMD writes the application's compact
 * metadata directly and data buffers are exchanged at the ring.
 *
 * With a nonzero park split this is the Parking model: the datapath
 * owns a PayloadPark, bound to its NIC queue as the queue's park dock.
 * The NIC DMAs only the first split bytes of a longer frame into the
 * packet buffer and parks the rest in the dock (DRAM-direct, no
 * DDIO/LLC allocation; see AccessType::kParkWrite). The pipeline runs
 * header-only; the packet's ParkRef rides its TX descriptor so the NIC
 * gathers header + payload at drain time. A packet that parked
 * nothing carries a zero ParkRef, which is all plain X-Change sees.
 *
 * Host-functional invariant: PacketHandle::len stays the FULL frame
 * length; the buffer holds only the first len - park.len bytes, and
 * the payload bytes live exclusively in the park slot until the NIC's
 * TX gather. Consumers that need complete frames (TX capture, flow
 * steering) gather (buffer header, park slot) themselves — which is
 * what lets a dock's buffers be header-sized: the arena the CPU walks
 * per packet shrinks from nbufs x 2176 B (megabytes, TLB-hostile) to
 * nbufs x ~256 B, the "header-only hot path" footprint.
 */
class XchgDatapath final : public Datapath, public XchgAdapter {
  public:
    /** Host-side shadow of one application packet object. */
    struct XPkt {
        Addr meta_addr = 0;
        std::uint8_t *meta_host = nullptr;
        Addr buf_addr = 0;            ///< frame start (posted address)
        std::uint8_t *buf_host = nullptr;
        std::uint32_t len = 0;
        TimeNs arrival = 0;
        ParkRef park;                 ///< zero when nothing is parked
    };

    /** @p park_split is the Parking model's split; 0 means no dock. */
    XchgDatapath(NicDevice &nic, SimMemory &mem,
                 const MetadataLayout &layout, std::uint32_t queue,
                 std::uint32_t park_split)
        : layout_(layout), pmd_(nic, *this, queue),
          rx_ring_size_(nic.config().rx_ring_size),
          // Buffers cover every place a frame can sit at once: posted
          // RX descriptors, completions awaiting the poller, the TX
          // ring, and in-flight bursts (the paper's TX-slot exchange
          // keeps the app's free-buffer count equal to what it sent).
          nbufs_(2 * rx_ring_size_ + nic.config().tx_ring_size +
                 4 * kXchgMetaSlots),
          // A dock's buffers hold at most the split prefix (rounded to
          // a line) behind the headroom for in-place encap growth.
          buf_stride_(kMbufHeadroomBytes +
                      (park_split != 0
                           ? round_up(park_split, kCacheLineBytes)
                           : kMbufDataRoomBytes)),
          spares_(std::bit_ceil(nbufs_ + 2))
    {
        const std::uint64_t meta_stride =
            round_up(layout.total_bytes, kCacheLineBytes);
        meta_mem_ = mem.alloc(meta_stride * kXchgMetaSlots,
                              kCacheLineBytes, Region::kMetadataPool);
        slots_.resize(kXchgMetaSlots);
        for (std::uint32_t i = 0; i < kXchgMetaSlots; ++i) {
            slots_[i].meta_addr = meta_mem_.addr + i * meta_stride;
            slots_[i].meta_host = meta_mem_.host + i * meta_stride;
        }

        // The spares FIFO cycles through every buffer, so the arena is
        // written in full; the spares line is address-only.
        buf_mem_ = mem.alloc(std::uint64_t(nbufs_) * buf_stride_,
                             kCacheLineBytes, Region::kPacketData);
        spares_mem_ = mem.alloc_sparse(spares_.capacity() * 8ull,
                                       kCacheLineBytes,
                                       Region::kMetadataPool);
        for (std::uint32_t i = 0; i < nbufs_; ++i) {
            // Post the address past the headroom, like the mbuf path.
            spares_.push(Spare{
                buf_mem_.addr + std::uint64_t(i) * buf_stride_ +
                    kMbufHeadroomBytes,
                buf_mem_.host + std::uint64_t(i) * buf_stride_ +
                    kMbufHeadroomBytes});
        }

        if (park_split != 0) {
            // One park slot per data buffer: a ticket can live exactly
            // as long as the frame that owns it, so the arena never
            // runs dry.
            park_ = std::make_unique<PayloadPark>(mem, nbufs_,
                                                  kMbufDataRoomBytes);
            nic.bind_queue_park(queue, park_.get(), park_split);
        }
    }

    void
    setup() override
    {
        pmd_.setup_rx(rx_ring_size_, nullptr);
    }

    std::uint32_t
    rx(TimeNs now, PacketBatch &batch, ExecContext &ctx) override
    {
        void *pkts[kMaxBurst];
        const std::uint32_t n =
            pmd_.rx_burst(now, pkts, ctx.burst(), &ctx);
        batch.count = n;
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < n; ++i) {
            auto *xp = static_cast<XPkt *>(pkts[i]);
            PacketHandle &h = batch[i];
            fill_handle(h, xp->buf_addr, xp->buf_host, xp->len, xp->arrival);
            h.meta_addr = xp->meta_addr;
            h.meta_host = xp->meta_host;
            h.park = xp->park;
            h.backing = xp;
            PacketView v(h, layout_, &ctx);
            if (ctx.opts().batch_link)
                v.write(Field::kNextPtr, i + 1 < n ? 1 : 0);
            ctx.on_compute(1, 3);
        }
        return n;
    }

    void
    tx(PacketBatch &batch, TimeNs now, ExecContext &ctx) override
    {
        void *pkts[kMaxBurst];
        std::uint32_t n = 0;
        AcctScope acct_scope(ctx, kAcctMetadata);
        for (std::uint32_t i = 0; i < batch.count; ++i) {
            PacketHandle &h = batch[i];
            auto *xp = static_cast<XPkt *>(h.backing);
            if (h.dropped) {
                // The data buffer simply becomes a spare again, and a
                // parked payload is released as dropped.
                release_parked(xp);
                recycle_buffer(xp->buf_addr, xp->buf_host, &ctx);
                continue;
            }
            // Keep the metadata current (the PMD reads it back).
            if (h.len != xp->len || h.data_addr != xp->buf_addr) {
                PacketView v(h, layout_, &ctx);
                v.write(Field::kLen, h.len);
                v.write(Field::kDataAddr, h.data_addr);
                xp->len = h.len;
                xp->buf_addr = h.data_addr;
                xp->buf_host = h.data;
            }
            if (xp->park.len != 0) {
                // The PMD reads the ticket to build the gather
                // descriptor — that load is real metadata-model work.
                // No rejoin happens here: the payload stays parked and
                // the NIC gathers (buffer header, park slot) at drain.
                sink_load(&ctx,
                          xp->meta_addr +
                              layout_.offset_of(Field::kParkTicket),
                          field_size(Field::kParkTicket));
            }
            pkts[n++] = xp;
        }
        if (n)
            pmd_.tx_burst(pkts, n, now, &ctx);
    }

    void
    on_tx_complete(const TxCompletion &c) override
    {
        // The ticket rode the descriptor, so completion-time release
        // is safe even after the XPkt slot was reused for new RX.
        if (c.park.ticket != 0)
            park_->release(c.park.ticket, /*dropped=*/false);
        pmd_.on_tx_complete(c);
    }

    void
    register_metrics(MetricsRegistry &reg,
                     const std::string &prefix) override
    {
        pmd_.register_metrics(reg, prefix);
        // The X-Change path has no mempool; the spare-buffer set is
        // the application-side equivalent.
        reg.add_gauge(prefix + "mempool_occupancy",
                      [this] { return pool_occupancy(); });
    }

    double
    pool_occupancy() const override
    {
        return 1.0 - static_cast<double>(spares_.size()) /
                         static_cast<double>(spares_.capacity());
    }

    void
    set_tracer(Tracer *t, const std::string &label) override
    {
        // X-Change has no mempool; only the PMD records events.
        pmd_.set_tracer(t, t ? t->intern(label + ".pmd") : 0);
    }

    bool
    park_stats(PayloadPark::Stats *out) const override
    {
        if (!park_)
            return false;
        *out = park_->stats();
        return true;
    }

    // ----- XchgAdapter (the application's conversion functions) -----

    bool
    next_rx_slot(RxSlot &slot, AccessSink *sink) override
    {
        if (spares_.empty())
            return false;
        // The spare-buffer ring is X-Change's stand-in for the
        // mempool: account its touches under the same bucket so the
        // metadata models stay comparable.
        AcctScope acct_scope(sink, kAcctMempool);
        sink_load(sink, spares_mem_.addr, 8);
        Spare sp{};
        spares_.pop(sp);
        XPkt &xp = slots_[meta_cursor_];
        meta_cursor_ = (meta_cursor_ + 1) % slots_.size();
        // Metadata slots are reused round-robin, and a transmitted
        // packet's ticket is released only at its completion: scrub
        // the slot's park state so an unparked frame never inherits
        // a ticket.
        xp.park = ParkRef{};
        slot.pkt = &xp;
        slot.spare_buf_addr = sp.addr;
        slot.spare_buf_host = sp.host;
        return true;
    }

    void
    set_buffer(void *pkt, Addr buf_addr, std::uint8_t *host,
               AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        xp->buf_addr = buf_addr;
        xp->buf_host = host;
        field_store(xp, Field::kDataAddr, buf_addr, sink);
    }

    void
    set_len(void *pkt, std::uint32_t len, AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        xp->len = len;
        field_store(xp, Field::kLen, len, sink);
    }

    void
    set_vlan_tci(void *pkt, std::uint16_t tci, AccessSink *sink) override
    {
        field_store(static_cast<XPkt *>(pkt), Field::kVlanTci, tci, sink);
    }

    void
    set_rss_hash(void *pkt, std::uint32_t hash, AccessSink *sink) override
    {
        field_store(static_cast<XPkt *>(pkt), Field::kRssHash, hash, sink);
    }

    void
    set_timestamp(void *pkt, TimeNs t, AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        xp->arrival = t;
        const std::uint32_t off = layout_.offset_of(Field::kTimestamp);
        AcctScope acct_scope(sink, kAcctMetadata);
        sink_store(sink, xp->meta_addr + off, 8);
        std::memcpy(xp->meta_host + off, &t, 8);
    }

    void
    set_packet_type(void *pkt, std::uint32_t flags, AccessSink *sink) override
    {
        field_store(static_cast<XPkt *>(pkt), Field::kPacketType, flags,
                    sink);
    }

    void
    set_park(void *pkt, std::uint32_t ticket, std::uint32_t len,
             AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        xp->park = ParkRef{ticket, len, park_->slot_addr(ticket),
                           park_->slot_host(ticket)};
        field_store(xp, Field::kParkTicket, ticket, sink);
    }

    Addr
    tx_buffer_addr(void *pkt, AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        AcctScope acct_scope(sink, kAcctMetadata);
        sink_load(sink, xp->meta_addr + layout_.offset_of(Field::kDataAddr),
                  8);
        return xp->buf_addr;
    }

    std::uint8_t *
    tx_buffer_host(void *pkt) override
    {
        return static_cast<XPkt *>(pkt)->buf_host;
    }

    std::uint32_t
    tx_len(void *pkt, AccessSink *sink) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        AcctScope acct_scope(sink, kAcctMetadata);
        sink_load(sink, xp->meta_addr + layout_.offset_of(Field::kLen), 4);
        return xp->len;
    }

    TimeNs
    tx_arrival(void *pkt) override
    {
        return static_cast<XPkt *>(pkt)->arrival;
    }

    ParkRef
    tx_park(void *pkt) override
    {
        return static_cast<XPkt *>(pkt)->park;
    }

    void
    release_parked(void *pkt) override
    {
        auto *xp = static_cast<XPkt *>(pkt);
        if (xp->park.ticket != 0) {
            park_->release(xp->park.ticket, /*dropped=*/true);
            xp->park = ParkRef{};
        }
    }

    void
    recycle_buffer(Addr buf_addr, std::uint8_t *host,
                   AccessSink *sink) override
    {
        // Reset to the canonical post offset (headroom restored).
        const std::uint64_t idx =
            (buf_addr - buf_mem_.addr) / buf_stride_;
        const Addr canonical = buf_mem_.addr + idx * buf_stride_ +
                               kMbufHeadroomBytes;
        std::uint8_t *chost =
            buf_mem_.host + idx * buf_stride_ + kMbufHeadroomBytes;
        (void)host;
        AcctScope acct_scope(sink, kAcctMempool);
        sink_store(sink, spares_mem_.addr, 8);
        const bool ok = spares_.push(Spare{canonical, chost});
        PMILL_ASSERT(ok, "spare ring overflow");
    }

  private:
    struct Spare {
        Addr addr = 0;
        std::uint8_t *host = nullptr;
    };

    void
    field_store(XPkt *xp, Field f, std::uint64_t v, AccessSink *sink)
    {
        const std::uint32_t off = layout_.offset_of(f);
        const std::uint32_t sz = field_size(f);
        // Conversion-function writes into the application object are
        // metadata-model work even when invoked from inside the PMD.
        AcctScope acct_scope(sink, kAcctMetadata);
        sink_store(sink, xp->meta_addr + off, sz);
        std::memcpy(xp->meta_host + off, &v, sz);
    }

    const MetadataLayout &layout_;
    PmdXchg pmd_;
    std::uint32_t rx_ring_size_;
    std::uint32_t nbufs_;
    std::uint64_t buf_stride_;
    Ring<Spare> spares_;
    MemHandle meta_mem_;
    std::vector<XPkt> slots_;
    std::uint32_t meta_cursor_ = 0;
    MemHandle buf_mem_;
    MemHandle spares_mem_;
    std::unique_ptr<PayloadPark> park_;  ///< the dock; null without one
};

} // namespace

std::unique_ptr<Datapath>
make_datapath(MetadataModel model, NicDevice &nic, SimMemory &mem,
              const MetadataLayout &layout, std::uint32_t queue,
              std::uint32_t park_split_bytes)
{
    switch (model) {
      case MetadataModel::kCopying:
        return std::make_unique<CopyingDatapath>(nic, mem, layout, queue);
      case MetadataModel::kOverlaying:
        return std::make_unique<OverlayDatapath>(nic, mem, layout, queue);
      case MetadataModel::kXchange:
        return std::make_unique<XchgDatapath>(nic, mem, layout, queue, 0);
      case MetadataModel::kParking:
        PMILL_ASSERT(park_split_bytes > 0,
                     "the parking model needs a nonzero split point");
        return std::make_unique<XchgDatapath>(nic, mem, layout, queue,
                                              park_split_bytes);
    }
    panic("bad metadata model");
}

} // namespace pmill
