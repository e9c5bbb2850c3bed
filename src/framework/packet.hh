/**
 * @file
 * Per-packet handles and batches flowing through the element graph.
 *
 * A PacketHandle is the transient, register-resident view an element
 * works with; durable per-packet state lives in the metadata object
 * (via PacketView, which accounts every access against the cache
 * model) and in the frame bytes themselves.
 */

#ifndef PMILL_FRAMEWORK_PACKET_HH
#define PMILL_FRAMEWORK_PACKET_HH

#include <cstdint>
#include <cstring>

#include "src/common/types.hh"
#include "src/framework/metadata.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/payload_park.hh"

namespace pmill {

/** Maximum burst/batch size supported by the framework. */
inline constexpr std::uint32_t kMaxBurst = 64;

/** Transient view of one packet inside the pipeline. */
struct PacketHandle {
    std::uint8_t *data = nullptr;  ///< host pointer to frame start
    Addr data_addr = 0;            ///< sim address of frame start
    std::uint32_t len = 0;         ///< frame length

    std::uint8_t *meta_host = nullptr;  ///< metadata object backing
    Addr meta_addr = 0;                 ///< metadata object sim address

    void *backing = nullptr;  ///< datapath-private (mbuf / xchg pkt)

    /// Parking model: the parked payload (zero when nothing is parked,
    /// always the case outside MetadataModel::kParking). The buffer
    /// then holds only the first len - park.len header bytes;
    /// consumers needing payload bytes (e.g. flow steering) must
    /// materialize them via ExecContext::materialize_payload.
    ParkRef park;

    TimeNs arrival_ns = 0;    ///< wire arrival (latency bookkeeping)
    std::uint64_t trace_id = 0;  ///< tracer packet id; 0 = unsampled
    std::uint8_t out_port = 0;  ///< routing decision of the last element
    bool dropped = false;
};
static_assert(sizeof(PacketHandle) <= 96, "PacketHandle must not grow");

/** A batch of packets processed together (FastClick-style). */
struct PacketBatch {
    PacketHandle pkts[kMaxBurst];
    std::uint32_t count = 0;

    PacketHandle &operator[](std::uint32_t i) { return pkts[i]; }
    const PacketHandle &operator[](std::uint32_t i) const { return pkts[i]; }

    /** Remove packets flagged dropped, preserving order. */
    void
    compact()
    {
        std::uint32_t w = 0;
        for (std::uint32_t r = 0; r < count; ++r) {
            if (!pkts[r].dropped) {
                if (w != r)
                    pkts[w] = pkts[r];
                ++w;
            }
        }
        count = w;
    }
};

/**
 * Accessor for metadata fields through a MetadataLayout, accounting
 * each access to the sink. Values are stored little-endian in the
 * metadata object's host backing.
 */
class PacketView {
  public:
    PacketView(PacketHandle &h, const MetadataLayout &layout,
               AccessSink *sink)
        : h_(h), layout_(layout), sink_(sink)
    {}

    /** Read field @p f (zero-extended to 64 bits). */
    std::uint64_t
    read(Field f) const
    {
        const std::uint32_t off = layout_.offset_of(f);
        const std::uint32_t sz = field_size(f);
        sink_load(sink_, h_.meta_addr + off, sz);
        std::uint64_t v = 0;
        std::memcpy(&v, h_.meta_host + off, sz);
        return v;
    }

    /** Write field @p f. */
    void
    write(Field f, std::uint64_t v)
    {
        const std::uint32_t off = layout_.offset_of(f);
        const std::uint32_t sz = field_size(f);
        sink_store(sink_, h_.meta_addr + off, sz);
        std::memcpy(h_.meta_host + off, &v, sz);
    }

    /** Write a TimeNs (kept separate from integer fields). */
    void
    write_time(Field f, TimeNs t)
    {
        const std::uint32_t off = layout_.offset_of(f);
        sink_store(sink_, h_.meta_addr + off, 8);
        std::memcpy(h_.meta_host + off, &t, 8);
    }

    /** Read a TimeNs. */
    TimeNs
    read_time(Field f) const
    {
        const std::uint32_t off = layout_.offset_of(f);
        sink_load(sink_, h_.meta_addr + off, 8);
        TimeNs t;
        std::memcpy(&t, h_.meta_host + off, 8);
        return t;
    }

  private:
    PacketHandle &h_;
    const MetadataLayout &layout_;
    AccessSink *sink_;
};

} // namespace pmill

#endif // PMILL_FRAMEWORK_PACKET_HH
