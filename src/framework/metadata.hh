/**
 * @file
 * Application packet-metadata layouts.
 *
 * A MetadataLayout maps abstract metadata fields (data pointer,
 * length, annotations, ...) to byte offsets inside the application's
 * per-packet metadata object. The three management models of the
 * paper differ in where that object lives and which layout it uses:
 *
 *  - Copying (FastClick default): a separate Packet object, allocated
 *    from an application pool, whose field order grew historically —
 *    hot fields are spread over three cache lines.
 *  - Overlaying (BESS / FastClick-light): the rte_mbuf itself plus an
 *    annotation area appended after it.
 *  - X-Change: a compact application-defined struct holding only the
 *    fields the NF needs, packed into a single cache line.
 *
 * The mill's FieldReorderPass permutes a layout's offsets (hot fields
 * first), exactly like the paper's LLVM pass reorders the Packet
 * class; PacketView routes every field access through the layout, so
 * reordering is semantically transparent and testable.
 */

#ifndef PMILL_FRAMEWORK_METADATA_HH
#define PMILL_FRAMEWORK_METADATA_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hh"

namespace pmill {

/** Abstract metadata fields used by the elements and the datapath. */
enum class Field : std::uint8_t {
    kMbufPtr = 0,   ///< backing rte_mbuf (Copying model only)
    kNextPtr,       ///< batch linked-list pointer (FastClick batching)
    kDataAddr,      ///< sim address of the frame start
    kLen,           ///< frame length
    kTimestamp,     ///< arrival timestamp
    kVlanTci,       ///< VLAN tag control information
    kRssHash,       ///< NIC RSS hash
    kPacketType,    ///< parsed packet-type flags
    kPort,          ///< ingress port
    kL3Offset,      ///< network-header offset annotation
    kL4Offset,      ///< transport-header offset annotation
    kPaint,         ///< paint annotation (Click classic)
    kDstIpAnno,     ///< destination-IP annotation (routing result)
    kAggregate,     ///< aggregate/flow-id annotation
    kParkTicket,    ///< payload-park arena ticket (Parking model only)
    kCount,
};

inline constexpr std::size_t kNumFields =
    static_cast<std::size_t>(Field::kCount);

/** Width in bytes of each field's stored value. */
std::uint32_t field_size(Field f);

/** Human-readable field name. */
const char *field_name(Field f);

/** A concrete mapping of fields to offsets in the metadata object. */
struct MetadataLayout {
    std::array<std::uint16_t, kNumFields> offset{};
    std::uint32_t total_bytes = 0;
    std::string name;

    std::uint16_t
    offset_of(Field f) const
    {
        return offset[static_cast<std::size_t>(f)];
    }

    /** Number of distinct cache lines the given fields span. */
    std::uint32_t lines_spanned(const std::vector<Field> &fields) const;
};

/**
 * The FastClick-style Copying layout: 192 B (three cache lines) with
 * historically grown field order, hot fields scattered.
 */
MetadataLayout make_copying_layout();

/**
 * The Overlaying layout: field offsets match the RteMbuf struct, with
 * annotations placed in the 64-B area that follows it (offsets
 * >= 128). total_bytes = 192.
 */
MetadataLayout make_overlay_layout();

/**
 * The X-Change layout, which the Parking model shares: only the fields
 * an NF needs, packed into one cache line (64 B). The payload-park
 * ticket (Field::kParkTicket) sits at offset 60, in the tail of the
 * kMbufPtr slot: one-line layouts never dereference the mbuf pointer,
 * so the overlap keeps the object inside the line.
 */
MetadataLayout make_xchg_layout();

} // namespace pmill

#endif // PMILL_FRAMEWORK_METADATA_HH
