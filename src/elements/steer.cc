/**
 * @file
 * FlowSteer: software flow steering between cores through the shared
 * SteerFabric (see src/net/steering.hh for the fabric's concurrency
 * contract).
 */

#include <cstring>

#include "src/elements/elements.hh"
#include "src/net/headers.hh"
#include "src/net/steering.hh"

namespace pmill {

void
FlowSteer::process(PacketBatch &batch, ExecContext &ctx)
{
    if (fabric_ == nullptr)
        return;  // unbound: transparent

    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        const std::uint32_t hash =
            static_cast<std::uint32_t>(v.read(Field::kRssHash));
        const std::uint32_t idx = fabric_->index_of(hash);
        // Table consultation: one word from the shared flow table
        // plus the branch deciding home vs. handoff.
        ctx.load(fabric_->table_addr(idx), 4);
        ctx.on_compute(3, 8);
        const std::uint32_t dst = fabric_->entry(idx);

        if (dst == core_) {
            // A bucket's load counts each frame once, on the core that
            // processes it: a handed-off frame passes FlowSteer again
            // on its home core, so counting at the source as well
            // would double a moved bucket and make the controller
            // move it again.
            fabric_->note_entry_load(core_, idx);
            fabric_->note_pass(core_);
            if (kept != i)
                batch[kept] = h;
            ++kept;
            continue;
        }

        // Handoff: copy the frame into the home core's ring slot (the
        // stores hit this core's hierarchy; with NUMA placement the
        // ring is homed on the destination's socket, so the DRAM
        // fills pay the remote penalty) and release the local buffer.
        // The batch is shrunk in place rather than marking the packet
        // dropped: mid-pipeline drop compaction does not release
        // buffers, and steered packets must not count as pipeline
        // drops.
        // Parking model: the buffer holds only the header prefix, so
        // the parked payload must be materialized (per-line loads
        // from the park arena) and the full frame gathered into a
        // scratch before it can be copied into the handoff ring; the
        // destination core re-parks it on delivery. No-op for every
        // other model (park.len == 0).
        const std::uint8_t *frame = h.data;
        std::uint8_t gather[kMaxFrameLen];
        if (h.park.len != 0) {
            const std::uint32_t hdr = h.len - h.park.len;
            std::memcpy(gather, h.data, hdr);
            ctx.materialize_payload(h.park, gather + hdr);
            frame = gather;
        }
        const Addr slot = fabric_->ring_slot_addr(core_, dst);
        ctx.store(slot, h.len);
        ctx.on_compute(2, 4);
        fabric_->stage(core_, dst, frame, h.len, h.arrival_ns, ctx.now_ns());
        release_.push_back(h);
    }
    batch.count = kept;
}

void
FlowSteer::access_profile(std::vector<Field> &reads,
                          std::vector<Field> &) const
{
    reads.push_back(Field::kRssHash);
}

} // namespace pmill
