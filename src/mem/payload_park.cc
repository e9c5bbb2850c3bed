#include "src/mem/payload_park.hh"

#include <cstring>

#include "src/common/log.hh"

namespace pmill {

PayloadPark::PayloadPark(SimMemory &mem, std::uint32_t slots,
                         std::uint32_t slot_bytes)
    : capacity_(slots), slot_bytes_(slot_bytes)
{
    PMILL_ASSERT(slots > 0, "payload park needs at least one slot");
    PMILL_ASSERT(slot_bytes % kCacheLineBytes == 0,
                 "park slots must be cache-line multiples");
    // LIFO: ticket 1 on top, so the first park after construction (or
    // after a full drain) always reuses the lowest slots — simulated
    // addresses are a pure function of the park/release sequence. The
    // slots never parked into need no host pages.
    arena_ = mem.alloc_sparse(std::uint64_t(slots) * slot_bytes,
                              kCacheLineBytes, Region::kPayloadPark);
    free_.reserve(slots);
    for (std::uint32_t t = slots; t >= 1; --t)
        free_.push_back(t);
    in_use_.assign(slots, 0);
}

std::uint32_t
PayloadPark::park(const std::uint8_t *payload, std::uint32_t len)
{
    PMILL_ASSERT(!free_.empty(),
                 "payload park exhausted (capacity %u, parked %llu)",
                 capacity_, static_cast<unsigned long long>(parked_));
    PMILL_ASSERT(len <= slot_bytes_, "payload %u exceeds park slot %u",
                 len, slot_bytes_);
    const std::uint32_t ticket = free_.back();
    free_.pop_back();
    const std::uint32_t slot = slot_of(ticket);
    PMILL_ASSERT(!in_use_[slot], "free list handed out a live ticket");
    in_use_[slot] = 1;
    ++parked_;
    std::memcpy(arena_.host + slot * std::uint64_t(slot_bytes_), payload,
                len);
    return ticket;
}

void
PayloadPark::release(std::uint32_t ticket, bool dropped)
{
    const std::uint32_t slot = slot_of(ticket);
    PMILL_ASSERT(in_use_[slot],
                 "park ticket %u double-free (slot already released)",
                 ticket);
    in_use_[slot] = 0;
    free_.push_back(ticket);
    if (dropped)
        ++dropped_;
    else
        ++rejoined_;
}

PayloadPark::Stats
PayloadPark::stats() const
{
    Stats s;
    s.parked = parked_;
    s.rejoined = rejoined_;
    s.dropped = dropped_;
    s.capacity = capacity_;
    const std::uint64_t live = parked_ - rejoined_ - dropped_;
    // Leak detection: the counter view and the free-list view of
    // "live tickets" must agree at all times.
    PMILL_ASSERT(live == capacity_ - free_.size(),
                 "park ticket leak: counters say %llu live, free list "
                 "says %llu",
                 static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(capacity_ - free_.size()));
    s.outstanding = static_cast<std::uint32_t>(live);
    return s;
}

} // namespace pmill
