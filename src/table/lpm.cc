#include "src/table/lpm.hh"

#include "src/common/log.hh"

namespace pmill {

void
NaiveLpm::add(const Route &r)
{
    for (auto &existing : routes_) {
        if (existing.prefix_len == r.prefix_len &&
            existing.prefix.value == r.prefix.value) {
            existing.next_hop = r.next_hop;
            return;
        }
    }
    routes_.push_back(r);
}

std::optional<std::uint16_t>
NaiveLpm::lookup(Ipv4Addr a, std::uint8_t *matched_depth) const
{
    std::optional<std::uint16_t> best;
    int best_len = -1;
    for (const auto &r : routes_) {
        const std::uint32_t mask =
            r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
        if ((a.value & mask) == (r.prefix.value & mask) &&
            r.prefix_len > best_len) {
            best = r.next_hop;
            best_len = r.prefix_len;
        }
    }
    if (best && matched_depth)
        *matched_depth = static_cast<std::uint8_t>(best_len);
    return best;
}

Dir24_8::Dir24_8(SimMemory &mem, std::uint32_t max_tbl8_groups)
    : max_groups_(max_tbl8_groups)
{
    // Setup writes only the slots its routes cover and the tbl8 groups
    // they claim, in order, so both tables commit host pages in
    // proportion to the routes, not to their size.
    tbl24_ = mem.alloc_sparse((1u << 24) * sizeof(Entry), kPageBytes,
                              Region::kTable);
    tbl8_ = mem.alloc_sparse(
        std::uint64_t(max_tbl8_groups) * 256 * sizeof(Entry), kPageBytes,
        Region::kTable);
}

std::uint32_t
Dir24_8::alloc_tbl8_group()
{
    if (next_group_ >= max_groups_)
        return ~0u;
    return next_group_++;
}

bool
Dir24_8::add(const Route &r)
{
    PMILL_ASSERT(r.prefix_len <= 32, "prefix length out of range");
    if (r.prefix_len == 0) {
        default_route_ = Entry{r.next_hop, 0, kValid};
        return true;
    }
    const std::uint32_t mask = ~0u << (32 - r.prefix_len);
    const std::uint32_t net = r.prefix.value & mask;

    if (r.prefix_len <= 24) {
        // Fill every tbl24 slot covered by the prefix, unless a
        // more-specific route already owns the slot.
        const std::uint32_t first = net >> 8;
        const std::uint32_t count = 1u << (24 - r.prefix_len);
        for (std::uint32_t i = 0; i < count; ++i) {
            Entry &e = tbl24()[first + i];
            if (e.flags & kGroup) {
                // Slot spills into a tbl8: update its shorter entries.
                Entry *grp = tbl8() + std::uint64_t(e.next_hop) * 256;
                for (std::uint32_t j = 0; j < 256; ++j) {
                    if (!(grp[j].flags & kValid) ||
                        grp[j].depth <= r.prefix_len) {
                        grp[j].next_hop = r.next_hop;
                        grp[j].depth = r.prefix_len;
                        grp[j].flags = kValid;
                    }
                }
            } else if (!(e.flags & kValid) || e.depth <= r.prefix_len) {
                e.next_hop = r.next_hop;
                e.depth = r.prefix_len;
                e.flags = kValid;
            }
        }
        return true;
    }

    // Longer than /24: ensure the covering tbl24 slot points to a
    // tbl8 group, then fill the covered slots inside the group.
    const std::uint32_t slot24 = net >> 8;
    Entry &top = tbl24()[slot24];
    Entry *grp;
    if (top.flags & kGroup) {
        grp = tbl8() + std::uint64_t(top.next_hop) * 256;
    } else {
        const std::uint32_t g = alloc_tbl8_group();
        if (g == ~0u)
            return false;
        grp = tbl8() + std::uint64_t(g) * 256;
        // Seed the group with the previous (shorter) route, if any.
        for (std::uint32_t j = 0; j < 256; ++j)
            grp[j] = top.flags & kValid
                         ? Entry{top.next_hop, top.depth, kValid}
                         : Entry{};
        top.next_hop = static_cast<std::uint16_t>(g);
        top.depth = 24;
        top.flags = static_cast<std::uint8_t>(kValid | kGroup);
    }

    const std::uint32_t first = net & 0xFF;
    const std::uint32_t count = 1u << (32 - r.prefix_len);
    for (std::uint32_t j = 0; j < count; ++j) {
        Entry &e = grp[first + j];
        if (!(e.flags & kValid) || e.depth <= r.prefix_len) {
            e.next_hop = r.next_hop;
            e.depth = r.prefix_len;
            e.flags = kValid;
        }
    }
    return true;
}

std::optional<std::uint16_t>
Dir24_8::lookup(Ipv4Addr a, AccessSink *sink,
                std::uint8_t *matched_depth) const
{
    const std::uint32_t slot24 = a.value >> 8;
    sink_load(sink, tbl24_.addr + std::uint64_t(slot24) * sizeof(Entry),
              kAccountedEntryBytes);
    const Entry *e = &tbl24()[slot24];
    if (e->flags & kGroup) {
        const std::uint64_t idx =
            std::uint64_t(e->next_hop) * 256 + (a.value & 0xFF);
        sink_load(sink, tbl8_.addr + idx * sizeof(Entry),
                  kAccountedEntryBytes);
        e = &tbl8()[idx];
    }
    if (!(e->flags & kValid))
        e = &default_route_;
    if (!(e->flags & kValid))
        return std::nullopt;
    if (matched_depth)
        *matched_depth = e->depth;
    return e->next_hop;
}

std::uint64_t
Dir24_8::memory_bytes() const
{
    return tbl24_.size + tbl8_.size;
}

} // namespace pmill
