#include "src/mem/cache.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/log.hh"

namespace pmill {

MemStats
MemStats::operator-(const MemStats &o) const
{
    MemStats d;
    d.loads = loads - o.loads;
    d.stores = stores - o.stores;
    d.l1_load_misses = l1_load_misses - o.l1_load_misses;
    d.l2_load_misses = l2_load_misses - o.l2_load_misses;
    d.llc_load_misses = llc_load_misses - o.llc_load_misses;
    d.l1_store_misses = l1_store_misses - o.l1_store_misses;
    d.l2_store_misses = l2_store_misses - o.l2_store_misses;
    d.llc_store_misses = llc_store_misses - o.llc_store_misses;
    d.dev_writes = dev_writes - o.dev_writes;
    d.dev_reads = dev_reads - o.dev_reads;
    d.dev_reads_dram = dev_reads_dram - o.dev_reads_dram;
    d.tlb_misses = tlb_misses - o.tlb_misses;
    d.prefetches = prefetches - o.prefetches;
    d.numa_remote_fills = numa_remote_fills - o.numa_remote_fills;
    d.park_fills = park_fills - o.park_fills;
    d.park_gathers = park_gathers - o.park_gathers;
    return d;
}

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t ways,
                       bool invalidate_filter)
    : ways_(ways)
{
    PMILL_ASSERT(ways > 0, "cache needs at least one way");
    PMILL_ASSERT(ways <= 16, "per-set way bitmasks hold 16 ways");
    std::uint64_t lines = size_bytes / kCacheLineBytes;
    sets_ = lines / ways;
    PMILL_ASSERT(is_pow2(sets_),
                 "cache set count must be a power of two (size %llu, "
                 "ways %u)",
                 static_cast<unsigned long long>(size_bytes), ways);
    set_mask_ = sets_ - 1;
    tag_shift_ = 0;
    while ((1ull << tag_shift_) < sets_)
        ++tag_shift_;
    // One cache-line-sized block per set: ways_ 32-bit tags + Meta.
    std::uint32_t bytes = ways_ * 4 + 16;
    stride_ = (bytes + 63) & ~63u;
    raw_.assign(sets_ * stride_ + 64, 0);
    const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(raw_.data());
    base_ = raw_.data() + ((64 - (p & 63)) & 63);
    if (invalidate_filter)
        sig_.assign(sets_, 0);
    flush();
}

void
CacheLevel::resig(std::uint8_t *blk, std::uint64_t set)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (tags(blk)[w] != kInvalidTag)
            m |= sig_bit(tags(blk)[w]);
    sig_[set] = m;
}

inline std::uint64_t
CacheLevel::perm_touch(std::uint64_t perm, std::uint32_t w)
{
    // Locate w's nibble: XOR makes it the unique zero nibble, and the
    // borrow of the per-nibble zero test only propagates upward, so
    // the lowest flagged nibble is the true match.
    const std::uint64_t x = perm ^ (0x1111111111111111ull * w);
    const std::uint64_t zero =
        (x - 0x1111111111111111ull) & ~x & 0x8888888888888888ull;
    const std::uint32_t p =
        static_cast<std::uint32_t>(__builtin_ctzll(zero)) >> 2;
    // Keep nibbles above p, shift nibbles below p up one, put w in
    // front. Shift counts stay <= 60 for p <= 15.
    const std::uint64_t lo = (1ull << (4 * p)) - 1;
    const std::uint64_t hi = ~lo & ~(0xFull << (4 * p));
    return (perm & hi) | ((perm & lo) << 4) | w;
}

inline std::uint32_t
CacheLevel::match(const std::uint8_t *blk, std::uint32_t tag) const
{
    // The tags fill at most the block's first 64 bytes; the mask drops
    // what lies past them (Meta, for fewer than 16 ways). A real tag
    // matches at most one way (a line is inserted only when absent),
    // and kInvalidTag matches exactly the invalid ways.
#if defined(__SSE2__)
    const __m128i t = _mm_set1_epi32(static_cast<int>(tag));
    const __m128i *v = reinterpret_cast<const __m128i *>(blk);
    auto eq = [&](int i) {
        return static_cast<std::uint32_t>(_mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(_mm_load_si128(v + i), t))));
    };
    return (eq(0) | eq(1) << 4 | eq(2) << 8 | eq(3) << 12) &
           ((1u << ways_) - 1u);
#else
    const std::uint32_t *tg = reinterpret_cast<const std::uint32_t *>(blk);
    std::uint32_t m = 0;
    for (std::uint32_t w = 0; w < ways_; ++w)
        m |= static_cast<std::uint32_t>(tg[w] == tag) << w;
    return m;
#endif
}

bool
CacheLevel::lookup_scan(std::uint8_t *blk, std::uint64_t line)
{
    const std::uint32_t hit = match(blk, tag_of(line));
    if (hit)
        meta(blk).perm = perm_touch(
            meta(blk).perm, static_cast<std::uint32_t>(__builtin_ctz(hit)));
    return hit != 0;
}

void
CacheLevel::insert(std::uint64_t line, std::uint32_t way_limit,
                   bool cpu_fill)
{
    std::uint8_t *blk = block(set_of(line));
    const std::uint32_t hit = match(blk, tag_of(line));
    if (!hit)
        return insert_absent(line, way_limit, cpu_fill);
    // Already present (e.g.\ DevWrite to a CPU-resident line): refresh
    // recency (the identity for the MRU way) and the demand-filled flag.
    Meta &m = meta(blk);
    const std::uint32_t w = static_cast<std::uint32_t>(__builtin_ctz(hit));
    m.perm = perm_touch(m.perm, w);
    m.cpu = static_cast<std::uint16_t>(cpu_fill ? m.cpu | (1u << w)
                                                : m.cpu & ~(1u << w));
}

void
CacheLevel::insert_absent(std::uint64_t line, std::uint32_t way_limit,
                          bool cpu_fill)
{
    // Contract: the line is absent (the caller's lookup or insert()'s
    // match just found nothing), so only victim selection remains.
    const std::uint64_t s = set_of(line);
    std::uint8_t *blk = block(s);
    Meta &m = meta(blk);
    const std::uint32_t limit =
        (way_limit == 0 || way_limit > ways_) ? ways_ : way_limit;
    const std::uint32_t limit_mask = (1u << limit) - 1u;
    PMILL_ASSERT((line >> tag_shift_) < kInvalidTag,
                 "simulated address exceeds the 32-bit tag range");

    // Victim priority: invalid > LRU streaming line > LRU overall, as
    // in the stamped model: the first invalid way in index order (a
    // ctz), else the candidate nearest the permutation's LRU end, which
    // is exactly the minimum-stamp candidate.
    std::uint32_t victim = 0;
    const std::uint32_t invalid = match(blk, kInvalidTag) & limit_mask;
    if (invalid) {
        victim = static_cast<std::uint32_t>(__builtin_ctz(invalid));
    } else {
        std::uint32_t cand = ~m.cpu & limit_mask;
        if (!cand)
            cand = limit_mask;
        for (std::uint32_t i = ways_; i-- > 0;) {
            const std::uint32_t w =
                static_cast<std::uint32_t>((m.perm >> (4 * i)) & 0xF);
            if ((cand >> w) & 1u) {
                victim = w;
                break;
            }
        }
    }

    tags(blk)[victim] = tag_of(line);
    m.cpu = static_cast<std::uint16_t>(
        cpu_fill ? m.cpu | (1u << victim) : m.cpu & ~(1u << victim));
    m.perm = perm_touch(m.perm, victim);
    if (!sig_.empty()) {
        if (invalid)
            sig_[s] |= sig_bit(tag_of(line));
        else
            resig(blk, s);  // the evicted victim's tag left the set
    }
}

void
CacheLevel::invalidate(std::uint64_t line)
{
    const std::uint64_t s = set_of(line);
    const std::uint32_t tag = tag_of(line);
    // Filtered miss: the signature covers every valid tag, so a clear
    // bit proves absence without touching the set block at all (the
    // common case — device writes land on lines the core caches never
    // loaded).
    if (!sig_.empty() && !(sig_[s] & sig_bit(tag)))
        return;
    std::uint8_t *blk = block(s);
    const std::uint32_t hit = match(blk, tag);
    if (!hit)
        return;
    // The way keeps its recency slot; the invalid-first victim rule
    // reuses it (and re-MRUs it) on the next fill, just as the stamped
    // model reused the first invalid way.
    tags(blk)[__builtin_ctz(hit)] = kInvalidTag;
    if (!sig_.empty())
        resig(blk, s);
}

void
CacheLevel::flush()
{
    for (std::uint64_t s = 0; s < sets_; ++s) {
        std::uint8_t *blk = block(s);
        std::uint32_t *tg = tags(blk);
        for (std::uint32_t w = 0; w < ways_; ++w)
            tg[w] = kInvalidTag;
        meta(blk) = Meta{kIdentityPerm, 0};
    }
    if (!sig_.empty())
        sig_.assign(sets_, 0);
}

TlbModel::TlbModel(std::uint32_t entries) : entries_(entries)
{
    std::uint32_t cap = 16;
    while (cap < entries * 4)
        cap <<= 1;
    slot_page_.assign(cap, kNoPage);
    slot_idx_.assign(cap, 0);
    slot_mask_ = cap - 1;
}

void
TlbModel::table_insert(std::uint64_t page, std::uint32_t idx)
{
    std::uint32_t i = hash_page(page) & slot_mask_;
    while (slot_page_[i] != kNoPage)
        i = (i + 1) & slot_mask_;
    slot_page_[i] = page;
    slot_idx_[i] = idx;
}

void
TlbModel::table_erase(std::uint64_t page)
{
    std::uint32_t i = hash_page(page) & slot_mask_;
    while (slot_page_[i] != page)
        i = (i + 1) & slot_mask_;
    // Backward-shift deletion: walk the probe chain and pull entries
    // whose home slot lies outside (i, j] back over the gap, so later
    // probes never hit a hole mid-chain.
    std::uint32_t j = i;
    for (;;) {
        slot_page_[i] = kNoPage;
        for (;;) {
            j = (j + 1) & slot_mask_;
            if (slot_page_[j] == kNoPage)
                return;
            const std::uint32_t h = hash_page(slot_page_[j]) & slot_mask_;
            const bool stays = (i <= j) ? (i < h && h <= j)
                                        : (i < h || h <= j);
            if (!stays)
                break;
        }
        slot_page_[i] = slot_page_[j];
        slot_idx_[i] = slot_idx_[j];
        i = j;
    }
}

void
TlbModel::unlink(std::uint32_t idx)
{
    // Callers never unlink the head, so e.prev is always a live link;
    // e.next is only dereferenced when idx is not the tail.
    const Entry &e = entries_[idx];
    entries_[e.prev].next = e.next;
    if (idx == tail_)
        tail_ = e.prev;
    else
        entries_[e.next].prev = e.prev;
}

void
TlbModel::push_front(std::uint32_t idx)
{
    Entry &e = entries_[idx];
    e.next = head_;
    entries_[head_].prev = idx;
    head_ = idx;
}

bool
TlbModel::access_slow(std::uint64_t page)
{
    // The inline head check just missed. Translation streams commonly
    // alternate between two pages (packet data vs.\ mbuf metadata), so
    // probe the second recency entry before paying for the hash find.
    // Linked entries are always valid; head_ != tail_ means there are
    // at least two of them.
    const Entry &h = entries_[head_];
    if (h.valid && head_ != tail_) {
        const std::uint32_t second = h.next;
        if (entries_[second].page == page) {
            unlink(second);
            push_front(second);
            return true;
        }
    }

    std::uint32_t probe = hash_page(page) & slot_mask_;
    while (slot_page_[probe] != kNoPage) {
        if (slot_page_[probe] == page) {
            // Hit somewhere behind the head: refresh recency, exactly
            // as the stamp update of the scanning model would.
            const std::uint32_t idx = slot_idx_[probe];
            if (idx != head_) {
                unlink(idx);
                push_front(idx);
            }
            return true;
        }
        probe = (probe + 1) & slot_mask_;
    }

    // Miss. Victim: first never-used entry in array order (== the
    // fill cursor), else the least-recently-touched (== list tail).
    std::uint32_t idx;
    if (fill_ < entries_.size()) {
        idx = fill_++;
        Entry &e = entries_[idx];
        e.valid = true;
        if (idx == 0) {
            head_ = tail_ = idx;
        } else {
            e.next = head_;
            entries_[head_].prev = idx;
            head_ = idx;
        }
    } else {
        idx = tail_;
        table_erase(entries_[idx].page);
        if (idx != head_) {
            unlink(idx);
            push_front(idx);
        }
    }
    entries_[idx].page = page;
    table_insert(page, idx);
    return false;
}

void
TlbModel::flush()
{
    for (auto &e : entries_)
        e = Entry{};
    slot_page_.assign(slot_page_.size(), kNoPage);
    head_ = tail_ = fill_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &cfg)
    : cfg_(cfg),
      l1_(cfg.l1_size, cfg.l1_ways, /*invalidate_filter=*/true),
      l2_(cfg.l2_size, cfg.l2_ways, /*invalidate_filter=*/true),
      llc_(cfg.llc_size, cfg.llc_ways),
      tlb_(cfg.tlb_entries)
{
}

AccessResult
CacheHierarchy::access_range(std::uint64_t first, std::uint64_t last,
                             AccessType type)
{
    AccessResult total;
    for (std::uint64_t ln = first; ln <= last; ++ln) {
        // Hide the host-cache miss on the next set block (the larger
        // levels' tag arrays dwarf the host's L1/L2) behind this line.
        if (ln < last)
            llc_.host_prefetch(ln + 1);
        AccessResult r = access_line(ln, ln / kLinesPerPage, type);
        total.core_cycles += r.core_cycles;
        total.wall_ns += r.wall_ns;
        total.tlb_misses += r.tlb_misses;
        total.llc_trips += r.llc_trips;
        total.dram_fills += r.dram_fills;
        total.remote_fills += r.remote_fills;
        if (r.level > total.level)
            total.level = r.level;
    }
    return total;
}

AccessResult
CacheHierarchy::cpu_line_miss(std::uint64_t line, bool is_load,
                              AccessResult r)
{
    if (is_load)
        ++stats_.l1_load_misses;
    else
        ++stats_.l1_store_misses;

    r.core_cycles += cfg_.l2_cycles;
    if (l2_.lookup(line)) {
        l1_.insert_absent(line);
        r.level = HitLevel::kL2;
        return r;
    }
    if (is_load)
        ++stats_.l2_load_misses;
    else
        ++stats_.l2_store_misses;

    r.wall_ns += cfg_.llc_ns;
    ++r.llc_trips;
    if (llc_.lookup(line)) {
        l2_.insert_absent(line);
        l1_.insert_absent(line);
        r.level = HitLevel::kLlc;
        return r;
    }
    if (is_load)
        ++stats_.llc_load_misses;
    else
        ++stats_.llc_store_misses;

    r.wall_ns += cfg_.dram_ns;
    ++r.dram_fills;
    if (PMILL_UNLIKELY(numa_probe_ != nullptr) &&
        numa_probe_(numa_ctx_, line * kCacheLineBytes) != socket_) {
        r.wall_ns += cfg_.numa_remote_ns;
        ++r.remote_fills;
        ++stats_.numa_remote_fills;
    }
    llc_.insert_absent(line);
    l2_.insert_absent(line);
    l1_.insert_absent(line);
    r.level = HitLevel::kDram;
    return r;
}

static const char *const kKindNames[] = {
    "Load", "Store", "DevWrite", "DevRead", "Prefetch", "ParkWrite",
    "ParkRead"};

AccessResult
CacheHierarchy::prefetch_line(std::uint64_t line, AccessType type)
{
    if (type != AccessType::kPrefetch)
        panic("access() takes loads, stores and prefetches; %s is a "
              "device kind, which takes dma()",
              kKindNames[static_cast<int>(type)]);
    ++stats_.prefetches;
    // Fill the hierarchy without charging latency or demand-load
    // counters: issued far enough ahead that the pipeline hides it.
    if (!l1_.lookup(line)) {
        if (!l2_.lookup(line)) {
            if (!llc_.lookup(line))
                llc_.insert_absent(line, 0, /*cpu_fill=*/false);
            l2_.insert_absent(line);
        }
        l1_.insert_absent(line);
    }
    return AccessResult{};
}

void
CacheHierarchy::dma(Addr addr, std::uint32_t len, AccessType type)
{
    PMILL_ASSERT(len > 0, "zero-size DMA");
    const std::uint64_t first = line_of(addr);
    const std::uint64_t last = line_of(addr + len - 1);
    const std::uint64_t lines = last - first + 1;
    switch (type) {
      case AccessType::kDevWrite:
        // DDIO: allocate in the LLC's DDIO ways only; stale core copies
        // are invalidated (ownership moved to the IIO agent).
        stats_.dev_writes += lines;
        for (std::uint64_t ln = first; ln <= last; ++ln) {
            if (ln < last)
                llc_.host_prefetch(ln + 1);
            l1_.invalidate(ln);
            l2_.invalidate(ln);
            llc_.insert(ln, cfg_.ddio_ways, /*cpu_fill=*/false);
        }
        return;

      case AccessType::kDevRead:
        // TX read: from the LLC when resident, else DRAM; no allocation.
        stats_.dev_reads += lines;
        for (std::uint64_t ln = first; ln <= last; ++ln) {
            if (ln < last)
                llc_.host_prefetch(ln + 1);
            if (!llc_.lookup(ln))
                ++stats_.dev_reads_dram;
        }
        return;

      case AccessType::kParkWrite:
        // RX park: straight to DRAM, allocating nothing in the LLC;
        // stale copies (a recycled slot's old payload) are invalidated.
        stats_.park_fills += lines;
        for (std::uint64_t ln = first; ln <= last; ++ln) {
            if (ln < last)
                llc_.host_prefetch(ln + 1);
            l1_.invalidate(ln);
            l2_.invalidate(ln);
            llc_.invalidate(ln);
        }
        return;

      case AccessType::kParkRead:
        // TX gather from the park arena: DRAM unless a core
        // materialized the payload in the LLC meanwhile; no allocation.
        stats_.park_gathers += lines;
        for (std::uint64_t ln = first; ln <= last; ++ln) {
            if (ln < last)
                llc_.host_prefetch(ln + 1);
            llc_.lookup(ln);
        }
        return;

      default:
        panic("dma() takes device kinds; %s is a CPU kind, which takes "
              "access()", kKindNames[static_cast<int>(type)]);
    }
}

void
CacheHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
    llc_.flush();
    tlb_.flush();
}

} // namespace pmill
