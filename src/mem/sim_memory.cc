#include "src/mem/sim_memory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>

#include "src/common/log.hh"

namespace pmill {

namespace {

/// Smallest host page size; on larger pages the extra commit stores
/// are redundant, not wrong.
constexpr std::uint64_t kHostPageBytes = 4096;

} // namespace

void
SimMemory::HostRelease::operator()(std::uint8_t *p) const
{
    if (mapped_bytes)
        munmap(p, mapped_bytes);
    else
        std::free(p);
}

SimMemory::SimMemory()
    : next_(0x100000),  // leave the first MiB unused (catches addr 0 bugs)
      scatter_rng_(0xC0FFEEull)
{
}

MemHandle
SimMemory::alloc(std::uint64_t size, std::uint64_t align, Region r)
{
    return place(size, align, r, false);
}

MemHandle
SimMemory::alloc_sparse(std::uint64_t size, std::uint64_t align, Region r)
{
    return place(size, align, r, true);
}

MemHandle
SimMemory::place(std::uint64_t size, std::uint64_t align, Region r,
                 bool sparse)
{
    PMILL_ASSERT(size > 0, "zero-size allocation");
    PMILL_ASSERT(is_pow2(align), "alignment must be a power of two");
    Addr base = round_up(next_, align);
    next_ = base + size;

    Alloc a;
    a.base = base;
    a.size = size;
    if (sparse) {
        // A private anonymous mapping reads as zeros and commits a
        // page on its first write. No huge pages: one written entry
        // would commit 2 MiB around it.
        void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        PMILL_ASSERT(p != MAP_FAILED, "host mapping failed");
#ifdef MADV_NOHUGEPAGE
        madvise(p, size, MADV_NOHUGEPAGE);
#endif
        a.host = HostBytes(static_cast<std::uint8_t *>(p),
                           HostRelease{size});
    } else {
        // calloc zeroes once, but a large request comes back as
        // uncommitted zero pages. Store one byte per page so the run
        // never faults; volatile, because the compiler drops plain
        // zero stores into calloc memory.
        a.host = HostBytes(static_cast<std::uint8_t *>(std::calloc(size, 1)));
        PMILL_ASSERT(a.host != nullptr, "host allocation failed");
        volatile std::uint8_t *commit = a.host.get();
        for (std::uint64_t off = 0; off < size; off += kHostPageBytes)
            commit[off] = 0;
        commit[size - 1] = 0;
    }
    a.socket = home_socket_;

    MemHandle h{base, a.host.get(), size};
    allocs_.push_back(std::move(a));
    region_bytes_[static_cast<std::size_t>(r)] += size;
    return h;
}

MemHandle
SimMemory::alloc_scattered(std::uint64_t size, Region r)
{
    // Skip 1..8 pages, then land at a random cache-line offset within
    // the page: successive config-time heap allocations are neither
    // adjacent nor identically aligned.
    const std::uint64_t gap_pages = 1 + scatter_rng_.next_below(8);
    const std::uint64_t line_off =
        scatter_rng_.next_below(kPageBytes / kCacheLineBytes) *
        kCacheLineBytes;
    next_ = round_up(next_, kPageBytes) + gap_pages * kPageBytes + line_off;
    return alloc(size, kCacheLineBytes, r);
}

std::uint64_t
SimMemory::allocated_bytes(Region r) const
{
    return region_bytes_[static_cast<std::size_t>(r)];
}

std::uint32_t
SimMemory::socket_of(Addr a) const
{
    auto it = std::upper_bound(
        allocs_.begin(), allocs_.end(), a,
        [](Addr addr, const Alloc &al) { return addr < al.base; });
    if (it == allocs_.begin())
        return 0;
    --it;
    if (a >= it->base + it->size)
        return 0;
    return it->socket;
}

std::uint8_t *
SimMemory::host_ptr(Addr a)
{
    // allocs_ is sorted by base because next_ only grows.
    auto it = std::upper_bound(
        allocs_.begin(), allocs_.end(), a,
        [](Addr addr, const Alloc &al) { return addr < al.base; });
    if (it == allocs_.begin())
        return nullptr;
    --it;
    if (a >= it->base + it->size)
        return nullptr;
    return it->host.get() + (a - it->base);
}

} // namespace pmill
