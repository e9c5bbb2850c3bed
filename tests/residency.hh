/**
 * @file
 * Host residency of a byte range, for tests that check which
 * allocations commit host pages.
 */

#ifndef PMILL_TESTS_RESIDENCY_HH
#define PMILL_TESTS_RESIDENCY_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>

namespace pmill {

/** Host pages of [p, p + n) that are resident, per mincore(2). */
inline std::uint64_t
resident_bytes(const std::uint8_t *p, std::uint64_t n)
{
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    const auto hi = reinterpret_cast<std::uintptr_t>(p) + n;
    std::vector<unsigned char> vec((hi - lo + page - 1) / page);
    EXPECT_EQ(mincore(reinterpret_cast<void *>(lo), hi - lo, vec.data()), 0);
    std::uint64_t pages = 0;
    for (unsigned char v : vec)
        pages += v & 1;
    return pages * page;
}

/** Bytes of the whole host pages that [p, p + n) overlaps. */
inline std::uint64_t
spanned_page_bytes(const std::uint8_t *p, std::uint64_t n)
{
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    const auto hi = reinterpret_cast<std::uintptr_t>(p) + n;
    return (hi - lo + page - 1) / page * page;
}

} // namespace pmill
#endif

#endif // PMILL_TESTS_RESIDENCY_HH
