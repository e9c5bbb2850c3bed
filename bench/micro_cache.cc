/**
 * @file
 * Host microbenchmark (real execution, google-benchmark): the speed of
 * the simulator's cache/TLB model itself, in host time per simulated
 * cache line walked, on four fixed streams over the default geometry:
 *
 *   L1Hit      loads cycling over 256 lines, every one an L1 hit
 *   LlcMiss    loads sweeping a working set twice the LLC, every one a
 *              DRAM fill
 *   DmaRing    1500-B frames written by DevWrite into a 512-buffer ring
 *              and read back by DevRead
 *   RouterMix  per frame (64 B and 1500 B in turn): the RX DMA
 *              (descriptor fetch, frame, CQE), six header loads or
 *              stores, the TX DMA (descriptor, frame)
 *
 * Like micro_dispatch it measures the host, not the simulated machine,
 * and nothing gates it; the simulator's end-to-end benchmark is
 * perfbench. The "line" counter is host time per line.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/mem/cache.hh"

namespace {

using pmill::AccessType;
using pmill::Addr;
using pmill::CacheHierarchy;
using pmill::kCacheLineBytes;

constexpr Addr kBufBase = 0x10000000;   // 512 buffers, 2 KiB apart
constexpr Addr kMetaBase = 0x20000000;  // one 128-B metadata slot each
constexpr Addr kRxDescBase = 0x30000000;
constexpr Addr kCqBase = 0x30100000;
constexpr Addr kTxDescBase = 0x30200000;
constexpr std::uint32_t kRing = 512;
constexpr std::uint32_t kBatch = 32;

std::uint64_t
lines(Addr addr, std::uint32_t len)
{
    return (addr + len - 1) / kCacheLineBytes - addr / kCacheLineBytes + 1;
}

void
report(benchmark::State &state, std::uint64_t walked)
{
    state.counters["line"] = benchmark::Counter(
        static_cast<double>(walked),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_L1Hit(benchmark::State &state)
{
    CacheHierarchy h;
    constexpr std::uint32_t kLines = 256;
    for (std::uint32_t i = 0; i < kLines; ++i)
        h.access(kBufBase + i * kCacheLineBytes, 8, AccessType::kLoad);
    std::uint64_t walked = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < kLines; ++i)
            benchmark::DoNotOptimize(h.access(
                kBufBase + i * kCacheLineBytes, 8, AccessType::kLoad));
        walked += kLines;
    }
    report(state, walked);
}
BENCHMARK(BM_L1Hit);

void
BM_LlcMiss(benchmark::State &state)
{
    CacheHierarchy h;
    const std::uint64_t ws = 2 * h.config().llc_size / kCacheLineBytes;
    std::uint64_t next = 0;
    std::uint64_t walked = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            benchmark::DoNotOptimize(h.access(
                kBufBase + next * kCacheLineBytes, 8, AccessType::kLoad));
            next = next + 1 == ws ? 0 : next + 1;
        }
        walked += 256;
    }
    report(state, walked);
}
BENCHMARK(BM_LlcMiss);

void
BM_DmaRing(benchmark::State &state)
{
    CacheHierarchy h;
    constexpr std::uint32_t kLen = 1500;
    std::uint32_t slot = 0;
    std::uint64_t walked = 0;
    for (auto _ : state) {
        for (std::uint32_t f = 0; f < kBatch; ++f) {
            const Addr buf = kBufBase + Addr{slot} * 2048;
            h.dma(buf, kLen, AccessType::kDevWrite);
            h.dma(buf, kLen, AccessType::kDevRead);
            walked += 2 * lines(buf, kLen);
            slot = (slot + 1) % kRing;
        }
    }
    benchmark::DoNotOptimize(h.stats());
    report(state, walked);
}
BENCHMARK(BM_DmaRing);

void
BM_RouterMix(benchmark::State &state)
{
    CacheHierarchy h;
    std::uint32_t slot = 0;
    std::uint64_t walked = 0;
    for (auto _ : state) {
        for (std::uint32_t f = 0; f < kBatch; ++f) {
            const std::uint32_t len = (slot & 1) ? 1500 : 64;
            const Addr buf = kBufBase + Addr{slot} * 2048;
            const Addr meta = kMetaBase + Addr{slot} * 128;
            // RX: descriptor fetch, frame, CQE.
            h.dma(kRxDescBase + slot * 16, 16, AccessType::kDevRead);
            h.dma(buf, len, AccessType::kDevWrite);
            h.dma(kCqBase + slot * 64, 64, AccessType::kDevWrite);
            // Ethernet/IP header reads, TTL and checksum rewrites, and
            // the metadata the driver fills and the TX path reads.
            benchmark::DoNotOptimize(h.access(buf, 14, AccessType::kLoad));
            benchmark::DoNotOptimize(h.access(buf + 14, 20, AccessType::kLoad));
            benchmark::DoNotOptimize(h.access(meta, 64, AccessType::kStore));
            benchmark::DoNotOptimize(h.access(buf + 22, 4, AccessType::kStore));
            benchmark::DoNotOptimize(h.access(buf, 12, AccessType::kStore));
            benchmark::DoNotOptimize(h.access(meta, 16, AccessType::kLoad));
            // TX: descriptor, frame.
            h.dma(kTxDescBase + slot * 16, 16, AccessType::kDevRead);
            h.dma(buf, len, AccessType::kDevRead);
            walked += 1 + 2 * lines(buf, len) + 1 + 6 + 1;
            slot = (slot + 1) % kRing;
        }
    }
    report(state, walked);
}
BENCHMARK(BM_RouterMix);

} // namespace

BENCHMARK_MAIN();
