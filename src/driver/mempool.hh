/**
 * @file
 * Fixed-size packet-buffer pool, modeled after rte_mempool backed by
 * an rte_ring.
 *
 * Allocation order is LIFO, modeling rte_mempool's per-lcore cache:
 * the most recently freed element is reused first, so the circulating
 * working set is roughly the in-flight set (RX ring + TX backlog)
 * rather than the whole pool. The paper's cold-metadata effect stems
 * from the RX descriptor ring itself: a replenished buffer is not
 * written by the NIC until the ring wraps, so its metadata lines have
 * left the private caches by the time the PMD fills them again.
 *
 * The pool's host backing is sparse and each element's header is
 * written the first time the pool hands that element out, so only
 * the elements a run actually circulates get host pages (16384
 * elements are 37 MiB; a one-core router circulates about 2k).
 */

#ifndef PMILL_DRIVER_MEMPOOL_HH
#define PMILL_DRIVER_MEMPOOL_HH

#include <cstdint>

#include <string>
#include <vector>

#include "src/driver/mbuf.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/sim_memory.hh"

namespace pmill {

class MetricsRegistry;
class Tracer;

/** Pool of kMbufElementBytes elements in simulated memory. */
class Mempool {
  public:
    /**
     * Reserves the pool's simulated addresses and a sparse host
     * backing; no element header is written until its first use.
     * @param mem Simulated memory to carve the pool from.
     * @param num_elements Power-of-two element count.
     */
    Mempool(SimMemory &mem, std::uint32_t num_elements);

    /**
     * Allocate one mbuf; accounts the free-ring load and the struct
     * initialization store to @p sink.
     * @return empty ref when the pool is exhausted.
     */
    MbufRef alloc(AccessSink *sink);

    /** Return an mbuf to the pool; accounts the free-ring store. */
    void free(const MbufRef &ref, AccessSink *sink);

    /** Number of currently free elements. */
    std::size_t free_count() const { return free_stack_.size(); }

    /** Total elements in the pool. */
    std::uint32_t capacity() const { return num_elements_; }

    /** Sim address of element @p i 's RteMbuf struct. */
    Addr
    elem_addr(std::uint32_t i) const
    {
        return storage_.addr + std::uint64_t(i) * kMbufElementBytes;
    }

    /** Host view of element @p i 's RteMbuf struct. */
    RteMbuf *
    elem_host(std::uint32_t i) const
    {
        return reinterpret_cast<RteMbuf *>(
            storage_.host + std::uint64_t(i) * kMbufElementBytes);
    }

    /**
     * Ref for element @p i (does not change free/used state). An
     * element alloc() never handed out gets its pristine header
     * written first.
     */
    MbufRef
    ref(std::uint32_t i) const
    {
        if (PMILL_UNLIKELY(i < unused_))
            init_header(i);
        return MbufRef{elem_addr(i), elem_host(i)};
    }

    /**
     * Map any sim address inside an element (e.g.\ a frame address
     * with a shifted data offset) back to its owning mbuf.
     */
    MbufRef owner_of(Addr a) const;

    /**
     * Register this pool's occupancy gauges under @p prefix
     * (`<prefix>mempool_occupancy` in [0,1], `<prefix>mempool_free`).
     */
    void register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const;

    /**
     * Attach @p t (nullptr detaches); get/put events are recorded
     * under span @p span at the tracer's current burst time.
     */
    void
    set_tracer(Tracer *t, std::uint16_t span)
    {
        tracer_ = t;
        trace_span_ = span;
    }

  private:
    /** Write element @p i 's header as the pool first hands it out. */
    void init_header(std::uint32_t i) const;

    MemHandle storage_;
    MemHandle cache_mem_;  ///< hot per-lcore cache head line
    std::vector<std::uint32_t> free_stack_;
    std::uint32_t num_elements_;
    /// Elements [0, unused_) were never handed out by alloc(). The
    /// stack starts as 0..N-1 with N-1 on top, so they stay at its
    /// bottom, in order. Knowing this, the pool writes a fresh header
    /// without reading it first: a read of a never-written page would
    /// map the zero page, and the write after it would fault again.
    std::uint32_t unused_;
    Tracer *tracer_ = nullptr;
    std::uint16_t trace_span_ = 0;
};

} // namespace pmill

#endif // PMILL_DRIVER_MEMPOOL_HH
