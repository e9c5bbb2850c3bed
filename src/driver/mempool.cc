#include "src/driver/mempool.hh"

#include <algorithm>

#include "src/accounting/cycle_account.hh"
#include "src/common/log.hh"
#include "src/telemetry/metrics.hh"
#include "src/tracing/tracer.hh"

namespace pmill {

Mempool::Mempool(SimMemory &mem, std::uint32_t num_elements)
    : num_elements_(num_elements), unused_(num_elements)
{
    PMILL_ASSERT(is_pow2(num_elements), "pool size must be a power of two");
    storage_ = mem.alloc_sparse(
        std::uint64_t(num_elements) * kMbufElementBytes, kCacheLineBytes,
        Region::kMbufPool);
    cache_mem_ = mem.alloc_sparse(kCacheLineBytes, kCacheLineBytes,
                                  Region::kMbufPool);
    free_stack_.reserve(num_elements);
    for (std::uint32_t i = 0; i < num_elements; ++i)
        free_stack_.push_back(i);
}

void
Mempool::init_header(std::uint32_t i) const
{
    RteMbuf *m = elem_host(i);
    *m = RteMbuf{};
    m->buf_addr = elem_addr(i) + kMbufBufOffset;
    m->buf_host = storage_.host + std::uint64_t(i) * kMbufElementBytes +
                  kMbufBufOffset;
    m->data_off = kMbufHeadroomBytes;
    m->pool_elem = i;
}

MbufRef
Mempool::alloc(AccessSink *sink)
{
    if (free_stack_.empty())
        return MbufRef{};
    // Pool work stays in the mempool bucket even when nested inside a
    // driver RX replenish.
    AcctScope acct_scope(sink, kAcctMempool);
    // The per-lcore cache head: alloc/free traffic stays in this hot
    // line; the backing ring is only touched on (rare) bulk spills,
    // so the cache model sees no pool-bookkeeping misses — matching
    // rte_mempool with its default cache.
    sink_load(sink, cache_mem_.addr, 8);
    const std::uint32_t idx = free_stack_.back();
    free_stack_.pop_back();

    const MbufRef r = ref(idx);
    unused_ = std::min(unused_, idx);
    // Reset to a pristine RX-ready state (rte_pktmbuf_reset).
    r.m->data_off = kMbufHeadroomBytes;
    r.m->refcnt = 1;
    r.m->nb_segs = 1;
    r.m->ol_flags = 0;
    r.m->pkt_len = 0;
    r.m->data_len = 0;
    sink_store(sink, r.addr, 32);
    PMILL_TRACE(tracer_, TraceEventKind::kMempoolGet, tracer_->now(), 0, 0,
                trace_span_,
                static_cast<std::uint32_t>(free_stack_.size()));
    return r;
}

MbufRef
Mempool::owner_of(Addr a) const
{
    PMILL_ASSERT(a >= storage_.addr && a < storage_.addr + storage_.size,
                 "address outside this mempool");
    const std::uint32_t idx = static_cast<std::uint32_t>(
        (a - storage_.addr) / kMbufElementBytes);
    return ref(idx);
}

void
Mempool::free(const MbufRef &ref, AccessSink *sink)
{
    PMILL_ASSERT(ref.m != nullptr, "freeing a null mbuf");
    const std::uint32_t idx = static_cast<std::uint32_t>(ref.m->pool_elem);
    PMILL_ASSERT(idx < num_elements_, "mbuf does not belong to this pool");
    AcctScope acct_scope(sink, kAcctMempool);
    sink_store(sink, cache_mem_.addr, 8);
    PMILL_ASSERT(free_stack_.size() < num_elements_,
                 "double free: pool overflow");
    free_stack_.push_back(idx);
    PMILL_TRACE(tracer_, TraceEventKind::kMempoolPut, tracer_->now(), 0, 0,
                trace_span_,
                static_cast<std::uint32_t>(free_stack_.size()));
}

void
Mempool::register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.add_gauge(prefix + "mempool_occupancy", [this] {
        return 1.0 - static_cast<double>(free_stack_.size()) /
                         static_cast<double>(num_elements_);
    });
    reg.add_gauge(prefix + "mempool_free", [this] {
        return static_cast<double>(free_stack_.size());
    });
}

} // namespace pmill
