/**
 * @file
 * Per-packet / per-span event tracer.
 *
 * The telemetry subsystem (src/telemetry/) answers "how did this
 * interval behave"; the tracer answers "what happened to *this*
 * packet" — the event-level view the paper builds its per-stage
 * cycle accounting from (Table 1, Fig. 9) and the prerequisite for
 * tail-latency attribution.
 *
 * Design constraints, in order:
 *  1. Near-zero cost when off: every record site is guarded by one
 *     null/enabled check (`PMILL_TRACE_ON`).
 *  2. Bounded memory at full rate: a fixed-capacity ring that
 *     overwrites the oldest record; per-packet lifecycle events are
 *     further thinned by deterministic probabilistic sampling
 *     (`sample_rate`), so 100-Gbps runs stay cheap.
 *  3. Deterministic: timestamps are simulated time and the sampling
 *     RNG is explicitly seeded, so traces are byte-stable run-to-run.
 */

#ifndef PMILL_TRACING_TRACER_HH
#define PMILL_TRACING_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/common/types.hh"

namespace pmill {

/** Typed trace events. Batch-scope records carry packet_id == 0. */
enum class TraceEventKind : std::uint8_t {
    kRxBurst,        ///< PMD poll returned packets (arg = count)
    kRxPacket,       ///< sampled packet entered the DUT (t = arrival)
    kElementEnter,   ///< batch entered an element (arg = count)
    kElementExit,    ///< batch left an element (cycles/dur = deltas)
    kPacketElement,  ///< sampled packet's per-element cost share
    kMempoolGet,     ///< buffer left the pool (arg = free count)
    kMempoolPut,     ///< buffer returned to the pool (arg = free count)
    kTx,             ///< sampled packet hit the wire (t = departure)
    kDrop,           ///< packet dropped (arg = reason / element)
};

/** Stable lower-case name of @p k (exporters, tests). */
const char *trace_event_name(TraceEventKind k);

/** One ring slot. 64 bytes; plain data, trivially copyable. */
struct TraceRecord {
    TimeNs t_ns = 0;             ///< simulated timestamp
    double cycles = 0;           ///< core-cycle cost (element events)
    double dur_ns = 0;           ///< elapsed DUT ns incl. mem stalls
    std::uint64_t packet_id = 0; ///< sampled packet id; 0 = batch scope
    std::uint32_t batch_id = 0;  ///< pipeline invocation id
    std::uint32_t arg = 0;       ///< count / length / drop reason
    std::uint16_t span = 0;      ///< interned span name (element, queue)
    std::uint8_t core = 0;       ///< DUT core that recorded the event
    TraceEventKind kind = TraceEventKind::kRxBurst;
};

/** Drop-reason codes carried in TraceRecord::arg for NIC drops. */
inline constexpr std::uint32_t kDropNoRxDesc = 1;  ///< RX ring underrun
inline constexpr std::uint32_t kDropPcie = 2;      ///< PCIe backlog
inline constexpr std::uint32_t kDropPipeline = 3;  ///< element decision

/** Tracer sizing and sampling knobs. */
struct TracerConfig {
    std::size_t capacity = 1u << 16;  ///< ring slots (rounded to pow2)
    double sample_rate = 1.0;         ///< lifecycle-sampled fraction
    std::uint64_t seed = 1;           ///< sampling RNG seed
};

/**
 * Fixed-capacity, overwrite-oldest event ring plus the packet-id and
 * sampling state shared by all instrumented components of one engine.
 */
class Tracer {
  public:
    explicit Tracer(const TracerConfig &cfg);

    /// Always true; kept only because perfbench/harness.cc reports it.
    static constexpr bool kCompiledIn = true;

    bool enabled() const { return enabled_; }

    void set_enabled(bool on) { enabled_ = on; }

    /** Append one record, stamping the current core. */
    void
    record(TraceEventKind kind, TimeNs t_ns, std::uint64_t packet_id,
           std::uint32_t batch_id, std::uint16_t span, std::uint32_t arg,
           double cycles = 0, double dur_ns = 0)
    {
        TraceRecord &r = ring_[head_ & mask_];
        r.t_ns = t_ns;
        r.cycles = cycles;
        r.dur_ns = dur_ns;
        r.packet_id = packet_id;
        r.batch_id = batch_id;
        r.arg = arg;
        r.span = span;
        r.core = core_;
        r.kind = kind;
        ++head_;
    }

    /// @name Shared id / time state for instrumented components.
    /// @{
    /** Next monotonically increasing packet id (ids start at 1). */
    std::uint64_t next_packet_id() { return ++packet_seq_; }

    /** Next pipeline-invocation (batch) id. */
    std::uint32_t next_batch_id() { return ++batch_seq_; }

    /**
     * Deterministic head-sampling decision for one packet: true with
     * probability sample_rate under the configured seed.
     */
    bool
    sample_packet()
    {
        if (sample_rate_ >= 1.0)
            return true;
        if (sample_rate_ <= 0.0)
            return false;
        return rng_.next_double() < sample_rate_;
    }

    /**
     * Coarse "current simulated time" for components without a
     * timestamp of their own (mempool get/put inside a burst); set by
     * the engine/PMDs at burst boundaries.
     */
    void set_now(TimeNs t) { now_ = t; }
    TimeNs now() const { return now_; }

    /** Core stamped on subsequent records (engine sets per step). */
    void set_core(std::uint8_t c) { core_ = c; }
    /// @}

    /**
     * Intern @p name into the span table (idempotent) and return its
     * id. Span 0 is reserved for "" (unknown).
     */
    std::uint16_t intern(const std::string &name);

    /** Name of span @p id ("" when out of range). */
    const std::string &span_name(std::uint16_t id) const;

    const std::vector<std::string> &spans() const { return spans_; }

    /// @name Ring access (oldest-first chronological order).
    /// @{
    std::size_t capacity() const { return ring_.size(); }

    /** Records currently held (<= capacity). */
    std::size_t
    size() const
    {
        return head_ < ring_.size() ? head_ : ring_.size();
    }

    /** Total records ever written (monotonic). */
    std::uint64_t total_recorded() const { return head_; }

    /** Records lost to overwrite-oldest. */
    std::uint64_t
    overwritten() const
    {
        return head_ > ring_.size() ? head_ - ring_.size() : 0;
    }

    /** Record @p i, i in [0, size()), oldest first. */
    const TraceRecord &
    at(std::size_t i) const
    {
        const std::size_t base = head_ > ring_.size()
                                     ? head_ & mask_
                                     : 0;
        return ring_[(base + i) & mask_];
    }
    /// @}

    /** Drop all records and reset ids (span table survives). */
    void clear();

    double sample_rate() const { return sample_rate_; }

  private:
    std::vector<TraceRecord> ring_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0;  ///< next write position (monotonic)

    bool enabled_ = true;
    double sample_rate_ = 1.0;
    Xorshift64 rng_;

    std::uint64_t packet_seq_ = 0;
    std::uint32_t batch_seq_ = 0;
    TimeNs now_ = 0;
    std::uint8_t core_ = 0;

    std::vector<std::string> spans_;
};

/** Guard for every instrumentation site: one pointer + flag check. */
#define PMILL_TRACE_ON(tracer) ((tracer) != nullptr && (tracer)->enabled())

/** Record an event iff tracing is on (single enabled check). */
#define PMILL_TRACE(tracer, ...)                                          \
    do {                                                                  \
        if (PMILL_TRACE_ON(tracer))                                       \
            (tracer)->record(__VA_ARGS__);                                \
    } while (0)

} // namespace pmill

#endif // PMILL_TRACING_TRACER_HH
