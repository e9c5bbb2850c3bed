/**
 * @file
 * Packet traces and traffic generators.
 *
 * The paper evaluates with (i) a 28-minute campus trace (799 M
 * packets, 981 B average — GDPR-restricted, so we synthesize a trace
 * matching its disclosed statistics) and (ii) fixed-size synthetic
 * traffic. A Trace stores concrete wire-format frames; the engine
 * replays it cyclically, like the paper replays its trace 25 times.
 */

#ifndef PMILL_TRACE_TRACE_HH
#define PMILL_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.hh"
#include "src/net/flow.hh"
#include "src/net/headers.hh"

namespace pmill {

/** A stored trace of raw frames. */
class Trace {
  public:
    /** Append one frame (copied into the trace arena). */
    void add(const std::uint8_t *data, std::uint32_t len);

    /** Append one frame from a vector. */
    void
    add(const std::vector<std::uint8_t> &frame)
    {
        add(frame.data(), static_cast<std::uint32_t>(frame.size()));
    }

    /** Number of frames. */
    std::size_t size() const { return index_.size(); }

    bool empty() const { return index_.empty(); }

    /** Pointer to frame @p i 's bytes. */
    const std::uint8_t *
    data(std::size_t i) const
    {
        return bytes_.data() + index_[i].offset;
    }

    /** Length of frame @p i (excluding FCS). */
    std::uint32_t len(std::size_t i) const { return index_[i].len; }

    /** Sum of all frame lengths. */
    std::uint64_t total_bytes() const { return total_bytes_; }

    /** Mean frame length; 0 for an empty trace. */
    double
    mean_len() const
    {
        return empty() ? 0.0
                       : static_cast<double>(total_bytes_) /
                             static_cast<double>(size());
    }

  private:
    struct Index {
        std::uint64_t offset;
        std::uint32_t len;
    };
    std::vector<std::uint8_t> bytes_;
    std::vector<Index> index_;
    std::uint64_t total_bytes_ = 0;
};

/**
 * One frame drawn from a FrameSource: the length and RSS tuple the
 * engine paces and routes the arrival by, plus the few fields the
 * source's write() rebuilds the bytes from. 28 bytes.
 */
struct FrameDraw {
    FiveTuple tuple;          ///< equals extract_tuple() of the bytes
    std::uint32_t len = 0;    ///< frame length (no FCS)
    union {
        std::uint32_t tcp_seq = 0;  ///< WorkloadSource: TCP sequence
        std::uint32_t index;        ///< TraceReplay: frame in the Trace
    };
    std::uint8_t tcp_flags = 0;  ///< WorkloadSource: TCP flags
};

/**
 * A stream of wire frames feeding one NIC, produced in two steps. The
 * engine's conductor calls draw() for every frame in emission order;
 * it advances the source (RNG, per-flow state, trace cursor) and
 * yields what pacing and RSS routing need. The core that owns the
 * frame's RX queue calls write() only if the queue accepts the frame,
 * so a frame the NIC refuses is never built. write() is const and
 * reads no state draw() changes, so one source's queues may write
 * concurrently from their cores' threads.
 */
class FrameSource {
  public:
    FrameSource() = default;
    virtual ~FrameSource() = default;

    /**
     * Draw the next frame. @p gap_scale receives the factor applied to
     * the inter-arrival gap that precedes the *next* frame (1.0 = the
     * offered rate's own gap).
     */
    virtual FrameDraw draw(double *gap_scale) = 0;

    /**
     * The bytes of drawn frame @p d: either built into @p buf (which
     * holds at least d.len bytes) or a pointer into storage the source
     * keeps immutable. Returns d.len bytes.
     */
    virtual const std::uint8_t *write(const FrameDraw &d,
                                      std::uint8_t *buf) const = 0;

    /**
     * draw() then write(), with the frame copied into @p buf (capacity
     * @p cap) and its length returned. @p gap_scale may be null.
     */
    std::uint32_t next_frame(std::uint8_t *buf, std::uint32_t cap,
                             double *gap_scale);

  protected:
    FrameSource(const FrameSource &) = default;
    FrameSource(FrameSource &&) = default;
    FrameSource &operator=(const FrameSource &) = default;
    FrameSource &operator=(FrameSource &&) = default;
};

/**
 * Cyclic replay of a Trace, like the paper replays its trace. write()
 * returns the trace's own bytes; nothing is copied.
 */
class TraceReplay : public FrameSource {
  public:
    /** @p trace may be shared by several replays (one per NIC). */
    explicit TraceReplay(std::shared_ptr<const Trace> trace);

    FrameDraw draw(double *gap_scale) override;
    const std::uint8_t *write(const FrameDraw &d,
                              std::uint8_t *buf) const override;

  private:
    std::shared_ptr<const Trace> trace_;
    std::size_t cursor_ = 0;
};

/** Parameters for the synthetic campus-trace generator. */
struct CampusTraceConfig {
    std::size_t num_packets = 8192;
    std::uint32_t num_flows = 2048;
    std::uint64_t seed = 1;
    /// Fraction of TCP / UDP / ICMP / ARP packets (remainder -> TCP).
    double frac_udp = 0.12;
    double frac_icmp = 0.02;
    double frac_arp = 0.005;
};

/**
 * Draw a frame size from the campus mixture (mean ≈ 981 B): small
 * ACK-sized frames, a medium bucket and a heavy MTU-sized mode. The
 * campus trace and WorkloadSource's default sizes both draw from it.
 */
std::uint32_t campus_frame_len(Xorshift64 &rng);

/**
 * Synthesize a trace whose size distribution matches the paper's
 * campus trace statistics (mean ≈ 981 B: a mix of small ACK-sized,
 * medium, and MTU-sized frames) with a realistic flow and protocol
 * mixture over routable destination prefixes.
 */
Trace make_campus_trace(const CampusTraceConfig &cfg = CampusTraceConfig{});

/**
 * Synthesize fixed-size traffic: @p num_packets frames of
 * @p frame_len bytes spread over @p num_flows flows.
 */
Trace make_fixed_size_trace(std::uint32_t frame_len,
                            std::size_t num_packets = 4096,
                            std::uint32_t num_flows = 256,
                            std::uint64_t seed = 1);

} // namespace pmill

#endif // PMILL_TRACE_TRACE_HH
