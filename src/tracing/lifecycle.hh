/**
 * @file
 * Packet-lifecycle reconstruction and tail-latency attribution.
 *
 * The tracer's ring holds interleaved batch- and packet-scope events;
 * this layer regroups the per-packet events (RX -> elements -> TX or
 * DROP) into lifecycles, then answers the question the aggregate
 * Timeline cannot: for the packets above the run's p99 latency,
 * *which stage* did the extra time go to — an element's compute, its
 * memory stalls, or queueing/wire time outside the pipeline?
 */

#ifndef PMILL_TRACING_LIFECYCLE_HH
#define PMILL_TRACING_LIFECYCLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/tracing/tracer.hh"

namespace pmill {

/** One element visit of a sampled packet. */
struct LifecycleStage {
    std::uint16_t span = 0;  ///< interned element name
    TimeNs t_ns = 0;         ///< exit timestamp
    double cycles = 0;       ///< per-packet core-cycle share
    double dur_ns = 0;       ///< per-packet elapsed-ns share (incl. stalls)
};

/** The reconstructed path of one sampled packet. */
struct PacketLifecycle {
    std::uint64_t packet_id = 0;
    TimeNs rx_ns = 0;  ///< wire arrival (kRxPacket)
    TimeNs tx_ns = 0;  ///< wire departure (kTx); 0 until complete
    std::uint32_t len = 0;
    bool have_rx = false;
    bool complete = false;  ///< both RX and TX observed
    bool dropped = false;
    std::vector<LifecycleStage> stages;  ///< pipeline path, in order

    /** End-to-end latency; only meaningful when complete. */
    double latency_us() const { return (tx_ns - rx_ns) / 1000.0; }

    /** Sum of in-pipeline stage time (us). */
    double pipeline_us() const;
};

/**
 * Rebuild all sampled-packet lifecycles held in @p tracer's ring,
 * ordered by packet id. Packets whose early events were overwritten
 * come back partial (have_rx false) and are skipped by attribution.
 */
std::vector<PacketLifecycle> build_lifecycles(const Tracer &tracer);

/**
 * Per-stage breakdown of where tail packets' extra latency went.
 * "Stages" are the pipeline's elements plus one synthetic
 * "queue/wire" row covering everything outside element execution
 * (RX-ring wait, driver, TX ring, wire serialization).
 */
struct TailAttribution {
    double threshold_us = 0;    ///< tail cut (the run's p99)
    std::size_t num_complete = 0;  ///< sampled lifecycles considered
    std::size_t num_tail = 0;      ///< above-threshold lifecycles

    struct Row {
        std::string stage;
        double mean_us_all = 0;   ///< mean per-packet time, all sampled
        double mean_us_tail = 0;  ///< mean per-packet time, tail only
        double excess_us = 0;     ///< tail minus all
        double share_pct = 0;     ///< fraction of total positive excess
    };
    std::vector<Row> rows;  ///< sorted by excess, descending

    std::string dominant_stage;    ///< largest excess overall
    std::string dominant_element;  ///< largest excess among elements

    /** Human table (common/table_printer format). */
    std::string to_string() const;

    /** One `{"type":"tail_attribution",...}` meta line + one per row. */
    void write_jsonl(std::ostream &os) const;
};

/**
 * Attribute tail latency: packets with latency above @p threshold_us
 * (typically the run's p99) against the all-sampled mean.
 */
TailAttribution attribute_tail(const Tracer &tracer, double threshold_us);

/**
 * Histogram of RX burst occupancy from the ring's kRxBurst records:
 * slot b counts polls that returned exactly b packets, b in
 * [0, max_burst]. Occupancy tells the mill whether the configured
 * burst size is saturated (bursts pinned at the max -> grow it) or
 * mostly empty (shrink it to cut per-packet RX latency).
 */
std::vector<std::uint64_t>
burst_occupancy_histogram(const Tracer &tracer,
                          std::uint32_t max_burst = 64);

} // namespace pmill

#endif // PMILL_TRACING_LIFECYCLE_HH
