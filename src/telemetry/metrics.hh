/**
 * @file
 * Metrics registry: the name -> value layer of the telemetry
 * subsystem.
 *
 * Registration happens once at setup time and hands the hot path a
 * plain `std::uint64_t` slot (wrapped in CounterHandle); incrementing is a
 * single add through a cached pointer — no map lookup, no hashing,
 * no branch — so per-packet accounting does not perturb the very
 * cache/IPC behaviour the testbed measures. Gauges and derived
 * metrics (rates, ratios) are evaluated only when the Sampler takes
 * a snapshot, i.e.\ once per sample interval rather than per packet.
 */

#ifndef PMILL_TELEMETRY_METRICS_HH
#define PMILL_TELEMETRY_METRICS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/histogram.hh"

namespace pmill {

/** Index of a registered metric (dense, registration order). */
using MetricId = std::uint32_t;

/** How a metric turns into one time-series column per interval. */
enum class MetricKind : std::uint8_t {
    kCounter,  ///< monotonic; the column is the per-interval delta
    kGauge,    ///< instantaneous; the column is the probed value
    kRate,     ///< scaled per-second rate of a counter's delta
    kRatio,    ///< delta(numerator) / delta(denominator)
};

/**
 * Hot-path counter handle: a bare slot pointer. The slot address is
 * stable for the registry's lifetime, so callers cache the handle at
 * registration and the per-event cost is one add.
 */
struct CounterHandle {
    std::uint64_t *slot = nullptr;

    void inc() { ++*slot; }
    void add(std::uint64_t n) { *slot += n; }
    std::uint64_t value() const { return *slot; }
};

static_assert(sizeof(CounterHandle) == sizeof(std::uint64_t *) &&
                  std::is_trivially_copyable_v<CounterHandle>,
              "CounterHandle must stay a bare slot pointer (branch-free "
              "hot path)");

/**
 * Registry of named metrics. Counters are slot- or probe-backed;
 * gauges are probe-backed; rates and ratios are derived from
 * registered counters at sample time. Histograms collect samples
 * within one interval and are drained (p50/p99) by the Sampler.
 */
class MetricsRegistry {
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Probe evaluated at sample time (cumulative or instantaneous). */
    using Probe = std::function<double()>;

    /** Register a slot-backed monotonic counter. */
    CounterHandle add_counter(const std::string &name);

    /**
     * Register a monotonic counter whose cumulative value is read
     * from @p probe at sample time (e.g.\ an existing stats struct).
     */
    MetricId add_probe_counter(const std::string &name, Probe probe);

    /** Register an instantaneous gauge read from @p probe. */
    MetricId add_gauge(const std::string &name, Probe probe);

    /**
     * Register a derived per-second rate: the column is
     * delta(@p counter_name) / interval_seconds * @p scale.
     */
    MetricId add_rate(const std::string &name,
                      const std::string &counter_name, double scale);

    /**
     * Register a derived ratio of two counters' interval deltas
     * (0 when the denominator's delta is 0).
     */
    MetricId add_ratio(const std::string &name,
                       const std::string &numerator,
                       const std::string &denominator);

    /**
     * Register an interval histogram; the Sampler emits p50/p99
     * columns (`p50_<name>`, `p99_<name>`) and clears it each
     * interval. The registry owns the Histogram.
     */
    Histogram *add_histogram(const std::string &name, double max_value,
                             std::size_t num_bins);

    /** Id of @p name, or -1 when not registered. */
    int find(const std::string &name) const;

    /** Number of registered (non-histogram) metrics. */
    std::size_t size() const { return metrics_.size(); }

    const std::string &name(MetricId id) const { return metrics_[id].name; }
    MetricKind kind(MetricId id) const { return metrics_[id].kind; }

    /**
     * Current cumulative (counter) or instantaneous (gauge) value.
     * Derived metrics (rate/ratio) read as 0 — they only exist as
     * per-interval columns.
     */
    double read(MetricId id) const;

    /** Source-counter id of a rate metric. */
    MetricId rate_source(MetricId id) const { return metrics_[id].src; }
    double rate_scale(MetricId id) const { return metrics_[id].scale; }

    /** Numerator / denominator ids of a ratio metric. */
    MetricId ratio_num(MetricId id) const { return metrics_[id].src; }
    MetricId ratio_den(MetricId id) const { return metrics_[id].den; }

    /** Registered histograms, in registration order. */
    struct HistEntry {
        std::string name;
        std::unique_ptr<Histogram> hist;
    };
    const std::vector<HistEntry> &histograms() const { return hists_; }

  private:
    struct Metric {
        std::string name;
        MetricKind kind = MetricKind::kCounter;
        std::uint64_t *slot = nullptr;  ///< slot-backed counters
        Probe probe;                    ///< probe-backed counter/gauge
        MetricId src = 0;               ///< rate source / ratio num
        MetricId den = 0;               ///< ratio denominator
        double scale = 1.0;             ///< rate scale
    };

    MetricId add(Metric m);

    /// Slot storage: deque keeps addresses stable across growth.
    std::deque<std::uint64_t> slots_;
    std::vector<Metric> metrics_;
    std::vector<HistEntry> hists_;
};

/**
 * Per-element execution counters of a measured window, so each Click
 * element reports its own cost (the per-stage breakdown
 * Benchmarking-NFV argues for). Packets and invocations are the
 * Pipeline's counts; cycles and stall time are the element's
 * cycle-accounting scope (Engine::element_stats()).
 */
struct ElementStats {
    std::uint64_t packets = 0;  ///< packets entering the element
    std::uint64_t batches = 0;  ///< invocations
    double cycles = 0;          ///< core-clocked cycles (compute+access)
    double mem_ns = 0;          ///< uncore (memory stall) nanoseconds

    double
    cycles_per_packet() const
    {
        return packets ? cycles / static_cast<double>(packets) : 0.0;
    }

    double
    mem_ns_per_packet() const
    {
        return packets ? mem_ns / static_cast<double>(packets) : 0.0;
    }
};

} // namespace pmill

#endif // PMILL_TELEMETRY_METRICS_HH
