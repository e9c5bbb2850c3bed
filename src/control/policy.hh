/**
 * @file
 * Control policies: per-interval decision rules over the sampled
 * telemetry.
 *
 * A Policy is pure decision logic — it sees one distilled observation
 * per sample interval plus the current knob state and returns the
 * knob state it wants. It never touches the engine; the Controller
 * clamps the request to the ActuationLimits and applies it. Two
 * policies ship behind the one interface:
 *
 *  - HysteresisPolicy: a two-regime threshold rule. Ring occupancy
 *    above the high watermark for K consecutive intervals switches to
 *    the high-load regime (max burst, no poll backoff); below the low
 *    watermark for K intervals switches back (min burst, full
 *    backoff). The dead band between the watermarks holds the current
 *    regime, so the policy cannot flap.
 *  - AimdPolicy: additive-increase/multiplicative-decrease per
 *    interval. Congestion (occupancy above the high watermark or any
 *    RX drop) additively grows the burst and halves the backoff;
 *    a quiet interval additively grows the backoff and decays the
 *    burst by one. Converges to the regime's fixed point instead of
 *    jumping there.
 */

#ifndef PMILL_CONTROL_POLICY_HH
#define PMILL_CONTROL_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "src/control/actuator.hh"

namespace pmill {

/** One sample interval distilled for the policies. */
struct ControlObservation {
    double t_us = 0;   ///< interval end, relative to measurement start
    double dt_us = 0;
    double ring_occupancy = 0;     ///< RX ring fill, averaged [0,1]
    double mempool_occupancy = 0;  ///< buffer pool fill [0,1]
    double p50_us = 0;             ///< interval latency percentiles
    double p99_us = 0;
    double throughput_gbps = 0;
    double mpps = 0;
    double rx_drops = 0;       ///< drops in this interval
    double pipeline_drops = 0;
    /// Fraction of the interval's core cycles spent idle — the
    /// ledger's idle scope (empty polls, backoff sleeps, CQE
    /// fast-forward) over its total, acct_idle_cycles /
    /// acct_total_cycles. The Metronome-style load signal: near 0
    /// when the cores are saturated, near 1 when the queues are dry.
    double idle_fraction = 0;
};

/** The knob state a policy wants after one interval. */
struct ControlAction {
    std::uint32_t burst = 0;  ///< desired RX burst; 0 = no change
    double backoff_ns = -1;   ///< desired poll backoff; < 0 = no change
    /// Ask the controller to rebalance up to this many indirection-
    /// table buckets from the hottest core to the coldest (0 = none).
    /// The controller owns the mechanics: the policy only signals the
    /// intent, since per-bucket loads live behind the Actuator.
    std::uint32_t rebalance_moves = 0;
    std::string reason;  ///< one-line rationale for the decision log

    bool
    changes_nothing() const
    {
        return burst == 0 && backoff_ns < 0 && rebalance_moves == 0;
    }
};

/** Tunables shared by the shipped policies. */
struct PolicyConfig {
    double hi_occupancy = 0.30;  ///< congestion watermark
    double lo_occupancy = 0.05;  ///< idle watermark
    /// Idle-fraction watermarks (the complementary load signal):
    /// below lo_idle the cores are effectively saturated even if the
    /// instantaneous ring sample looks shallow; above hi_idle the
    /// load is light enough to favor backoff.
    double lo_idle = 0.15;
    double hi_idle = 0.50;
    std::uint32_t hysteresis_intervals = 2;  ///< debounce count
    std::uint32_t burst_add = 8;       ///< AIMD additive burst step
    double backoff_add_ns = 2000.0;    ///< AIMD additive backoff step
    double backoff_decrease = 0.5;     ///< AIMD multiplicative factor
    /// @name Steer policy (indirection-table rebalance).
    /// @{
    /// Max buckets moved per interval.
    std::uint32_t rebalance_moves = 8;
    /// Hot/cold core load gap (as a fraction of the per-core mean
    /// load) below which the table is considered balanced.
    double rebalance_spread = 0.25;
    /// @}
};

/** Decision rule over per-interval observations. */
class Policy {
  public:
    virtual ~Policy() = default;
    virtual const char *name() const = 0;

    /** Forget all learned state (called at measurement start). */
    virtual void reset() = 0;

    /**
     * Decide the desired knob state after @p obs, given the currently
     * applied burst/backoff. Return a default ControlAction to hold.
     */
    virtual ControlAction decide(const ControlObservation &obs,
                                 std::uint32_t cur_burst,
                                 double cur_backoff_ns) = 0;
};

/** Threshold/watermark rule with debounce (see file header). */
class HysteresisPolicy : public Policy {
  public:
    HysteresisPolicy(const ActuationLimits &limits, const PolicyConfig &cfg)
        : limits_(limits), cfg_(cfg)
    {}

    const char *name() const override { return "hysteresis"; }
    void reset() override;
    ControlAction decide(const ControlObservation &obs,
                         std::uint32_t cur_burst,
                         double cur_backoff_ns) override;

  private:
    ActuationLimits limits_;
    PolicyConfig cfg_;
    bool high_regime_ = false;
    std::uint32_t hi_streak_ = 0;
    std::uint32_t lo_streak_ = 0;
};

/** Additive-increase / multiplicative-decrease rule (see header). */
class AimdPolicy : public Policy {
  public:
    AimdPolicy(const ActuationLimits &limits, const PolicyConfig &cfg)
        : limits_(limits), cfg_(cfg)
    {}

    const char *name() const override { return "aimd"; }
    void reset() override {}
    ControlAction decide(const ControlObservation &obs,
                         std::uint32_t cur_burst,
                         double cur_backoff_ns) override;

  private:
    ActuationLimits limits_;
    PolicyConfig cfg_;
};

/**
 * Flow-placement rule: every interval, ask the controller to migrate
 * up to PolicyConfig::rebalance_moves hot indirection-table buckets
 * from the most-loaded core to the least-loaded one (the software
 * analogue of reprogramming the NIC RETA against a skewed hash). The
 * controller's mechanics no-op while the measured per-core bucket
 * loads are within rebalance_spread of each other, so on balanced
 * traffic the policy leaves the table alone.
 */
class SteerPolicy : public Policy {
  public:
    SteerPolicy(const ActuationLimits &limits, const PolicyConfig &cfg)
        : limits_(limits), cfg_(cfg)
    {}

    const char *name() const override { return "steer"; }
    void reset() override {}
    ControlAction decide(const ControlObservation &obs,
                         std::uint32_t cur_burst,
                         double cur_backoff_ns) override;

  private:
    ActuationLimits limits_;
    PolicyConfig cfg_;
};

/**
 * Factory for the shipped policies ("hysteresis" | "aimd" | "steer");
 * nullptr for an unknown name.
 */
std::unique_ptr<Policy> make_policy(const std::string &name,
                                    const ActuationLimits &limits,
                                    const PolicyConfig &cfg);

} // namespace pmill

#endif // PMILL_CONTROL_POLICY_HH
