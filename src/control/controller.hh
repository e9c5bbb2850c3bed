/**
 * @file
 * The Controller: closes the loop between telemetry and actuation.
 *
 * Each time the engine's Sampler emits a Timeline row, the controller
 * distills it into a ControlObservation, asks its Policy for the
 * desired knob state, clamps the request to the ActuationLimits, and
 * applies the result uniformly across cores through the Actuator
 * interface. Every applied change — and every clamp — is recorded in
 * a machine-readable decision log exported next to the stats JSONL,
 * so a trajectory can always be replayed against the decisions that
 * shaped it.
 */

#ifndef PMILL_CONTROL_CONTROLLER_HH
#define PMILL_CONTROL_CONTROLLER_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/control/actuator.hh"
#include "src/control/policy.hh"
#include "src/telemetry/sampler.hh"

namespace pmill {

/** One applied knob change. */
struct Decision {
    double t_us = 0;   ///< sample-interval end that triggered it
    std::string knob;  ///< "rx_burst" | "poll_backoff_ns" | "rss_table_entry"
    std::uint32_t core = 0;
    std::int32_t queue = -1;  ///< table bucket; -1 for per-core knobs
    double from = 0;
    double to = 0;
    bool clamped = false;  ///< policy asked past the limits
    std::string reason;    ///< the policy's one-line rationale
};

/** The machine-readable audit trail of one controlled run. */
struct DecisionLog {
    std::vector<Decision> decisions;

    /** One {"type":"decision",...} object per line. */
    void write_jsonl(std::ostream &os) const;

    /** Human-readable multi-line rendering. */
    std::string to_string() const;

    bool empty() const { return decisions.empty(); }
    std::size_t size() const { return decisions.size(); }
};

/** Everything the controller needs besides the policy itself. */
struct ControlConfig {
    ActuationLimits limits;
    PolicyConfig policy;
    /// Knob state forced at measurement start (0 / negative = leave
    /// the engine's configured values).
    std::uint32_t initial_burst = 0;
    double initial_backoff_ns = -1;
};

/**
 * Subscribes to the live Timeline and actuates within limits. The
 * engine owns the sampling cadence; it calls observe() after every
 * sampler advance and the controller consumes whatever rows are new.
 */
class Controller {
  public:
    Controller(std::unique_ptr<Policy> policy, const ControlConfig &cfg);

    /**
     * A measured run is starting: reset policy state and the decision
     * log, and apply the configured initial knob state.
     */
    void on_run_start(Actuator &act);

    /** Consume any new rows of @p tl, deciding and actuating per row. */
    void observe(const Timeline &tl, Actuator &act);

    const DecisionLog &log() const { return log_; }
    const Policy &policy() const { return *policy_; }
    const ControlConfig &config() const { return cfg_; }

  private:
    ControlObservation distill(const Timeline &tl, std::size_t row) const;
    void apply(double t_us, const ControlAction &want, Actuator &act);
    /**
     * Greedy indirection-table rebalance: move up to @p max_moves hot
     * buckets from the most-loaded core to the least-loaded one, then
     * reset the per-bucket load counters so the next interval measures
     * fresh. No-op (apart from the reset) when the actuator exposes no
     * table or the per-core loads are within the configured spread.
     * One "rss_table_entry" decision is logged per moved bucket
     * (queue = bucket index, from/to = old/new home core).
     */
    void rebalance_rss(double t_us, std::uint32_t max_moves, Actuator &act,
                       const std::string &reason);
    void log_change(double t_us, const char *knob, std::uint32_t core,
                    std::int32_t queue, double from, double to, bool clamped,
                    const std::string &reason);

    std::unique_ptr<Policy> policy_;
    ControlConfig cfg_;
    DecisionLog log_;
    std::size_t consumed_ = 0;  ///< timeline rows already observed
};

} // namespace pmill

#endif // PMILL_CONTROL_CONTROLLER_HH
