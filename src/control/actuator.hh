/**
 * @file
 * Actuation hooks for closed-loop control.
 *
 * The Controller never touches the engine's internals: everything it
 * may change mid-run goes through this narrow interface, and every
 * change is bounded by plan-validated ActuationLimits. Two per-core
 * knobs are exposed, matching what a per-core software dataplane can
 * actually retune without a rebuild, plus the optional steering table:
 *
 *  - RX burst size: how many completions one poll takes, within
 *    [burst_min, burst_max] ⊆ [1, kMaxBurst];
 *  - poll backoff: Metronome-style sleep inserted when the core's
 *    queues are dry — trades wake-up latency for burned busy-poll
 *    cycles.
 */

#ifndef PMILL_CONTROL_ACTUATOR_HH
#define PMILL_CONTROL_ACTUATOR_HH

#include <cstdint>
#include <string>

#include "src/framework/packet.hh"

namespace pmill {

struct Plan;

/** Hard bounds on every mid-run actuation (validated up front). */
struct ActuationLimits {
    std::uint32_t burst_min = 4;
    std::uint32_t burst_max = kMaxBurst;
    double backoff_min_ns = 0.0;
    double backoff_max_ns = 16000.0;

    /** Check internal consistency; sets @p err when invalid. */
    bool validate(std::string *err) const;

    /**
     * Limits derived from a profile-guided Plan: the wider of the
     * searched burst (PlanSearch matched it to measured occupancy) and
     * @p configured_burst (the config's FromDPDKDevice BURST) becomes
     * the upper bound, and the controller may shrink down to a quarter
     * of the narrower, never past kMaxBurst or below 1.
     */
    static ActuationLimits from_plan(const Plan &plan,
                                     std::uint32_t configured_burst);
};

/** The actuation surface the engine exposes to the controller. */
class Actuator {
  public:
    virtual ~Actuator() = default;

    virtual std::uint32_t num_cores() const = 0;

    virtual std::uint32_t rx_burst(std::uint32_t core) const = 0;
    virtual void set_rx_burst(std::uint32_t core, std::uint32_t burst) = 0;

    virtual double poll_backoff_ns(std::uint32_t core) const = 0;
    virtual void set_poll_backoff_ns(std::uint32_t core, double ns) = 0;

    /**
     * @name Steering indirection table (optional capability).
     * A flow-placement surface: buckets of the hash-indexed
     * indirection table can be rehomed onto other cores at run time,
     * and per-bucket load counters tell the controller where the hot
     * buckets sit. Targets without the capability keep the defaults —
     * rss_table_size() == 0 means "no table, don't call the rest";
     * existing Actuator mocks need no changes.
     * @{
     */
    virtual std::uint32_t rss_table_size() const { return 0; }
    virtual std::uint32_t
    rss_table_entry(std::uint32_t idx) const
    {
        (void)idx;
        return 0;
    }
    virtual void
    set_rss_table_entry(std::uint32_t idx, std::uint32_t queue)
    {
        (void)idx;
        (void)queue;
    }
    /** Frames of bucket @p idx since the last reset_rss_entry_loads(). */
    virtual std::uint64_t
    rss_entry_load(std::uint32_t idx) const
    {
        (void)idx;
        return 0;
    }
    virtual void reset_rss_entry_loads() {}
    /// @}
};

} // namespace pmill

#endif // PMILL_CONTROL_ACTUATOR_HH
