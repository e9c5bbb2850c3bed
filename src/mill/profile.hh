/**
 * @file
 * Profile-guided grind: the measured-run artifact and the plan search
 * that feeds trace attribution back into the mill.
 *
 * The paper's PacketMill specializes from what is *statically* known
 * (the NF configuration); its §5 FAQ notes the natural extension to
 * what is *measured*. This module closes that loop:
 *
 *  1. A capture run (Engine::set_profile_capture) records lifecycle
 *     events and per-rule hit counters; build_profile() distills them
 *     into a Profile — per-element hit counts, cycle and memory-stall
 *     shares, classifier/route match frequencies, the RX burst
 *     occupancy histogram, and the run's headline numbers.
 *  2. PlanSearch turns a Profile into a Plan: hot-first rule orders,
 *     a burst size matched to measured occupancy, a metadata-model
 *     upgrade when stalls dominate, and a hot-first element state
 *     placement order.
 *  3. PacketMill::grind(engine, &profile) applies the parts an engine
 *     can take after it is built (burst, rule orders, profile-weighted
 *     field reordering); Plan::apply_to_opts carries the build-time
 *     parts (model, state placement) into the next engine build — the
 *     classic compile/run/recompile PGO shape.
 *
 * The simulation is deterministic, so the same trace yields a
 * byte-identical Profile artifact and identical Plan decisions.
 */

#ifndef PMILL_MILL_PROFILE_HH
#define PMILL_MILL_PROFILE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/framework/exec_context.hh"

namespace pmill {

class Engine;
struct RunConfig;
struct RunResult;

/** One element's measured behaviour in a capture run. */
struct ProfileElement {
    std::string name;        ///< instance name (config order)
    std::string class_name;  ///< element class
    std::uint64_t packets = 0;  ///< packets entering the element
    double cycles = 0;          ///< core cycles (compute + cache)
    double mem_ns = 0;          ///< memory-stall ns
    double time_share = 0;      ///< share of all element time
    double stall_share = 0;     ///< stall fraction of own time
    double tail_excess_us = 0;  ///< from the run's tail attribution
    /// Per-rule hit counts (Classifier patterns / IPLookup routes);
    /// empty for elements without rules.
    std::vector<std::uint64_t> rule_hits;
};

/** The distilled artifact of one capture run. */
struct Profile {
    double freq_ghz = 0;
    double p99_latency_us = 0;
    double throughput_gbps = 0;
    double mpps = 0;
    double stall_share = 0;  ///< memory-stall share of all DUT time
    std::uint32_t burst = 0; ///< configured RX burst during capture
    std::string model;       ///< metadata model during capture
    std::string dominant_element;  ///< largest tail excess
    std::vector<ProfileElement> elements;  ///< config order
    /// Burst-occupancy histogram: slot b = non-empty polls that
    /// returned exactly b packets (slot 0 unused).
    std::vector<std::uint64_t> burst_hist;

    /** Occupancy at @p pct (e.g.\ 99) over the non-empty polls. */
    std::uint32_t occupancy_percentile(double pct) const;

    /** Element entry by instance name; nullptr when absent. */
    const ProfileElement *find(const std::string &name) const;

    /**
     * JSON-Lines serialization (one flat object per line:
     * profile_meta, then profile_element per element, then
     * profile_burst_hist). Deterministic: same run, same bytes.
     */
    std::string to_json() const;

    /** Human summary (per-element table + headline numbers). */
    std::string to_string() const;

    /**
     * Parse to_json() output. A burst above kMaxBurst or a histogram
     * longer than kMaxBurst + 1 slots is a malformed value: no capture
     * records one, and the plan would hand it to the engine.
     * @return false with @p err set.
     */
    static bool parse(const std::string &text, Profile *out,
                      std::string *err);

    /** Write to_json() to @p path. */
    bool save(const std::string &path, std::string *err) const;

    /** Load and parse @p path. */
    static bool load(const std::string &path, Profile *out,
                     std::string *err);
};

/**
 * Distill the most recent run of @p engine (element stats, rule hit
 * counters, tracer ring, tail attribution) into a Profile. The run
 * must have executed with profile capture on for rule hits and the
 * burst histogram to be populated.
 */
Profile build_profile(Engine &engine, const RunResult &rr);

/**
 * Convenience: enable profile capture on @p engine, execute @p rc,
 * and distill the Profile.
 */
Profile capture_profile(Engine &engine, const RunConfig &rc);

/** The searched specialization decisions. */
struct Plan {
    /// RX burst size, below the engine's; 0 = keep the engine's.
    std::uint32_t burst = 0;
    /// Metadata-model upgrade (metadata_model_name spelling); empty =
    /// keep.
    std::string model;
    /// Hot-first rule order per element instance, only where it
    /// differs from the configured order.
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>>
        rule_orders;
    /// Hot-first element placement for the static arena; empty = keep
    /// configuration order.
    std::vector<std::string> state_order;
    /// One human-readable line per decision (also for the report).
    std::vector<std::string> rationale;

    /** True when the plan changes nothing. */
    bool
    empty() const
    {
        return burst == 0 && model.empty() && rule_orders.empty() &&
               state_order.empty();
    }

    /**
     * Fold the build-time decisions (model, state placement) into
     * @p base for the next engine construction. The burst and the rule
     * orders are applied by PacketMill::grind.
     */
    PipelineOpts apply_to_opts(PipelineOpts base) const;

    std::string to_string() const;
};

/** Turns a Profile into a Plan (deterministic, pure). */
class PlanSearch {
  public:
    /**
     * Search specialization decisions for a pipeline built with
     * @p base under the measured behaviour in @p profile. @p burst is
     * the RX burst the engine runs (Engine::rx_burst, the config's
     * BURST), not the capture's Profile::burst: the planned burst is
     * always below it, and 0 plans no burst.
     */
    static Plan search(const Profile &profile, const PipelineOpts &base,
                       std::uint32_t burst);
};

} // namespace pmill

#endif // PMILL_MILL_PROFILE_HH
