#include "src/control/policy.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/mill/profile.hh"

namespace pmill {

namespace {

bool
congested(const ControlObservation &obs, const PolicyConfig &cfg)
{
    // Any of: deep ring, actual loss, or the cores having almost no
    // idle cycles left (saturation shows there even when the
    // instantaneous ring sample happens to look shallow).
    return obs.ring_occupancy > cfg.hi_occupancy || obs.rx_drops > 0 ||
           obs.idle_fraction < cfg.lo_idle;
}

bool
quiet(const ControlObservation &obs, const PolicyConfig &cfg)
{
    return obs.idle_fraction > cfg.hi_idle && obs.rx_drops == 0 &&
           obs.ring_occupancy < cfg.hi_occupancy;
}

} // namespace

bool
ActuationLimits::validate(std::string *err) const
{
    if (burst_min < 1 || burst_max > kMaxBurst || burst_min > burst_max) {
        *err = strprintf("burst limits [%u, %u] outside [1, %u]",
                         burst_min, burst_max, kMaxBurst);
        return false;
    }
    if (backoff_min_ns < 0 || backoff_max_ns > 1e6 ||
        backoff_min_ns > backoff_max_ns) {
        *err = strprintf("backoff limits [%g, %g] ns outside [0, 1e6]",
                         backoff_min_ns, backoff_max_ns);
        return false;
    }
    return true;
}

ActuationLimits
ActuationLimits::from_plan(const Plan &plan, std::uint32_t configured_burst)
{
    ActuationLimits l;
    const std::uint32_t planned = plan.burst ? plan.burst : configured_burst;
    l.burst_max =
        std::clamp(std::max(planned, configured_burst), 1u, kMaxBurst);
    l.burst_min = std::max(1u, std::min(planned, configured_burst) / 4);
    return l;
}

void
HysteresisPolicy::reset()
{
    high_regime_ = false;
    hi_streak_ = 0;
    lo_streak_ = 0;
}

ControlAction
HysteresisPolicy::decide(const ControlObservation &obs,
                         std::uint32_t cur_burst, double cur_backoff_ns)
{
    (void)cur_burst;
    (void)cur_backoff_ns;
    if (congested(obs, cfg_)) {
        ++hi_streak_;
        lo_streak_ = 0;
    } else if (quiet(obs, cfg_)) {
        ++lo_streak_;
        hi_streak_ = 0;
    }
    // Dead band (neither congested nor quiet): hold the regime and
    // freeze both debounce counters — only the opposite signal
    // resets a streak, so a noisy boundary interval cannot stall the
    // switch indefinitely.

    ControlAction a;
    if (!high_regime_ && hi_streak_ >= cfg_.hysteresis_intervals) {
        high_regime_ = true;
        a.burst = limits_.burst_max;
        a.backoff_ns = limits_.backoff_min_ns;
        a.reason = strprintf(
            "high load (ring %.2f, idle %.2f, drops %.0f) for %u "
            "intervals: high-load regime",
            obs.ring_occupancy, obs.idle_fraction, obs.rx_drops,
            hi_streak_);
    } else if (high_regime_ && lo_streak_ >= cfg_.hysteresis_intervals) {
        high_regime_ = false;
        a.burst = limits_.burst_min;
        a.backoff_ns = limits_.backoff_max_ns;
        a.reason = strprintf(
            "low load (ring %.2f, idle %.2f) for %u intervals: "
            "low-load regime",
            obs.ring_occupancy, obs.idle_fraction, lo_streak_);
    }
    return a;
}

ControlAction
AimdPolicy::decide(const ControlObservation &obs, std::uint32_t cur_burst,
                   double cur_backoff_ns)
{
    ControlAction a;
    if (congested(obs, cfg_)) {
        // Additive increase of drain capacity, multiplicative
        // decrease of the sleep: react fast to a building queue.
        a.burst = std::min(limits_.burst_max, cur_burst + cfg_.burst_add);
        a.backoff_ns = std::max(limits_.backoff_min_ns,
                                cur_backoff_ns * cfg_.backoff_decrease);
        if (a.backoff_ns < 1.0)
            a.backoff_ns = limits_.backoff_min_ns;
        a.reason = strprintf(
            "congestion (ring %.2f, idle %.2f, drops %.0f): burst "
            "+%u, backoff x%.2f",
            obs.ring_occupancy, obs.idle_fraction, obs.rx_drops,
            cfg_.burst_add, cfg_.backoff_decrease);
    } else if (quiet(obs, cfg_)) {
        // Additive relaxation toward the efficient idle point.
        a.backoff_ns = std::min(limits_.backoff_max_ns,
                                cur_backoff_ns + cfg_.backoff_add_ns);
        a.burst = std::max(limits_.burst_min,
                           cur_burst > limits_.burst_min ? cur_burst - 1
                                                         : cur_burst);
        a.reason = strprintf(
            "quiet (ring %.2f, idle %.2f): backoff +%.0f ns, burst "
            "decay",
            obs.ring_occupancy, obs.idle_fraction,
            cfg_.backoff_add_ns);
    }
    return a;
}

ControlAction
SteerPolicy::decide(const ControlObservation &obs, std::uint32_t cur_burst,
                    double cur_backoff_ns)
{
    (void)cur_burst;
    (void)cur_backoff_ns;
    // Placement intent every interval; the controller's mechanics
    // hold still while the measured per-bucket loads are balanced, so
    // this converges instead of flapping.
    ControlAction a;
    a.rebalance_moves = cfg_.rebalance_moves;
    a.reason = strprintf(
        "steer rebalance (p99 %.1f us, ring %.2f): up to %u bucket "
        "moves hottest -> coldest",
        obs.p99_us, obs.ring_occupancy, cfg_.rebalance_moves);
    return a;
}

std::unique_ptr<Policy>
make_policy(const std::string &name, const ActuationLimits &limits,
            const PolicyConfig &cfg)
{
    if (name == "hysteresis")
        return std::make_unique<HysteresisPolicy>(limits, cfg);
    if (name == "aimd")
        return std::make_unique<AimdPolicy>(limits, cfg);
    if (name == "steer")
        return std::make_unique<SteerPolicy>(limits, cfg);
    return nullptr;
}

} // namespace pmill
