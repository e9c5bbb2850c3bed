#include "src/control/controller.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/telemetry/export.hh"

namespace pmill {

void
DecisionLog::write_jsonl(std::ostream &os) const
{
    for (const Decision &d : decisions)
        JsonLine(os)
            .str("type", "decision").num("t_us", d.t_us).str("knob", d.knob)
            .uint64("core", d.core).int64("queue", d.queue)
            .num("from", d.from).num("to", d.to)
            .boolean("clamped", d.clamped).str("reason", d.reason).end();
}

std::string
DecisionLog::to_string() const
{
    std::string out;
    for (const Decision &d : decisions) {
        out += strprintf("t=%8.1fus core%u %s", d.t_us, d.core,
                         d.knob.c_str());
        if (d.queue >= 0)
            out += strprintf("[q%d]", d.queue);
        out += strprintf(": %g -> %g%s  (%s)\n", d.from, d.to,
                         d.clamped ? " [clamped]" : "", d.reason.c_str());
    }
    return out;
}

Controller::Controller(std::unique_ptr<Policy> policy,
                       const ControlConfig &cfg)
    : policy_(std::move(policy)), cfg_(cfg)
{
    PMILL_ASSERT(policy_ != nullptr, "controller needs a policy");
    std::string err;
    if (!cfg_.limits.validate(&err))
        fatal("invalid actuation limits: %s", err.c_str());
}

void
Controller::on_run_start(Actuator &act)
{
    policy_->reset();
    log_.decisions.clear();
    consumed_ = 0;

    // Force the configured starting point (clamped like any other
    // actuation) so controlled and static runs start identically.
    ControlAction init;
    init.burst = cfg_.initial_burst;
    init.backoff_ns = cfg_.initial_backoff_ns;
    init.reason = "initial knob state";
    if (!init.changes_nothing())
        apply(0.0, init, act);
}

ControlObservation
Controller::distill(const Timeline &tl, std::size_t row) const
{
    ControlObservation obs;
    obs.t_us = tl.rows[row].t_us;
    obs.dt_us = tl.rows[row].dt_us;
    // value() asserts on unknown columns; the aggregate columns below
    // are registered by every engine, so absence is a wiring bug.
    obs.ring_occupancy = tl.value(row, "ring_occupancy");
    obs.mempool_occupancy = tl.value(row, "mempool_occupancy");
    obs.p50_us = tl.value(row, "p50_latency_us");
    obs.p99_us = tl.value(row, "p99_latency_us");
    obs.throughput_gbps = tl.value(row, "throughput_gbps");
    obs.mpps = tl.value(row, "mpps");
    obs.rx_drops = tl.value(row, "rx_drops");
    obs.pipeline_drops = tl.value(row, "pipeline_drops");
    // Idle fraction: the ledger's idle cycles over its total in the
    // interval (self-normalizing, so no frequency or core count is
    // needed).
    const double idle = tl.value(row, "acct_idle_cycles");
    const double total = tl.value(row, "acct_total_cycles");
    obs.idle_fraction = total > 0 ? idle / total : 0.0;
    return obs;
}

void
Controller::log_change(double t_us, const char *knob, std::uint32_t core,
                       std::int32_t queue, double from, double to,
                       bool clamped, const std::string &reason)
{
    Decision d;
    d.t_us = t_us;
    d.knob = knob;
    d.core = core;
    d.queue = queue;
    d.from = from;
    d.to = to;
    d.clamped = clamped;
    d.reason = reason;
    log_.decisions.push_back(std::move(d));
}

void
Controller::apply(double t_us, const ControlAction &want, Actuator &act)
{
    const ActuationLimits &lim = cfg_.limits;

    for (std::uint32_t c = 0; c < act.num_cores(); ++c) {
        if (want.burst != 0) {
            const std::uint32_t to =
                std::clamp(want.burst, lim.burst_min, lim.burst_max);
            const std::uint32_t from = act.rx_burst(c);
            if (to != from) {
                act.set_rx_burst(c, to);
                log_change(t_us, "rx_burst", c, -1, from, to,
                           to != want.burst, want.reason);
            }
        }
        if (want.backoff_ns >= 0) {
            const double to = std::clamp(want.backoff_ns,
                                         lim.backoff_min_ns,
                                         lim.backoff_max_ns);
            const double from = act.poll_backoff_ns(c);
            if (to != from) {
                act.set_poll_backoff_ns(c, to);
                log_change(t_us, "poll_backoff_ns", c, -1, from, to,
                           to != want.backoff_ns, want.reason);
            }
        }
    }

    if (want.rebalance_moves > 0)
        rebalance_rss(t_us, want.rebalance_moves, act, want.reason);
}

void
Controller::rebalance_rss(double t_us, std::uint32_t max_moves,
                          Actuator &act, const std::string &reason)
{
    const std::uint32_t tsize = act.rss_table_size();
    const std::uint32_t ncores = act.num_cores();
    if (tsize == 0 || ncores < 2)
        return;

    // Snapshot the table program and the per-bucket loads measured
    // since the last rebalance, then fold them into per-core totals.
    std::vector<std::uint64_t> load(tsize);
    std::vector<std::uint32_t> home(tsize);
    std::vector<std::uint64_t> core_load(ncores, 0);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < tsize; ++i) {
        load[i] = act.rss_entry_load(i);
        home[i] = act.rss_table_entry(i);
        core_load[home[i]] += load[i];
        total += load[i];
    }

    if (total > 0) {
        // "Balanced" = hot/cold gap under rebalance_spread of the
        // per-core mean; below that, placement noise would dominate.
        const double gap_floor = cfg_.policy.rebalance_spread *
                                 static_cast<double>(total) / ncores;
        for (std::uint32_t m = 0; m < max_moves; ++m) {
            std::uint32_t hot = 0, cold = 0;
            for (std::uint32_t c = 1; c < ncores; ++c) {
                if (core_load[c] > core_load[hot])
                    hot = c;
                if (core_load[c] < core_load[cold])
                    cold = c;
            }
            const std::uint64_t gap = core_load[hot] - core_load[cold];
            if (static_cast<double>(gap) <= gap_floor)
                break;
            // Hottest bucket on the hot core whose load still fits in
            // the gap (strict improvement; never turns the cold core
            // into a worse hot spot than the one being drained).
            std::int64_t best = -1;
            for (std::uint32_t i = 0; i < tsize; ++i) {
                if (home[i] != hot || load[i] == 0 || load[i] >= gap)
                    continue;
                if (best < 0 ||
                    load[i] > load[static_cast<std::size_t>(best)])
                    best = i;
            }
            if (best < 0)
                break;
            const std::uint32_t b = static_cast<std::uint32_t>(best);
            act.set_rss_table_entry(b, cold);
            log_change(t_us, "rss_table_entry", cold,
                       static_cast<std::int32_t>(b), hot, cold, false,
                       reason);
            core_load[hot] -= load[b];
            core_load[cold] += load[b];
            home[b] = cold;
        }
    }

    // Fresh counters for the next interval's placement decision.
    act.reset_rss_entry_loads();
}

void
Controller::observe(const Timeline &tl, Actuator &act)
{
    for (; consumed_ < tl.rows.size(); ++consumed_) {
        const ControlObservation obs = distill(tl, consumed_);
        const ControlAction want = policy_->decide(
            obs, act.rx_burst(0), act.poll_backoff_ns(0));
        if (!want.changes_nothing())
            apply(obs.t_us, want, act);
    }
}

} // namespace pmill
