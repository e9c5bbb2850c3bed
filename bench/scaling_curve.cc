/**
 * @file
 * Many-core scaling curve: throughput and p99 vs core count 1 -> 32
 * under balanced, Zipf-skewed, and churning workloads, on the steered
 * router pipeline (FlowSteer + SteerFabric) with NUMA placement
 * switching to two sockets at 16 cores.
 *
 * Weak scaling: the offered load is 6 Gbps per core, so an ideal
 * scale-out holds per-core throughput flat while the aggregate grows
 * linearly. Every column but wall_ms is a simulated result and
 * golden-gated bit-for-bit (run lengths are pinned): the eq_ columns
 * and the steer_ and numa_ attribution columns alike.
 *
 * The second table is the skewed-hash pathology: at 8 cores a
 * skew=1.3 Zipf elephant pins one core while its siblings idle. The
 * run is repeated with the "steer" control policy, whose mid-run
 * indirection-table rewrites migrate the hot core's other buckets
 * away. This binary hard-fails unless the controlled run recovers
 * measurable p99 headroom over the uncontrolled one AND actually
 * rewrote the table — the recovery itself is pinned in the golden.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/control/controller.hh"
#include "src/control/policy.hh"
#include "src/net/steering.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

namespace {

struct Cell {
    std::uint64_t frames = 0;
    double gbps = 0;
    double p50_us = 0;
    double p99_us = 0;
    std::uint64_t drops = 0;
    std::uint64_t handoffs = 0;
    long long acct_total = 0;
    std::uint64_t delivered = 0;
    std::uint64_t steer_drops = 0;  ///< stage + ring
    double numa_remote = 0;
    std::uint64_t decisions = 0;
    double wall_s = 0;
};

Cell
run_cell(const std::string &spec_str, std::uint32_t cores,
         Controller *ctl, double duration_us = 600.0)
{
    WorkloadSpec spec;
    std::string err;
    if (!spec.parse(spec_str, &err)) {
        std::fprintf(stderr, "scaling_curve: %s\n", err.c_str());
        std::exit(1);
    }

    MachineConfig m;
    m.freq_ghz = 2.3;
    m.num_cores = cores;
    // At 16+ cores the machine widens like a real box would: two
    // NICs (every core polls its queue on both, and each generator
    // offers its share of the 6 Gbps/core aggregate, staying under
    // the 100 Gbps per-link clamp) and two sockets, with per-core
    // pipeline state and handoff rings homed on their owner's socket.
    const std::uint32_t nics = cores >= 16 ? 2 : 1;
    m.num_nics = nics;
    m.num_sockets = cores >= 16 ? 2 : 1;
    Engine engine(m, steered_router_config(), opts_packetmill(), spec);
    PacketMill::grind(engine);
    if (ctl)
        engine.set_controller(ctl);

    RunConfig rc;
    rc.offered_gbps = 6.0 * cores / nics;  // weak scaling: 6 Gbps/core
    rc.warmup_us = 200.0;
    rc.duration_us = duration_us;
    rc.sample_interval_us = 100.0;
    rc.host_threads = 1;

    Cell c;
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = engine.run(rc);
    const auto t1 = std::chrono::steady_clock::now();
    c.wall_s = std::chrono::duration<double>(t1 - t0).count();

    c.frames = r.tx_pkts;
    c.gbps = r.throughput_gbps;
    c.p50_us = r.median_latency_us;
    c.p99_us = r.p99_latency_us;
    c.drops = r.rx_drops;
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown())
        c.acct_total += static_cast<long long>(cb.delta.total);
    if (const SteerFabric *f = engine.steering()) {
        const SteerStats s = f->stats();
        c.handoffs = s.steered;
        c.delivered = s.delivered;
        c.steer_drops = s.stage_drops + s.ring_drops;
    }
    const Timeline &tl = engine.timeline();
    for (std::size_t i = 0; i < tl.rows.size(); ++i)
        if (const auto v = tl.try_value(i, "numa_remote_fills"))
            c.numa_remote += *v;
    if (ctl) {
        c.decisions = ctl->log().size();
        engine.set_controller(nullptr);
    }
    return c;
}

std::string
u64(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

} // namespace

int
main()
{
    const struct {
        const char *name;
        const char *spec;
    } workloads[] = {
        {"balanced", "uniform:flows=65536,burst=8"},
        {"skew", "zipf:flows=1000000,skew=1.1,burst=8"},
        {"churn", "churn:flows=65536,pkts=24,burst=8"},
    };
    const std::uint32_t counts[] = {1, 2, 4, 8, 16, 32};

    BenchReport rep(
        "scaling_curve",
        "Many-core scale-out: steered router, 6 Gbps offered per core, "
        "1 -> 32 cores (2 sockets at 16+); every column but wall_ms "
        "golden-gated bit-for-bit");
    rep.header({"Workload", "Cores", "NICs", "Sockets", "wall_ms", "eq_frames",
                "eq_gbps", "eq_p50_us", "eq_p99_us", "eq_drops",
                "eq_steer_handoffs", "eq_acct_total", "steer_delivered",
                "steer_drops", "numa_remote_fills"});

    for (const auto &w : workloads) {
        for (std::uint32_t cores : counts) {
            const Cell c = run_cell(w.spec, cores, nullptr);
            rep.row({w.name, strprintf("%u", cores),
                     strprintf("%u", cores >= 16 ? 2u : 1u),
                     strprintf("%u", cores >= 16 ? 2u : 1u),
                     strprintf("%.1f", c.wall_s * 1e3), u64(c.frames),
                     strprintf("%.17g", c.gbps),
                     strprintf("%.17g", c.p50_us),
                     strprintf("%.17g", c.p99_us), u64(c.drops),
                     u64(c.handoffs), strprintf("%lld", c.acct_total),
                     u64(c.delivered), u64(c.steer_drops),
                     strprintf("%.0f", c.numa_remote)});
        }
    }
    rep.note("Weak scaling on one host thread (wall_ms informational): "
             "ideal scale-out holds eq_gbps at 6 x cores. The "
             "unprogrammed fabric steers nothing (eq_steer_handoffs 0) "
             "until the controller desynchronizes it; numa_remote_fills "
             "appears at 16+ cores where the machine splits sockets.");
    rep.emit();

    // --- Skewed-hash pathology: controller recovery at 8 cores. ---
    const char *hot_spec = "zipf:flows=100000,skew=1.3,burst=8";

    const Cell nb = run_cell(hot_spec, 8, nullptr, 1500.0);

    ControlConfig cc;
    Controller ctl(make_policy("steer", cc.limits, cc.policy), cc);
    const Cell st = run_cell(hot_spec, 8, &ctl, 1500.0);

    const double headroom_pct =
        nb.p99_us > 0 ? (nb.p99_us - st.p99_us) / nb.p99_us * 100.0 : 0.0;

    BenchReport ctl_rep(
        "scaling_curve_control",
        "Skewed-hash pathology (zipf skew=1.3, 8 cores): steer-policy "
        "indirection rewrites vs no control; the p99 recovery is "
        "hard-failed by this binary and pinned in the golden");
    ctl_rep.header({"Run", "eq_gbps", "eq_p50_us", "eq_p99_us",
                    "eq_drops", "eq_steer_handoffs", "eq_decisions",
                    "ctl_headroom_pct"});
    ctl_rep.row({"no-control", strprintf("%.17g", nb.gbps),
                 strprintf("%.17g", nb.p50_us),
                 strprintf("%.17g", nb.p99_us), u64(nb.drops),
                 u64(nb.handoffs), u64(nb.decisions), "0.0"});
    ctl_rep.row({"steer", strprintf("%.17g", st.gbps),
                 strprintf("%.17g", st.p50_us),
                 strprintf("%.17g", st.p99_us), u64(st.drops),
                 u64(st.handoffs), u64(st.decisions),
                 strprintf("%.1f", headroom_pct)});
    ctl_rep.note(strprintf(
        "The elephant flow pins one core; the controller cannot split "
        "it but migrates the hot core's other buckets away "
        "(%llu decisions, %llu handoffs), recovering %.1f%% of p99.",
        static_cast<unsigned long long>(st.decisions),
        static_cast<unsigned long long>(st.handoffs), headroom_pct));
    ctl_rep.emit();

    bool ok = true;
    if (st.decisions == 0) {
        std::fprintf(stderr, "scaling_curve: FAIL — the steer policy "
                             "never rewrote the indirection table\n");
        ok = false;
    }
    if (st.handoffs == 0) {
        std::fprintf(stderr, "scaling_curve: FAIL — table rewrites "
                             "produced no cross-core handoffs\n");
        ok = false;
    }
    if (!(st.p99_us < nb.p99_us)) {
        std::fprintf(stderr,
                     "scaling_curve: FAIL — controlled p99 %.3f us did "
                     "not recover headroom over uncontrolled %.3f us\n",
                     st.p99_us, nb.p99_us);
        ok = false;
    }
    return ok ? 0 : 1;
}
