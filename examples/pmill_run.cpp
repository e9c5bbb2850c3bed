/**
 * @file
 * pmill_run — the command-line front end: run any Click configuration
 * file on the simulated 100-Gbps testbed, FastClick-style.
 *
 *   example_pmill_run configs/router.click
 *   example_pmill_run configs/nat.click --opt packetmill --cores 4
 *   example_pmill_run configs/forwarder.click --model xchange \
 *       --freq 1.2 --offered 60 --size 64
 *   example_pmill_run configs/router.click --opt all --verify
 *
 * Options:
 *   --opt vanilla|devirt|constants|static|all|packetmill|lto-reorder
 *   --model copying|overlaying|xchange|parking
 *                       (metadata model override)
 *   --park-split BYTES  parking model header/payload split point
 *                       (default 96): frames longer than this keep
 *                       only the first BYTES in the data buffer and
 *                       park the rest. Requires --model parking (or
 *                       an --opt level that selects it); rejected
 *                       otherwise.
 *   --freq GHZ          core frequency (default 2.3)
 *   --offered GBPS      offered load (default 100)
 *   --cores N           RSS cores (default 1)
 *   --host-threads N    host worker threads driving the simulated
 *                       cores (default 1: every core on the calling
 *                       thread). Every run, single core included, uses
 *                       the one epoch schedule, so results are
 *                       bit-identical for every N. Rejected when N
 *                       exceeds --cores; tracing forces N = 1 (with a
 *                       warning) because the trace ring is shared.
 *   --nics N            NICs (default 1). Every NIC fans out over one
 *                       RX queue per core, so --cores 4 --nics 2 has
 *                       each core polling its queue on both devices.
 *   --sockets N         NUMA sockets (default 1). Cores split across
 *                       sockets in contiguous blocks; each core's
 *                       pipeline state and mempools are homed on its
 *                       own socket and remote DRAM fills pay the
 *                       remote-access penalty.
 *   --rss-table N       per-NIC RSS indirection table with N buckets
 *                       (power of two, like the mlx5 RETA); 0 (the
 *                       default) keeps the legacy `hash % queues`
 *                       spread. The table is reprogrammable at run
 *                       time through the control loop.
 *   --queue-weight W    initial round-robin weight applied to every
 *                       polled queue (default 1). Validated here to
 *                       the engine's [1, 64] actuation range, so a
 *                       bad config is a clean error, not an abort.
 *   --size BYTES        fixed-size traffic instead of the campus trace
 *   --workload SPEC     synthesize traffic instead of replaying a
 *                       trace: an inline spec like
 *                       "zipf:flows=1000000,skew=1.1,burst=8" or a
 *                       spec file (see configs/workloads/). Kinds:
 *                       uniform, zipf, churn, synflood, portscan.
 *                       Prints generator and flow-table statistics
 *                       after the run. Incompatible with --size and
 *                       --verify (which replay traces).
 *   --duration US       measured interval (default 2500)
 *   --verify            check equivalence against the vanilla build
 *   --report            print the PacketMill optimization report
 *   --explain           print the cycle-accounting bottleneck report
 *                       (same renderer as pmill_explain)
 *   --json              emit the results as a JSON object
 *   --stats-json PATH   write the sampled telemetry time-series,
 *                       cycle-accounting breakdown ({"type":"acct"}
 *                       lines, pmill_explain's input), per-element
 *                       cost breakdown, run summary, and host cost
 *                       (wall time, peak RSS) as JSON Lines
 *   --stats-csv PATH    write the sampled time-series as CSV
 *   --sample-interval-us N  telemetry snapshot period (default 100)
 *   --trace-out PATH    write a Chrome/Perfetto trace-event JSON of
 *                       the measured window (load in ui.perfetto.dev)
 *   --trace-jsonl PATH  write the raw trace ring + tail attribution
 *                       as JSON Lines
 *   --trace-sample-rate R   fraction of packets traced per-packet
 *                       (default 1.0; batch events are always traced)
 *   --profile-out PATH  capture run: record rule hits + lifecycle
 *                       events, distill them into a Profile artifact
 *   --profile-in PATH   guided run: load a Profile, apply its
 *                       searched plan (rule orders, burst, model,
 *                       state placement) before/while grinding
 *   --control POLICY    closed-loop control: hysteresis|aimd|steer.
 *                       The controller watches the sampled telemetry
 *                       and retunes RX burst / poll backoff / queue
 *                       weights mid-run, within validated limits
 *                       (derived from the plan when --profile-in is
 *                       given). The steer policy instead migrates hot
 *                       indirection-table buckets (NIC RETA with
 *                       --rss-table, else the FlowSteer fabric) from
 *                       the hottest core to the coldest. Decisions are
 *                       appended to the stats JSONL as
 *                       {"type":"decision",...} lines.
 *   --decision-log PATH write the decision log as JSON Lines
 *                       (requires --control)
 *   --load-step-us US   switch the offered load this long after
 *                       measurement starts (0 = never) ...
 *   --load-step-gbps G  ... to this rate (the adaptive-control
 *                       experiment's load step)
 *
 * Every option also accepts the `--name=value` form. Numeric values
 * are validated strictly: a malformed or out-of-range value (e.g.\
 * `--trace-sample-rate=0` or `--cores=abc`) is rejected with an
 * error, not silently clamped. Enabling any trace output prints the
 * tail-latency attribution table: where the packets above the run's
 * p99 spent their extra time. `--verify` with `--profile-in` checks
 * the profile-guided plan against the unguided build of the same
 * configuration instead of the vanilla baseline.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/elements/args.hh"
#include "src/pmill.hh"

using namespace pmill;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <config.click> [--opt LEVEL] [--model M] "
                 "[--park-split BYTES] "
                 "[--freq GHZ] [--offered GBPS] [--cores N] "
                 "[--host-threads N] [--nics N] [--sockets N] "
                 "[--rss-table N] [--queue-weight W] "
                 "[--size BYTES] [--workload SPEC] [--duration US] "
                 "[--verify] [--report] [--explain] "
                 "[--json] [--stats-json PATH] [--stats-csv PATH] "
                 "[--sample-interval-us N] [--trace-out PATH] "
                 "[--trace-jsonl PATH] [--trace-sample-rate R] "
                 "[--profile-out PATH] [--profile-in PATH] "
                 "[--control hysteresis|aimd|steer] "
                 "[--decision-log PATH] "
                 "[--load-step-us US] [--load-step-gbps GBPS]\n",
                 argv0);
    std::exit(2);
}

[[noreturn]] void
flag_error(const char *flag, const char *expect, const char *got)
{
    std::fprintf(stderr, "pmill_run: %s expects %s, got '%s'\n", flag,
                 expect, got);
    std::exit(2);
}

/**
 * Parse @p s as a finite double in [@p lo, @p hi] for @p flag; the
 * whole string must be numeric. @p lo_exclusive makes the lower bound
 * strict (e.g.\ rates in (0, 1]).
 */
double
parse_double_arg(const char *flag, const char *s, double lo, double hi,
                 const char *expect, bool lo_exclusive = false)
{
    double v = 0;
    if (!parse_double(s, &v) || v < lo || v > hi ||
        (lo_exclusive && v <= lo))
        flag_error(flag, expect, s);
    return v;
}

/** Parse @p s as an unsigned integer in [@p lo, @p hi] for @p flag. */
std::uint32_t
parse_u32_arg(const char *flag, const char *s, std::uint32_t lo,
              std::uint32_t hi, const char *expect)
{
    std::uint64_t v = 0;
    if (!parse_uint(s, &v) || v < lo || v > hi)
        flag_error(flag, expect, s);
    return static_cast<std::uint32_t>(v);
}

bool
pick_opts(const std::string &name, PipelineOpts *out)
{
    if (name == "vanilla")
        *out = opts_vanilla();
    else if (name == "devirt")
        *out = opts_devirtualize();
    else if (name == "constants")
        *out = opts_constants();
    else if (name == "static")
        *out = opts_static_graph();
    else if (name == "all")
        *out = opts_source_all();
    else if (name == "packetmill")
        *out = opts_packetmill();
    else if (name == "lto-reorder")
        *out = opts_lto_reorder();
    else
        return false;
    return true;
}

bool
pick_model(const std::string &name, MetadataModel *out)
{
    if (name == "copying")
        *out = MetadataModel::kCopying;
    else if (name == "overlaying")
        *out = MetadataModel::kOverlaying;
    else if (name == "xchange")
        *out = MetadataModel::kXchange;
    else if (name == "parking")
        *out = MetadataModel::kParking;
    else
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);

    const std::string config_path = argv[1];
    PipelineOpts opts = opts_vanilla();
    double freq = 2.3, offered = 100.0, duration_us = 2500.0;
    double sample_us = 100.0;
    std::uint32_t cores = 1, nics = 1, fixed_size = 0;
    std::uint32_t host_threads = 1;
    std::uint32_t sockets = 1, rss_table = 0, queue_weight = 1;
    std::uint32_t park_split = 0;  // 0 = not given (model default 96)
    bool do_verify = false, do_report = false, do_json = false;
    bool do_explain = false;
    std::string stats_json_path, stats_csv_path;
    std::string trace_out_path, trace_jsonl_path;
    std::string profile_out_path, profile_in_path;
    std::string control_policy, decision_log_path;
    std::string workload_arg;
    double load_step_us = 0.0, load_step_gbps = 0.0;
    double trace_rate = 1.0;

    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        // Accept both "--name value" and "--name=value".
        std::string inline_val;
        bool has_inline = false;
        if (a.rfind("--", 0) == 0) {
            const std::size_t eq = a.find('=');
            if (eq != std::string::npos) {
                inline_val = a.substr(eq + 1);
                a.resize(eq);
                has_inline = true;
            }
        }
        auto next = [&]() -> const char * {
            if (has_inline)
                return inline_val.c_str();
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--opt") {
            const char *v = next();
            if (!pick_opts(v, &opts))
                flag_error("--opt",
                           "vanilla|devirt|constants|static|all|"
                           "packetmill|lto-reorder",
                           v);
        } else if (a == "--model") {
            MetadataModel m;
            const char *v = next();
            if (!pick_model(v, &m))
                flag_error("--model",
                           "copying|overlaying|xchange|parking", v);
            opts.model = m;
        } else if (a == "--park-split") {
            park_split = parse_u32_arg(
                "--park-split", next(), 64, 1514,
                "a split point in [64, 1514] bytes");
        } else if (a == "--freq") {
            freq = parse_double_arg("--freq", next(), 0.0, 10.0,
                                    "a frequency in (0, 10] GHz", true);
        } else if (a == "--offered") {
            offered = parse_double_arg("--offered", next(), 0.0, 1000.0,
                                       "a load in (0, 1000] Gbps", true);
        } else if (a == "--cores") {
            cores = parse_u32_arg("--cores", next(), 1, 64,
                                  "a core count in [1, 64]");
        } else if (a == "--host-threads") {
            host_threads =
                parse_u32_arg("--host-threads", next(), 1, 64,
                              "a host thread count in [1, 64]");
        } else if (a == "--nics") {
            nics = parse_u32_arg("--nics", next(), 1, 8,
                                 "a NIC count in [1, 8]");
        } else if (a == "--sockets") {
            sockets = parse_u32_arg("--sockets", next(), 1, 8,
                                    "a socket count in [1, 8]");
        } else if (a == "--rss-table") {
            const char *v = next();
            rss_table = parse_u32_arg(
                "--rss-table", v, 0, 65536,
                "a power-of-two bucket count in [2, 65536] "
                "(0 = legacy modulo)");
            if (rss_table != 0 && (rss_table & (rss_table - 1)) != 0)
                flag_error("--rss-table",
                           "a power-of-two bucket count in [2, 65536] "
                           "(0 = legacy modulo)",
                           v);
        } else if (a == "--queue-weight") {
            // The engine's actuation surface hard-asserts [1, 64]
            // (internal callers are pre-clamped); the config boundary
            // validates instead, so a bad flag is a clean exit 2.
            queue_weight = parse_u32_arg("--queue-weight", next(), 1, 64,
                                         "a weight in [1, 64]");
        } else if (a == "--size") {
            fixed_size = parse_u32_arg("--size", next(), 60, 1514,
                                       "a frame size in [60, 1514] bytes");
        } else if (a == "--workload") {
            workload_arg = next();
        } else if (a == "--duration") {
            duration_us =
                parse_double_arg("--duration", next(), 0.0, 1e9,
                                 "a duration in (0, 1e9] us", true);
        } else if (a == "--verify") {
            do_verify = true;
        } else if (a == "--report") {
            do_report = true;
        } else if (a == "--json") {
            do_json = true;
        } else if (a == "--explain") {
            do_explain = true;
        } else if (a == "--stats-json") {
            stats_json_path = next();
        } else if (a == "--stats-csv") {
            stats_csv_path = next();
        } else if (a == "--sample-interval-us") {
            sample_us = parse_double_arg(
                "--sample-interval-us", next(), 0.0, 1e9,
                "a period in [0, 1e9] us (0 disables sampling)");
        } else if (a == "--trace-out") {
            trace_out_path = next();
        } else if (a == "--trace-jsonl") {
            trace_jsonl_path = next();
        } else if (a == "--trace-sample-rate") {
            trace_rate = parse_double_arg("--trace-sample-rate", next(),
                                          0.0, 1.0,
                                          "a fraction in (0, 1]", true);
        } else if (a == "--profile-out") {
            profile_out_path = next();
        } else if (a == "--profile-in") {
            profile_in_path = next();
        } else if (a == "--control") {
            control_policy = next();
            // Validate the name up front (the factory is the single
            // source of truth for the known policies).
            if (!make_policy(control_policy, ActuationLimits{},
                             PolicyConfig{}))
                flag_error("--control", "hysteresis|aimd|steer",
                           control_policy.c_str());
        } else if (a == "--decision-log") {
            decision_log_path = next();
        } else if (a == "--load-step-us") {
            load_step_us = parse_double_arg(
                "--load-step-us", next(), 0.0, 1e9,
                "a time in [0, 1e9] us (0 = no step)");
        } else if (a == "--load-step-gbps") {
            load_step_gbps = parse_double_arg(
                "--load-step-gbps", next(), 0.0, 1000.0,
                "a load in (0, 1000] Gbps", true);
        } else {
            usage(argv[0]);
        }
        if (has_inline &&
            (a == "--verify" || a == "--report" || a == "--json" ||
             a == "--explain"))
            usage(argv[0]);
    }

    // Cross-flag validation: reject inconsistent combinations with a
    // clean diagnostic instead of tripping an engine assertion.
    if (sockets > cores) {
        std::fprintf(stderr,
                     "pmill_run: --sockets %u exceeds --cores %u (a "
                     "socket with no core would never be accessed)\n",
                     sockets, cores);
        return 2;
    }
    if (host_threads > cores) {
        std::fprintf(stderr,
                     "pmill_run: --host-threads %u exceeds --cores %u "
                     "(a worker with no simulated core to drive would "
                     "idle forever)\n",
                     host_threads, cores);
        return 2;
    }
    if (park_split != 0) {
        // The split only exists in the parking datapath; silently
        // accepting it under another model would look like it worked.
        if (opts.model != MetadataModel::kParking) {
            std::fprintf(stderr,
                         "pmill_run: --park-split requires the parking "
                         "metadata model (--model parking)\n");
            return 2;
        }
        opts.park_split_bytes = park_split;
    }
    if (!decision_log_path.empty() && control_policy.empty()) {
        std::fprintf(stderr,
                     "pmill_run: --decision-log requires --control\n");
        return 2;
    }
    if ((load_step_us > 0) != (load_step_gbps > 0)) {
        std::fprintf(stderr,
                     "pmill_run: --load-step-us and --load-step-gbps "
                     "must be given together\n");
        return 2;
    }
    const bool use_workload = !workload_arg.empty();
    if (use_workload && fixed_size) {
        std::fprintf(stderr,
                     "pmill_run: --workload and --size are mutually "
                     "exclusive (a workload defines its own sizes)\n");
        return 2;
    }
    if (use_workload && do_verify) {
        std::fprintf(stderr,
                     "pmill_run: --verify replays a trace and cannot be "
                     "combined with --workload\n");
        return 2;
    }

    WorkloadSpec wspec;
    if (use_workload) {
        std::string werr;
        if (!load_workload_spec(workload_arg, &wspec, &werr)) {
            std::fprintf(stderr, "pmill_run: bad --workload: %s\n",
                         werr.c_str());
            return 2;
        }
    }

    std::ifstream in(config_path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", config_path.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string config = ss.str();

    Trace trace;
    if (!use_workload)
        trace = fixed_size ? make_fixed_size_trace(fixed_size, 2048, 512)
                           : default_campus_trace();

    MachineConfig machine;
    machine.freq_ghz = freq;
    machine.num_cores = cores;
    machine.num_nics = nics;
    machine.num_sockets = sockets;
    machine.nic.rss_table_size = rss_table;

    // Profile-guided grind: load the capture artifact and fold the
    // plan's build-time decisions (burst, model, state placement) into
    // the options before the engine is built; the in-place decisions
    // are applied by the guided grind below.
    Profile profile;
    const bool guided = !profile_in_path.empty();
    const PipelineOpts base_opts = opts;
    ActuationLimits limits;
    if (guided) {
        std::string perr;
        if (!Profile::load(profile_in_path, &profile, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        const Plan plan = PlanSearch::search(profile, opts);
        // The plan's searched burst bounds the controller's actuation
        // range (applied below only when --control is given).
        limits = ActuationLimits::from_plan(plan, opts);
        opts = plan.apply_to_opts(opts);
        if (!do_json)
            std::printf("%s", plan.to_string().c_str());
    }

    std::unique_ptr<Engine> engine_ptr =
        use_workload
            ? std::make_unique<Engine>(machine, config, opts, wspec)
            : std::make_unique<Engine>(machine, config, opts, trace);
    Engine &engine = *engine_ptr;

    if (queue_weight != 1)
        for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
            for (std::uint32_t q = 0; q < engine.num_polled_queues(c);
                 ++q)
                engine.set_queue_weight(c, q, queue_weight);

    std::unique_ptr<Controller> controller;
    if (!control_policy.empty()) {
        ControlConfig cc;
        cc.limits = limits;
        controller = std::make_unique<Controller>(
            make_policy(control_policy, cc.limits, cc.policy), cc);
        engine.set_controller(controller.get());
    }
    MillReport mill_report = guided ? PacketMill::grind(engine, &profile)
                                    : PacketMill::grind(engine);
    if (do_report)
        std::printf("%s\n", mill_report.to_string().c_str());

    const bool tracing =
        !trace_out_path.empty() || !trace_jsonl_path.empty();
    if (tracing && host_threads > 1) {
        // The engine would print the same warning; saying it here too
        // makes the cause visible next to the flags that triggered it.
        std::fprintf(stderr,
                     "pmill_run: warning: tracing serializes host "
                     "execution (the trace ring is shared); running "
                     "with 1 worker instead of %u\n",
                     host_threads);
    }
    if (tracing) {
        TracerConfig tc;
        tc.sample_rate = trace_rate;
        engine.enable_tracing(tc);
    }
    if (!profile_out_path.empty())
        engine.set_profile_capture(true);

    RunConfig rc;
    rc.offered_gbps = offered;
    rc.warmup_us = 1000;
    rc.duration_us = duration_us;
    rc.sample_interval_us = sample_us;
    rc.load_step_us = load_step_us;
    rc.load_step_gbps = load_step_gbps;
    rc.host_threads = host_threads;

    const auto host_t0 = std::chrono::steady_clock::now();
    RunResult r = engine.run(rc);
    const auto host_t1 = std::chrono::steady_clock::now();
    // Host (simulator) speed: how much simulated time and traffic one
    // wall-clock second buys on this machine.
    const double host_wall_s =
        std::chrono::duration<double>(host_t1 - host_t0).count();
    const double sim_s = (rc.warmup_us + rc.duration_us) * 1e-6;
    const double host_pkts_per_s =
        host_wall_s > 0 ? r.tx_pkts / host_wall_s : 0.0;
    const double sim_per_wall = host_wall_s > 0 ? sim_s / host_wall_s : 0.0;
    // The process's peak resident set so far; Linux reports KiB.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    if (!decision_log_path.empty()) {
        std::ofstream out(decision_log_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         decision_log_path.c_str());
            return 1;
        }
        controller->log().write_jsonl(out);
    }

    if (!profile_out_path.empty()) {
        const Profile captured = build_profile(engine, r);
        std::string perr;
        if (!captured.save(profile_out_path, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        if (!do_json)
            std::printf("profile written to %s\n",
                        profile_out_path.c_str());
    }

    TailAttribution tail;
    if (tracing) {
        tail = engine.tail_attribution();
        if (!trace_out_path.empty()) {
            std::ofstream out(trace_out_path);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_out_path.c_str());
                return 1;
            }
            // Counter tracks are anchored at measurement start (the
            // timeline's t=0 is the end of warm-up).
            export_chrome_trace(*engine.tracer(), engine.timeline(),
                                rc.warmup_us * 1000.0, out);
        }
        if (!trace_jsonl_path.empty()) {
            std::ofstream out(trace_jsonl_path);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_jsonl_path.c_str());
                return 1;
            }
            export_trace_jsonl(*engine.tracer(), out);
            tail.write_jsonl(out);
        }
    }

    const std::vector<Element *> elems = engine.pipeline().elements();
    const std::vector<ElementStats> estats = engine.element_stats();

    if (!stats_json_path.empty()) {
        std::ofstream out(stats_json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        out << "{\"type\":\"meta\",\"config\":\""
            << json_escape(config_path) << "\",\"model\":\""
            << json_escape(metadata_model_name(opts.model))
            << "\",\"freq_ghz\":" << json_number(freq)
            << ",\"cores\":" << cores << ",\"nics\":" << nics
            << ",\"offered_gbps\":" << json_number(offered)
            << ",\"sample_interval_us\":" << json_number(sample_us)
            << "}\n";
        export_jsonl(engine.timeline(), out);
        if (controller)
            controller->log().write_jsonl(out);
        acct_write_jsonl(acct_report_from_engine(engine), out);
        for (std::size_t i = 0; i < elems.size() && i < estats.size();
             ++i) {
            const ElementStats &es = estats[i];
            out << "{\"type\":\"element\",\"name\":\""
                << json_escape(elems[i]->name()) << "\",\"class\":\""
                << json_escape(elems[i]->class_name())
                << "\",\"packets\":" << es.packets
                << ",\"batches\":" << es.batches
                << ",\"cycles\":" << json_number(es.cycles)
                << ",\"mem_ns\":" << json_number(es.mem_ns)
                << ",\"cycles_per_packet\":"
                << json_number(es.cycles_per_packet())
                << ",\"mem_ns_per_packet\":"
                << json_number(es.mem_ns_per_packet()) << "}\n";
        }
        out << "{\"type\":\"summary\",\"throughput_gbps\":"
            << json_number(r.throughput_gbps)
            << ",\"goodput_gbps\":" << json_number(r.goodput_gbps)
            << ",\"mpps\":" << json_number(r.mpps)
            << ",\"mean_latency_us\":" << json_number(r.mean_latency_us)
            << ",\"median_latency_us\":"
            << json_number(r.median_latency_us)
            << ",\"p99_latency_us\":" << json_number(r.p99_latency_us)
            << ",\"tx_pkts\":" << r.tx_pkts
            << ",\"rx_drops\":" << r.rx_drops
            << ",\"ipc\":" << json_number(r.ipc)
            << ",\"llc_kloads_per_100ms\":"
            << json_number(r.llc_kloads_per_100ms)
            << ",\"llc_kmisses_per_100ms\":"
            << json_number(r.llc_kmisses_per_100ms) << "}\n";
        out << "{\"type\":\"host\",\"wall_s\":" << json_number(host_wall_s)
            << ",\"sim_s\":" << json_number(sim_s)
            << ",\"sim_per_wall\":" << json_number(sim_per_wall)
            << ",\"sim_pkts_per_s\":" << json_number(host_pkts_per_s)
            << ",\"host_threads\":" << host_threads
            << ",\"peak_rss_mb\":" << json_number(peak_rss_mb) << "}\n";
    }

    if (!stats_csv_path.empty()) {
        std::ofstream out(stats_csv_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_csv_path.c_str());
            return 1;
        }
        export_csv(engine.timeline(), out);
    }

    if (do_json) {
        std::printf(
            "{\n"
            "  \"config\": \"%s\",\n"
            "  \"model\": \"%s\",\n"
            "  \"freq_ghz\": %.2f,\n"
            "  \"cores\": %u,\n"
            "  \"nics\": %u,\n"
            "  \"offered_gbps\": %.2f,\n"
            "  \"throughput_gbps\": %.3f,\n"
            "  \"goodput_gbps\": %.3f,\n"
            "  \"mpps\": %.3f,\n"
            "  \"latency_us\": {\"mean\": %.3f, \"median\": %.3f, "
            "\"p99\": %.3f},\n"
            "  \"rx_drops\": %llu,\n"
            "  \"llc_kloads_per_100ms\": %.1f,\n"
            "  \"llc_kmisses_per_100ms\": %.2f,\n"
            "  \"ipc\": %.3f\n"
            "}\n",
            config_path.c_str(), metadata_model_name(opts.model), freq,
            cores, nics, offered, r.throughput_gbps, r.goodput_gbps,
            r.mpps, r.mean_latency_us, r.median_latency_us,
            r.p99_latency_us, static_cast<unsigned long long>(r.rx_drops),
            r.llc_kloads_per_100ms, r.llc_kmisses_per_100ms, r.ipc);
        return 0;
    }

    std::printf("config:     %s\n", config_path.c_str());
    std::printf("model:      %s%s\n", metadata_model_name(opts.model),
                opts.static_graph ? " + static graph" : "");
    std::printf("machine:    %u core(s) @ %.1f GHz, %u NIC(s)\n", cores,
                freq, nics);
    std::printf("offered:    %.1f Gbps (%s traffic)\n", offered,
                use_workload ? "synthesized"
                             : (fixed_size ? "fixed-size" : "campus-like"));
    if (use_workload) {
        std::printf("workload:   %s\n",
                    engine.workload()->spec().to_string().c_str());
        WorkloadStats ws;
        std::uint64_t state = 0;
        for (std::uint32_t n = 0; engine.workload(n); ++n) {
            const WorkloadStats &s = engine.workload(n)->stats();
            ws.frames += s.frames;
            ws.bytes += s.bytes;
            ws.flows_born += s.flows_born;
            ws.flows_died += s.flows_died;
            ws.syn_frames += s.syn_frames;
            ws.fin_frames += s.fin_frames;
            state += engine.workload(n)->state_bytes();
        }
        std::printf("generator:  %llu frames, %llu flows born / %llu "
                    "died, %llu SYN / %llu FIN, %.1f MB flow state\n",
                    static_cast<unsigned long long>(ws.frames),
                    static_cast<unsigned long long>(ws.flows_born),
                    static_cast<unsigned long long>(ws.flows_died),
                    static_cast<unsigned long long>(ws.syn_frames),
                    static_cast<unsigned long long>(ws.fin_frames),
                    static_cast<double>(state) / 1e6);
        // Stateful elements: occupancy and churn, summed over cores.
        const std::vector<Element *> e0 = engine.pipeline(0).elements();
        for (std::size_t ei = 0; ei < e0.size(); ++ei) {
            FlowTableStats sum;
            bool any = false;
            for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
                FlowTableStats st;
                if (!engine.pipeline(c).elements()[ei]->flow_table_stats(
                        &st))
                    continue;
                any = true;
                sum.occupancy += st.occupancy;
                sum.capacity += st.capacity;
                sum.memory_bytes += st.memory_bytes;
                sum.inserts += st.inserts;
                sum.failed_inserts += st.failed_inserts;
                sum.displacements += st.displacements;
                sum.evictions += st.evictions;
                sum.half_open += st.half_open;
                if (st.max_kick_chain > sum.max_kick_chain)
                    sum.max_kick_chain = st.max_kick_chain;
            }
            if (!any)
                continue;
            const std::string nm =
                e0[ei]->name().empty() ? std::string(e0[ei]->class_name())
                                       : e0[ei]->name();
            std::printf(
                "flow table: %s %llu/%llu entries (%llu half-open), "
                "%llu inserts (%llu failed), %llu evictions, "
                "%llu displacements (max chain %llu)\n",
                nm.c_str(),
                static_cast<unsigned long long>(sum.occupancy),
                static_cast<unsigned long long>(sum.capacity),
                static_cast<unsigned long long>(sum.half_open),
                static_cast<unsigned long long>(sum.inserts),
                static_cast<unsigned long long>(sum.failed_inserts),
                static_cast<unsigned long long>(sum.evictions),
                static_cast<unsigned long long>(sum.displacements),
                static_cast<unsigned long long>(sum.max_kick_chain));
        }
    }
    std::printf("throughput: %.2f Gbps wire / %.2f Gbps goodput "
                "(%.2f Mpps)\n",
                r.throughput_gbps, r.goodput_gbps, r.mpps);
    std::printf("latency:    mean %.2f / median %.2f / p99 %.2f us\n",
                r.mean_latency_us, r.median_latency_us, r.p99_latency_us);
    std::printf("drops:      %llu\n",
                static_cast<unsigned long long>(r.rx_drops));
    std::printf("llc:        %.0f kilo-loads, %.1f kilo-misses per "
                "100 ms; IPC %.2f\n",
                r.llc_kloads_per_100ms, r.llc_kmisses_per_100ms, r.ipc);
    std::printf("host:       %.0f ms wall (%u thread%s), "
                "%.2f Msim-pkt/s, %.4f sim-s per wall-s, "
                "%.1f MiB peak RSS\n",
                host_wall_s * 1e3, host_threads,
                host_threads == 1 ? "" : "s", host_pkts_per_s / 1e6,
                sim_per_wall, peak_rss_mb);
    if (controller) {
        std::printf("control:    %s policy, %zu decision(s)\n",
                    controller->policy().name(),
                    controller->log().size());
        if (!controller->log().empty())
            std::printf("%s", controller->log().to_string().c_str());
    }

    if (!estats.empty()) {
        TablePrinter t;
        t.header({"element", "class", "packets", "batches", "cyc/pkt",
                  "mem-ns/pkt"});
        char buf[64];
        for (std::size_t i = 0; i < elems.size() && i < estats.size();
             ++i) {
            const ElementStats &es = estats[i];
            std::vector<std::string> cells;
            cells.push_back(elems[i]->name());
            cells.push_back(elems[i]->class_name());
            cells.push_back(std::to_string(es.packets));
            cells.push_back(std::to_string(es.batches));
            std::snprintf(buf, sizeof buf, "%.1f",
                          es.cycles_per_packet());
            cells.push_back(buf);
            std::snprintf(buf, sizeof buf, "%.1f",
                          es.mem_ns_per_packet());
            cells.push_back(buf);
            t.row(std::move(cells));
        }
        t.print("per-element cost (measured window)");
    }

    if (tracing && !do_json) {
        std::printf("\n%s", tail.to_string().c_str());
        if (!tail.dominant_stage.empty())
            std::printf("tail latency dominated by: %s\n",
                        tail.dominant_stage.c_str());
    }

    if (do_explain) {
        std::ostringstream os;
        os << "\n";
        acct_render_report(acct_report_from_engine(engine), os);
        std::fputs(os.str().c_str(), stdout);
    }

    if (do_verify) {
        if (guided) {
            std::printf("\nverifying the profile-guided plan against "
                        "the unguided build...\n");
            EquivalenceReport vr =
                verify_plan(config, base_opts, profile, trace, 600.0);
            std::printf("%s\n", vr.to_string().c_str());
            return vr.equivalent ? 0 : 1;
        }
        std::printf("\nverifying against the vanilla build...\n");
        EquivalenceReport vr = verify_equivalence(config, opts_vanilla(),
                                                  opts, trace, 600.0);
        std::printf("%s\n", vr.to_string().c_str());
        return vr.equivalent ? 0 : 1;
    }
    return 0;
}
