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
 * The flags, their bounds and their help lines are declared in one
 * table (src/runtime/run_flags.cc); `--help` or `-h` prints them. A
 * malformed, out-of-range or contradictory value exits 2 with a
 * message naming the flag. Enabling any trace output prints the
 * tail-latency attribution table. `--verify` with `--profile-in`
 * checks the profile-guided plan against the unguided build of the
 * same configuration instead of the vanilla baseline.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/pmill.hh"
#include "src/runtime/run_flags.hh"

using namespace pmill;

int
main(int argc, char **argv)
{
    if (argc == 2 && (std::string(argv[1]) == "--help" ||
                      std::string(argv[1]) == "-h")) {
        std::fputs(run_flags_usage(argv[0]).c_str(), stdout);
        return 0;
    }
    RunFlags f;
    std::string err;
    if (!parse_run_flags(argc, argv, &f, &err)) {
        std::fprintf(stderr, "pmill_run: %s\n", err.c_str());
        return 2;
    }
    PipelineOpts opts = f.opts();
    const bool use_workload = !f.workload.empty();

    WorkloadSpec wspec;
    if (use_workload) {
        std::string werr;
        if (!load_workload_spec(f.workload, &wspec, &werr)) {
            std::fprintf(stderr, "pmill_run: bad --workload: %s\n",
                         werr.c_str());
            return 2;
        }
    }

    std::ifstream in(f.config_path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", f.config_path.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string config = ss.str();

    Trace trace;
    if (!use_workload)
        trace = f.size ? make_fixed_size_trace(f.size, 2048, 512)
                       : default_campus_trace();

    MachineConfig machine;
    machine.freq_ghz = f.freq;
    machine.num_cores = f.cores;
    machine.num_nics = f.nics;
    machine.num_sockets = f.sockets;

    // Profile-guided grind: fold the plan's build-time decisions (model,
    // state placement) into the options before the engine is built; the
    // guided grind below plans the burst against the engine's and
    // applies it with the rule orders.
    Profile profile;
    const bool guided = !f.profile_in.empty();
    const PipelineOpts base_opts = opts;
    if (guided) {
        std::string perr;
        if (!Profile::load(f.profile_in, &profile, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        opts = PlanSearch::search(profile, opts, 0).apply_to_opts(opts);
    }

    std::unique_ptr<Engine> engine_ptr =
        use_workload
            ? std::make_unique<Engine>(machine, config, opts, wspec)
            : std::make_unique<Engine>(machine, config, opts, trace);
    Engine &engine = *engine_ptr;
    const std::uint32_t configured_burst = engine.rx_burst(0);
    MillReport mill_report =
        PacketMill::grind(engine, guided ? &profile : nullptr, &base_opts);
    if (guided && !f.json)
        std::printf("%s", mill_report.plan.to_string().c_str());
    if (f.report)
        std::printf("%s\n", mill_report.to_string().c_str());

    // The burst the grind applied bounds the controller's range.
    std::unique_ptr<Controller> controller;
    if (!f.control.empty()) {
        ControlConfig cc;
        if (guided)
            cc.limits =
                ActuationLimits::from_plan(mill_report.plan, configured_burst);
        controller = std::make_unique<Controller>(
            make_policy(f.control, cc.limits, cc.policy), cc);
        engine.set_controller(controller.get());
    }

    const bool tracing = !f.trace_out.empty() || !f.trace_jsonl.empty();
    if (tracing && f.host_threads > 1) {
        // The engine would print the same warning; saying it here too
        // makes the cause visible next to the flags that triggered it.
        std::fprintf(stderr,
                     "pmill_run: warning: tracing serializes host "
                     "execution (the trace ring is shared); running "
                     "with 1 worker instead of %u\n",
                     f.host_threads);
    }
    if (tracing) {
        TracerConfig tc;
        tc.sample_rate = f.trace_rate;
        engine.enable_tracing(tc);
    }
    if (!f.profile_out.empty())
        engine.set_profile_capture(true);

    RunConfig rc;
    rc.offered_gbps = f.offered;
    rc.warmup_us = 1000;
    rc.duration_us = f.duration_us;
    rc.sample_interval_us = f.sample_us;
    rc.load_step_us = f.load_step_us;
    rc.load_step_gbps = f.load_step_gbps;
    rc.host_threads = f.host_threads;

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

    if (!f.decision_log.empty()) {
        std::ofstream out(f.decision_log);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", f.decision_log.c_str());
            return 1;
        }
        controller->log().write_jsonl(out);
    }

    if (!f.profile_out.empty()) {
        const Profile captured = build_profile(engine, r);
        std::string perr;
        if (!captured.save(f.profile_out, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        if (!f.json)
            std::printf("profile written to %s\n", f.profile_out.c_str());
    }

    TailAttribution tail;
    if (tracing) {
        tail = engine.tail_attribution();
        if (!f.trace_out.empty()) {
            std::ofstream out(f.trace_out);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", f.trace_out.c_str());
                return 1;
            }
            // Counter tracks are anchored at measurement start (the
            // timeline's t=0 is the end of warm-up).
            export_chrome_trace(*engine.tracer(), engine.timeline(),
                                rc.warmup_us * 1000.0, out);
        }
        if (!f.trace_jsonl.empty()) {
            std::ofstream out(f.trace_jsonl);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             f.trace_jsonl.c_str());
                return 1;
            }
            export_trace_jsonl(*engine.tracer(), out);
            tail.write_jsonl(out);
        }
    }

    const std::vector<Element *> elems = engine.pipeline().elements();
    const std::vector<ElementStats> estats = engine.element_stats();

    // The run's description and its results: written into the stats
    // JSONL, and alone to stdout under --json.
    auto write_meta = [&](std::ostream &out) {
        JsonLine(out)
            .str("type", "meta").str("config", f.config_path)
            .str("model", metadata_model_name(opts.model))
            .num("freq_ghz", f.freq).uint64("cores", f.cores)
            .uint64("nics", f.nics).num("offered_gbps", f.offered)
            .num("sample_interval_us", f.sample_us).end();
    };
    auto write_summary = [&](std::ostream &out) {
        JsonLine(out)
            .str("type", "summary").num("throughput_gbps", r.throughput_gbps)
            .num("goodput_gbps", r.goodput_gbps).num("mpps", r.mpps)
            .num("mean_latency_us", r.mean_latency_us)
            .num("median_latency_us", r.median_latency_us)
            .num("p99_latency_us", r.p99_latency_us)
            .uint64("tx_pkts", r.tx_pkts).uint64("rx_drops", r.rx_drops)
            .uint64("tx_drops", r.tx_drops).num("ipc", r.ipc)
            .num("llc_kloads_per_100ms", r.llc_kloads_per_100ms)
            .num("llc_kmisses_per_100ms", r.llc_kmisses_per_100ms).end();
    };

    if (!f.stats_json.empty()) {
        std::ofstream out(f.stats_json);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", f.stats_json.c_str());
            return 1;
        }
        write_meta(out);
        export_jsonl(engine.timeline(), out);
        if (controller)
            controller->log().write_jsonl(out);
        acct_write_jsonl(acct_report_from_engine(engine), out);
        for (std::size_t i = 0; i < elems.size() && i < estats.size();
             ++i) {
            const ElementStats &es = estats[i];
            JsonLine(out)
                .str("type", "element").str("name", elems[i]->name())
                .str("class", elems[i]->class_name())
                .uint64("packets", es.packets).uint64("batches", es.batches)
                .num("cycles", es.cycles).num("mem_ns", es.mem_ns)
                .num("cycles_per_packet", es.cycles_per_packet())
                .num("mem_ns_per_packet", es.mem_ns_per_packet()).end();
        }
        write_summary(out);
        JsonLine(out)
            .str("type", "host").num("wall_s", host_wall_s)
            .num("sim_s", sim_s).num("sim_per_wall", sim_per_wall)
            .num("sim_pkts_per_s", host_pkts_per_s)
            .uint64("host_threads", f.host_threads)
            .num("peak_rss_mb", peak_rss_mb).end();
    }

    if (f.json) {
        std::ostringstream out;
        write_meta(out);
        write_summary(out);
        std::fputs(out.str().c_str(), stdout);
        return 0;
    }

    std::printf("config:     %s\n", f.config_path.c_str());
    std::printf("model:      %s%s\n", metadata_model_name(opts.model),
                opts.static_graph ? " + static graph" : "");
    std::printf("machine:    %u core(s) @ %.1f GHz, %u NIC(s)\n", f.cores,
                f.freq, f.nics);
    std::printf("offered:    %.1f Gbps (%s traffic)\n", f.offered,
                use_workload ? "synthesized"
                             : (f.size ? "fixed-size" : "campus-like"));
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
    std::printf("drops:      %llu rx / %llu tx\n",
                static_cast<unsigned long long>(r.rx_drops),
                static_cast<unsigned long long>(r.tx_drops));
    std::printf("llc:        %.0f kilo-loads, %.1f kilo-misses per "
                "100 ms; IPC %.2f\n",
                r.llc_kloads_per_100ms, r.llc_kmisses_per_100ms, r.ipc);
    std::printf("host:       %.0f ms wall (%u thread%s), "
                "%.2f Msim-pkt/s, %.4f sim-s per wall-s, "
                "%.1f MiB peak RSS\n",
                host_wall_s * 1e3, f.host_threads,
                f.host_threads == 1 ? "" : "s", host_pkts_per_s / 1e6,
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

    if (tracing && !f.json) {
        std::printf("\n%s", tail.to_string().c_str());
        if (!tail.dominant_stage.empty())
            std::printf("tail latency dominated by: %s\n",
                        tail.dominant_stage.c_str());
    }

    if (f.explain) {
        std::ostringstream os;
        os << "\n";
        acct_render_report(acct_report_from_engine(engine), os);
        std::fputs(os.str().c_str(), stdout);
    }

    if (f.verify) {
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
