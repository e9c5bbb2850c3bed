#include "src/runtime/run_flags.hh"

#include "src/common/log.hh"
#include "src/net/headers.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"

namespace pmill {

namespace {

constexpr const char *kOptLevels =
    "vanilla|devirt|constants|static|all|packetmill|lto-reorder";
/// The PipelineOpts of each --opt level, in kOptLevels' order.
PipelineOpts (*const kOptPresets[])() = {
    opts_vanilla,    opts_devirtualize, opts_constants, opts_static_graph,
    opts_source_all, opts_packetmill,   opts_lto_reorder};

/// MetadataModel's enumerators, in declaration order.
constexpr const char *kModels = "copying|overlaying|xchange|parking";

/// The names make_policy() knows.
constexpr const char *kPolicies = "hysteresis|aimd|steer";

} // namespace

PipelineOpts
RunFlags::opts() const
{
    PipelineOpts o = kOptPresets[choice_index(kOptLevels, opt)]();
    if (!model.empty())
        o.model = static_cast<MetadataModel>(choice_index(kModels, model));
    if (park_split != 0)
        o.park_split_bytes = park_split;
    return o;
}

std::vector<Param>
run_flag_table(RunFlags *f)
{
    return {
        {"--opt", &f->opt, "optimization level", kOptLevels},
        {"--model", &f->model, "metadata model override", kModels},
        {"--park-split", &f->park_split, 64, kMaxFrameLen,
         "parking model: bytes kept in the buffer (default 96)"},
        {"--freq", &f->freq, 0.0, 10.0, "core frequency in GHz", true},
        {"--offered", &f->offered, 0.0, 1000.0, "offered load in Gbps",
         true},
        {"--cores", &f->cores, 1, kMaxCores, "RSS cores"},
        {"--host-threads", &f->host_threads, 1, kMaxCores,
         "host threads driving the cores (at most --cores)"},
        {"--nics", &f->nics, 1, 8, "NICs, each polled by every core"},
        {"--sockets", &f->sockets, 1, 8, "NUMA sockets (at most --cores)"},
        {"--size", &f->size, kMinFrameLen, kMaxFrameLen,
         "fixed-size frames instead of the campus trace"},
        {"--workload", &f->workload,
         "synthesize traffic from a spec or spec file instead"},
        {"--duration", &f->duration_us, 0.0, 1e9, "measured interval in us",
         true},
        {"--verify", &f->verify,
         "check equivalence against the vanilla build"},
        {"--report", &f->report, "print the PacketMill optimization report"},
        {"--explain", &f->explain,
         "print the cycle-accounting bottleneck report"},
        {"--json", &f->json,
         "print the run's meta and summary JSON Lines instead"},
        {"--stats-json", &f->stats_json,
         "write telemetry, acct, element and host JSON Lines here"},
        {"--sample-interval-us", &f->sample_us, 0.0, 1e9,
         "telemetry snapshot period in us (0 = off)"},
        {"--trace-out", &f->trace_out,
         "write a Perfetto trace of the measured window here"},
        {"--trace-jsonl", &f->trace_jsonl,
         "write the trace ring and tail attribution here"},
        {"--trace-sample-rate", &f->trace_rate, 0.0, 1.0,
         "fraction of packets traced", true},
        {"--profile-out", &f->profile_out, "capture a profile into here"},
        {"--profile-in", &f->profile_in,
         "grind with the plan searched from this profile"},
        {"--control", &f->control, "closed-loop control policy", kPolicies},
        {"--decision-log", &f->decision_log,
         "write the control decisions here (needs --control)"},
        {"--load-step-us", &f->load_step_us, 0.0, 1e9,
         "switch the offered load this long into the window (0 = never)"},
        {"--load-step-gbps", &f->load_step_gbps, 0.0, 1000.0,
         "the offered load after the step, in Gbps", true},
    };
}

std::string
run_flags_usage(const char *argv0)
{
    std::string out = strprintf(
        "usage: %s <config.click> [--flag value | --flag=value]...\n",
        argv0);
    RunFlags defaults;
    for (const Param &p : run_flag_table(&defaults)) {
        out += std::string("  ") + p.name;
        if (!p.is_flag())
            out += " <" + p.expects() + ">";
        out += std::string("\n      ") + p.help;
        const std::string v = p.value();
        if (!v.empty() && v != "0" && v != "false")
            out += " (default " + v + ")";
        out += "\n";
    }
    return out;
}

bool
parse_run_flags(int argc, const char *const *argv, RunFlags *out,
                std::string *err)
{
    auto fail = [err](const std::string &msg) {
        *err = msg;
        return false;
    };
    auto usage_error = [&](const std::string &msg) {
        return fail(msg + "\n" + run_flags_usage(argv[0]));
    };
    if (argc < 2 || std::string(argv[1]).rfind("--", 0) == 0)
        return usage_error("no Click config given");

    RunFlags f;
    f.config_path = argv[1];
    const std::vector<Param> table = run_flag_table(&f);
    for (int i = 2; i < argc; ++i) {
        std::string name = argv[i];
        std::string value;
        const std::size_t eq =
            name.rfind("--", 0) == 0 ? name.find('=') : std::string::npos;
        const bool has_value = eq != std::string::npos;
        if (has_value) {
            value = name.substr(eq + 1);
            name.resize(eq);
        }
        const Param *p = find_param(table, name);
        if (p == nullptr)
            return usage_error("unknown flag '" + name + "'");
        if (p->is_flag() && has_value)
            return usage_error(name + " takes no value");
        if (!p->is_flag() && !has_value) {
            if (i + 1 >= argc)
                return usage_error(name + " needs a value");
            value = argv[++i];
        }
        if (!set_param(*p, value, err))
            return false;
    }

    // Flags that contradict each other: a clean error here, not an
    // engine assertion or a silently ignored flag later.
    if (f.sockets > f.cores)
        return fail(strprintf("--sockets %u exceeds --cores %u (a socket "
                              "with no core would never be accessed)",
                              f.sockets, f.cores));
    if (f.host_threads > f.cores)
        return fail(strprintf("--host-threads %u exceeds --cores %u (a "
                              "worker with no simulated core to drive "
                              "would idle forever)",
                              f.host_threads, f.cores));
    if (f.park_split != 0 && f.opts().model != MetadataModel::kParking)
        return fail("--park-split requires the parking metadata model "
                    "(--model parking)");
    if (!f.decision_log.empty() && f.control.empty())
        return fail("--decision-log requires --control");
    if ((f.load_step_us > 0) != (f.load_step_gbps > 0))
        return fail("--load-step-us and --load-step-gbps must be given "
                    "together");
    if (!f.workload.empty() && f.size != 0)
        return fail("--workload and --size are mutually exclusive (a "
                    "workload defines its own sizes)");
    if (!f.workload.empty() && f.verify)
        return fail("--verify replays a trace and cannot be combined with "
                    "--workload");
    if (f.json && (f.verify || f.report || f.explain))
        return fail(strprintf(
            "--json cannot be combined with %s (--json prints only the "
            "meta and summary JSON Lines)",
            f.verify ? "--verify" : f.report ? "--report" : "--explain"));
    *out = std::move(f);
    return true;
}

} // namespace pmill
