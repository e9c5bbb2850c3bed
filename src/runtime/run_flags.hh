/**
 * @file
 * pmill_run's flags. One table declares each flag's name, target,
 * bounds and help line; parse_run_flags() splits argv over it and then
 * applies the checks that involve more than one flag.
 */

#ifndef PMILL_RUNTIME_RUN_FLAGS_HH
#define PMILL_RUNTIME_RUN_FLAGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/elements/args.hh"
#include "src/framework/exec_context.hh"

namespace pmill {

/** Everything pmill_run's command line sets, at its defaults. */
struct RunFlags {
    std::string config_path;
    std::string opt = "vanilla";
    std::string model;             ///< empty: the --opt level's model
    std::uint32_t park_split = 0;  ///< 0: the model's default split
    double freq = 2.3, offered = 100.0, duration_us = 2500.0;
    std::uint32_t cores = 1, host_threads = 1, nics = 1, sockets = 1;
    std::uint32_t size = 0;  ///< 0: the campus trace
    std::string workload;
    bool verify = false, report = false, explain = false, json = false;
    std::string stats_json;
    double sample_us = 100.0;
    std::string trace_out, trace_jsonl;
    double trace_rate = 1.0;
    std::string profile_out, profile_in, control, decision_log;
    double load_step_us = 0.0, load_step_gbps = 0.0;

    /** The --opt level, with --model and --park-split applied. */
    PipelineOpts opts() const;
};

/** The flag table, bound to @p f 's members. */
std::vector<Param> run_flag_table(RunFlags *f);

/** The usage text: one entry per flag, printed from the table. */
std::string run_flags_usage(const char *argv0);

/**
 * Parse pmill_run's command line: argv[1] is the Click config (a first
 * argument starting with "--" is a flag, so the config is missing),
 * then flags as `--x v`, `--x=v` or bare booleans. Returns false with
 * @p err set on an unknown flag, a missing or malformed value, or flags
 * that contradict each other; an error about the command line's shape
 * ends with the usage text.
 */
bool parse_run_flags(int argc, const char *const *argv, RunFlags *out,
                     std::string *err);

} // namespace pmill

#endif // PMILL_RUNTIME_RUN_FLAGS_HH
