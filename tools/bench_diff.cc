/**
 * @file
 * pmill_bench_diff: CI gate comparing two bench-artifact directories.
 *
 * Usage:
 *   pmill_bench_diff <golden_dir> <current_dir> [--verbose]
 *
 * Exits 0 when every cell of every golden artifact reproduces exactly
 * in the current run; exits 1 on any mismatched cell, changed column
 * list or row count, missing bench, current artifact without a golden,
 * or malformed artifact. Host-measured ("wall"/"host") columns are
 * printed with their percent change and never gate.
 */

#include <cstdio>
#include <string>

#include "src/telemetry/bench_diff.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <golden_dir> <current_dir> [--verbose]\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string base_dir, cur_dir;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--verbose" || arg == "-v") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (base_dir.empty()) {
            base_dir = arg;
        } else if (cur_dir.empty()) {
            cur_dir = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (base_dir.empty() || cur_dir.empty()) {
        usage(argv[0]);
        return 2;
    }

    const pmill::BenchDiffResult res =
        pmill::diff_bench_dirs(base_dir, cur_dir);
    std::fputs(res.to_string(verbose).c_str(), stdout);
    if (res.ok()) {
        std::printf("PASS\n");
        return 0;
    }
    std::printf("FAIL\n");
    return 1;
}
