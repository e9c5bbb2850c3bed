/**
 * @file
 * pmill_explain: render a ranked bottleneck report from a run's
 * cycle-accounting JSONL.
 *
 * Usage:
 *   pmill_explain <stats.jsonl> [--top N]
 *   pmill_explain -            # read stdin
 *
 * The input is any JSONL stream containing the `{"type":"acct"}` /
 * `{"type":"acct_check"}` lines that `pmill_run --stats-json` (or any
 * caller of acct_write_jsonl) emits; all other line types are skipped,
 * so pointing it at the full stats file Just Works. Exits 0 on a
 * rendered report, 1 when the stream has no accounting lines (e.g. a
 * -DPMILL_ACCT=OFF build) or a malformed line or number (the message
 * names the line and the key), 2 on usage/IO errors.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/accounting/acct_report.hh"
#include "src/elements/args.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s <stats.jsonl | -> [--top N]\n", argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::uint64_t top_n = 5;
    const pmill::Param top{"--top", &top_n, 1, UINT64_MAX,
                           "rows of the ranked table"};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool top_eq = arg.rfind("--top=", 0) == 0;
        if ((arg == "--top" && i + 1 < argc) || top_eq) {
            const std::string v =
                top_eq ? arg.substr(std::strlen("--top=")) : argv[++i];
            std::string err;
            if (!pmill::set_param(top, v, &err)) {
                std::fprintf(stderr, "pmill_explain: %s\n", err.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (path.empty()) {
        usage(argv[0]);
        return 2;
    }

    pmill::AcctReport report;
    std::string err;
    bool ok = false;
    if (path == "-") {
        ok = pmill::acct_report_from_jsonl(std::cin, &report, &err);
    } else {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "pmill_explain: cannot open %s\n",
                         path.c_str());
            return 2;
        }
        ok = pmill::acct_report_from_jsonl(in, &report, &err);
    }
    if (!ok) {
        std::fprintf(stderr, "pmill_explain: %s\n", err.c_str());
        return 1;
    }

    std::ostringstream os;
    pmill::acct_render_report(report, os, top_n);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
