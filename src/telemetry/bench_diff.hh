/**
 * @file
 * Bench-artifact regression diffing.
 *
 * BenchReport leaves one `<name>.json` JSON-Lines artifact per bench
 * in $PMILL_BENCH_DIR. This module loads two such directories (a
 * checked-in golden baseline and a fresh run), matches tables by file
 * name and rows by index, and compares them cell by cell — the
 * library behind the `pmill_bench_diff` CI gate.
 *
 * The simulation is deterministic, so every simulated cell must
 * reproduce its golden value exactly. Columns measured on the host
 * (a "wall" or "host" name token) are the one exception: they are
 * reported with their percent change and never gate. A model change
 * that moves a simulated cell re-records the golden on purpose.
 */

#ifndef PMILL_TELEMETRY_BENCH_DIFF_HH
#define PMILL_TELEMETRY_BENCH_DIFF_HH

#include <map>
#include <string>
#include <vector>

namespace pmill {

/** True when @p column was measured on the host: a "wall" or "host"
 * token in its name ("wall_ms", "host_Mpps"). */
bool is_host_column(const std::string &column);

/** One bench artifact: the meta line + its row objects. */
struct BenchTable {
    std::string bench;    ///< artifact basename
    std::string title;
    std::vector<std::string> columns;
    /// Row cells keyed by column name, raw strings.
    std::vector<std::map<std::string, std::string>> rows;
};

/**
 * Load a BenchReport `<name>.json` artifact: the meta line's fields
 * through JsonFields, each row's cells as their raw text.
 */
bool load_bench_table(const std::string &path, BenchTable *out,
                      std::string *err);

/** Sorted basenames (without ".json") of the artifacts in @p dir. */
std::vector<std::string> list_bench_artifacts(const std::string &dir);

/** Result of diffing two artifact directories. */
struct BenchDiffResult {
    /** One compared (bench, row, column) cell, as raw value strings. */
    struct Cell {
        std::string bench;
        std::string column;
        std::size_t row = 0;
        std::string base;  ///< golden value ("" when the row lacks it)
        std::string cur;   ///< current value ("" when the row lacks it)
        bool host = false;  ///< host-measured: reported, never gated

        bool mismatch() const { return !host && base != cur; }
    };

    std::vector<Cell> cells;            ///< every compared cell
    std::vector<std::string> missing;   ///< golden, not in current
    std::vector<std::string> errors;    ///< unreadable/mismatched tables
    std::size_t num_exact = 0;          ///< exact cells compared
    std::size_t num_mismatches = 0;     ///< exact cells that differ

    /** Gate verdict: no mismatch, no missing bench, no errors. */
    bool ok() const
    {
        return num_mismatches == 0 && missing.empty() && errors.empty();
    }

    /** Human summary: mismatches and host cells; @p verbose adds
     * every matching exact cell. */
    std::string to_string(bool verbose = false) const;
};

/**
 * Compare every artifact of @p base_dir against @p cur_dir. Every
 * cell of a non-host column must equal its golden raw value exactly.
 * A mismatched cell, a changed column list or row count, a bench
 * missing from @p cur_dir, a `.json` artifact in @p cur_dir with no
 * golden, or a malformed artifact makes ok() false.
 */
BenchDiffResult diff_bench_dirs(const std::string &base_dir,
                                const std::string &cur_dir);

} // namespace pmill

#endif // PMILL_TELEMETRY_BENCH_DIFF_HH
