/**
 * @file
 * Cycle-accounting reports: aggregate an Engine's measured-window
 * ledger into per-core and summed bucket breakdowns, serialize them
 * as `{"type":"acct"}` JSONL lines next to the other run artifacts,
 * parse them back, and render the ranked bottleneck report that
 * `pmill_explain` (and `pmill_run --explain`) print.
 *
 * The report is a pure projection of CycleAccount snapshots — it adds
 * no charges and never perturbs simulated results.
 */

#ifndef PMILL_ACCOUNTING_ACCT_REPORT_HH
#define PMILL_ACCOUNTING_ACCT_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/accounting/cycle_account.hh"

namespace pmill {

class Engine;

/** One scope's cycles in one breakdown, split by component. */
struct AcctBucketRow {
    std::string label;        ///< scope name or element instance name
    bool is_element = false;  ///< true for kAcctElementBase+ scopes
    double comp[kAcctNumComponents] = {};  ///< cycles per component
    double total = 0;                      ///< sum of comp[]

    /** LLC + DRAM + TLB stall cycles (the attributed-stall metric). */
    double stall() const;
};

/** One aggregation level: a whole machine, or a single core. */
struct AcctBreakdown {
    std::vector<AcctBucketRow> rows;  ///< scope order (fixed, then elements)
    double total_cycles = 0;          ///< ledger total
    double idle_cycles = 0;           ///< the idle scope's total
    double busy_cycles() const { return total_cycles - idle_cycles; }
};

/** A full report: aggregate + per-core, plus the conservation facts. */
struct AcctReport {
    AcctBreakdown aggregate;
    std::vector<AcctBreakdown> cores;

    /// @name Conservation invariants (summed over cores).
    /// @{
    /// Bucket sum minus ledger total in fixed-point units; 0 iff the
    /// first (bit-exact) invariant holds.
    std::int64_t sum_minus_total_fixed = 0;
    /// Ledger total minus core-clock advance, in cycles — the
    /// deterministic floating-point residual of the second tie.
    double residual_cycles = 0;
    double clock_cycles = 0;  ///< summed core-clock advance
    /// @}

    bool empty() const { return aggregate.rows.empty(); }

    /**
     * The single largest busy (non-idle) scope x component bucket.
     * Returns false when the report is empty or all-zero.
     */
    bool dominant_busy_bucket(std::string *label,
                              std::uint32_t *component,
                              double *share_of_busy) const;
};

/**
 * Build the report from @p engine 's most recent run (its measured
 * window). Empty when accounting is compiled out or run() has not
 * been called.
 */
AcctReport acct_report_from_engine(const Engine &engine);

/**
 * Write the report as JSONL: one `{"type":"acct",...}` line per
 * (aggregation, scope) — `"core":-1` is the aggregate — and one
 * closing `{"type":"acct_check",...}` line with the conservation
 * facts.
 */
void acct_write_jsonl(const AcctReport &report, std::ostream &os);

/**
 * Rebuild a report from a stats JSONL stream containing the lines
 * acct_write_jsonl() produced (other line types are skipped). Values
 * are read through JsonFields. Returns false (with @p err set, naming
 * the line) when a non-empty line is not a JSON object, when a number
 * on an acct or acct_check line is malformed or not finite (naming
 * the key), when an acct line's core is missing or not an integer in
 * [-1, kMaxCores), when sum_minus_total_fixed is missing or not a
 * decimal 64-bit integer, or when no acct lines are present.
 */
bool acct_report_from_jsonl(std::istream &is, AcctReport *out,
                            std::string *err);

/**
 * Render the ranked bottleneck report: aggregate % breakdown, top-N
 * elements by attributed stall, per-core dominant buckets, the
 * conservation line, and actionable hints mapping dominant buckets
 * onto existing levers (grind rule reorder, metadata-model upgrade,
 * burst/backoff retune).
 */
void acct_render_report(const AcctReport &report, std::ostream &os,
                        std::size_t top_n = 5);

} // namespace pmill

#endif // PMILL_ACCOUNTING_ACCT_REPORT_HH
