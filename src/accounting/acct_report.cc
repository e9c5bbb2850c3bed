#include "src/accounting/acct_report.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/common/log.hh"
#include "src/common/table_printer.hh"
#include "src/runtime/engine.hh"
#include "src/telemetry/export.hh"

namespace pmill {

namespace {

double
pct(double part, double whole)
{
    return whole > 0 ? part / whole * 100.0 : 0.0;
}

void
write_breakdown(const AcctBreakdown &b, int core, std::ostream &os)
{
    for (const AcctBucketRow &r : b.rows) {
        JsonLine line(os);
        line.str("type", "acct").int64("core", core).str("scope", r.label)
            .int64("element", r.is_element ? 1 : 0);
        for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
            line.num(acct_component_name(c), r.comp[c]);
        line.num("total_cycles", r.total).end();
    }
}

void
finish_breakdown(AcctBreakdown &b)
{
    b.total_cycles = 0;
    b.idle_cycles = 0;
    for (const AcctBucketRow &r : b.rows) {
        b.total_cycles += r.total;
        if (!r.is_element && r.label == acct_scope_name(kAcctIdle))
            b.idle_cycles += r.total;
    }
}

} // namespace

double
AcctBucketRow::stall() const
{
    return comp[kAcctLlcStall] + comp[kAcctDramStall] + comp[kAcctTlbStall];
}

bool
AcctReport::dominant_busy_bucket(std::string *label,
                                 std::uint32_t *component,
                                 double *share_of_busy) const
{
    double best = 0;
    bool found = false;
    for (const AcctBucketRow &r : aggregate.rows) {
        if (!r.is_element && r.label == acct_scope_name(kAcctIdle))
            continue;
        for (std::uint32_t c = 0; c < kAcctNumComponents; ++c) {
            if (r.comp[c] > best) {
                best = r.comp[c];
                *label = r.label;
                *component = c;
                found = true;
            }
        }
    }
    if (found && share_of_busy)
        *share_of_busy = pct(best, aggregate.busy_cycles());
    return found;
}

AcctReport
acct_report_from_engine(const Engine &engine)
{
    AcctReport rep;
    if (!CycleAccount::kCompiledIn)
        return rep;
    const auto &per_core = engine.acct_breakdown();
    if (per_core.empty())
        return rep;
    const std::vector<std::string> labels = engine.acct_scope_labels();

    rep.aggregate.rows.resize(labels.size());
    for (std::size_t s = 0; s < labels.size(); ++s) {
        rep.aggregate.rows[s].label = labels[s];
        rep.aggregate.rows[s].is_element = s >= kAcctNumFixedScopes;
    }

    for (const Engine::AcctCoreBreakdown &cb : per_core) {
        AcctBreakdown core;
        core.rows = rep.aggregate.rows;  // labels, zero values
        for (std::size_t s = 0; s < labels.size(); ++s) {
            for (std::uint32_t c = 0; c < kAcctNumComponents; ++c) {
                const double cyc = CycleAccount::cycles(
                    cb.delta.bucket(static_cast<std::uint16_t>(s), c));
                core.rows[s].comp[c] = cyc;
                core.rows[s].total += cyc;
                rep.aggregate.rows[s].comp[c] += cyc;
                rep.aggregate.rows[s].total += cyc;
            }
        }
        finish_breakdown(core);
        rep.cores.push_back(std::move(core));
        rep.sum_minus_total_fixed += cb.delta.sum_minus_total();
        rep.residual_cycles += CycleAccount::cycles(cb.residual);
        rep.clock_cycles += cb.clock_cycles;
    }
    finish_breakdown(rep.aggregate);
    return rep;
}

void
acct_write_jsonl(const AcctReport &report, std::ostream &os)
{
    if (report.empty())
        return;
    write_breakdown(report.aggregate, -1, os);
    for (std::size_t c = 0; c < report.cores.size(); ++c)
        write_breakdown(report.cores[c], static_cast<int>(c), os);
    JsonLine(os)
        .str("type", "acct_check").uint64("cores", report.cores.size())
        .int64("sum_minus_total_fixed", report.sum_minus_total_fixed)
        .num("residual_cycles", report.residual_cycles)
        .num("clock_cycles", report.clock_cycles)
        .num("total_cycles", report.aggregate.total_cycles).end();
}

bool
acct_report_from_jsonl(std::istream &is, AcctReport *out, std::string *err)
{
    AcctReport rep;
    const bool ok = read_jsonl(
        is,
        [&](JsonFields &f, std::string *why) {
            const std::string type = f.str("type");
            if (type == "acct") {
                // -1 is the aggregate; a core index is below pmill_run's
                // --cores bound, and a line without one is refused too.
                // Checked before the cast, which is undefined for
                // out-of-range values.
                const double core = f.num("core", -2);
                if (!(core >= -1 && core < kMaxCores) ||
                    core != std::floor(core)) {
                    *why = strprintf("core is not an integer in [-1, %u)",
                                     kMaxCores);
                    return false;
                }
                AcctBucketRow row;
                row.label = f.str("scope", "?");
                row.is_element = f.num("element") != 0;
                for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
                    row.comp[c] = f.num(acct_component_name(c));
                row.total = f.num("total_cycles");
                if (core < 0) {
                    rep.aggregate.rows.push_back(std::move(row));
                } else {
                    const auto i = static_cast<std::size_t>(core);
                    if (rep.cores.size() <= i)
                        rep.cores.resize(i + 1);
                    rep.cores[i].rows.push_back(std::move(row));
                }
            } else if (type == "acct_check") {
                // An integer: the writer prints it exactly, and a double
                // would round anything above 2^53.
                if (!f.has("sum_minus_total_fixed"))
                    f.reject("sum_minus_total_fixed");
                rep.sum_minus_total_fixed = f.int64("sum_minus_total_fixed");
                rep.residual_cycles = f.num("residual_cycles");
                rep.clock_cycles = f.num("clock_cycles");
            }
            return true;
        },
        err);
    if (!ok)
        return false;
    if (rep.empty()) {
        *err = "no {\"type\":\"acct\"} lines found (was the run made "
               "with cycle accounting compiled in?)";
        return false;
    }
    finish_breakdown(rep.aggregate);
    for (AcctBreakdown &core : rep.cores)
        finish_breakdown(core);
    *out = std::move(rep);
    return true;
}

void
acct_render_report(const AcctReport &report, std::ostream &os,
                   std::size_t top_n)
{
    if (report.empty()) {
        os << "cycle accounting: no data (accounting compiled out or no "
              "measured run)\n";
        return;
    }
    const AcctBreakdown &agg = report.aggregate;
    os << strprintf(
        "cycle accounting: %zu core(s), %.3g total cycles "
        "(busy %.1f%%, idle %.1f%%)\n",
        report.cores.size(), agg.total_cycles,
        pct(agg.busy_cycles(), agg.total_cycles),
        pct(agg.idle_cycles, agg.total_cycles));
    os << strprintf(
        "conservation: bucket-sum - total = %lld fixed-point units; "
        "ledger - clock residual = %.4g cycles (window %.4g cycles)\n\n",
        static_cast<long long>(report.sum_minus_total_fixed),
        report.residual_cycles, report.clock_cycles);

    // Aggregate breakdown, ranked by total share.
    std::vector<std::size_t> order(agg.rows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return agg.rows[a].total > agg.rows[b].total;
                     });

    TablePrinter t;
    std::vector<std::string> header = {"Rank", "Scope", "Total%"};
    for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
        header.push_back(std::string(acct_component_name(c)) + "%");
    t.header(header);
    std::size_t rank = 0;
    for (std::size_t i : order) {
        const AcctBucketRow &r = agg.rows[i];
        if (r.total <= 0)
            continue;
        ++rank;
        std::vector<std::string> cells = {
            strprintf("%zu", rank),
            (r.is_element ? "el:" : "") + r.label,
            strprintf("%.2f", pct(r.total, agg.total_cycles))};
        for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
            cells.push_back(
                strprintf("%.2f", pct(r.comp[c], agg.total_cycles)));
        t.row(cells);
    }
    os << t.to_string("aggregate breakdown (% of total cycles)") << "\n";

    // Top elements by attributed stall.
    std::vector<std::size_t> elems;
    for (std::size_t i = 0; i < agg.rows.size(); ++i)
        if (agg.rows[i].is_element)
            elems.push_back(i);
    std::stable_sort(elems.begin(), elems.end(),
                     [&](std::size_t a, std::size_t b) {
                         return agg.rows[a].stall() > agg.rows[b].stall();
                     });
    if (!elems.empty()) {
        TablePrinter et;
        et.header({"Element", "Stall cycles", "Stall% of busy",
                   "llc%", "dram%", "tlb%"});
        for (std::size_t k = 0; k < elems.size() && k < top_n; ++k) {
            const AcctBucketRow &r = agg.rows[elems[k]];
            if (r.stall() <= 0)
                break;
            et.row({r.label, strprintf("%.4g", r.stall()),
                    strprintf("%.2f", pct(r.stall(), agg.busy_cycles())),
                    strprintf("%.2f",
                              pct(r.comp[kAcctLlcStall], agg.busy_cycles())),
                    strprintf("%.2f", pct(r.comp[kAcctDramStall],
                                          agg.busy_cycles())),
                    strprintf("%.2f", pct(r.comp[kAcctTlbStall],
                                          agg.busy_cycles()))});
        }
        if (et.num_rows())
            os << et.to_string("top elements by attributed stall") << "\n";
    }

    // Per-core dominant buckets.
    for (std::size_t c = 0; c < report.cores.size(); ++c) {
        const AcctBreakdown &core = report.cores[c];
        double best = 0;
        std::string what = "-";
        for (const AcctBucketRow &r : core.rows) {
            if (!r.is_element && r.label == acct_scope_name(kAcctIdle))
                continue;
            for (std::uint32_t comp = 0; comp < kAcctNumComponents; ++comp)
                if (r.comp[comp] > best) {
                    best = r.comp[comp];
                    what = r.label + "/" + acct_component_name(comp);
                }
        }
        os << strprintf("core %zu: busy %.1f%%, largest busy bucket: "
                        "%s (%.1f%% of busy)\n",
                        c, pct(core.busy_cycles(), core.total_cycles),
                        what.c_str(), pct(best, core.busy_cycles()));
    }

    std::string dom_label;
    std::uint32_t dom_comp = 0;
    double dom_share = 0;
    if (report.dominant_busy_bucket(&dom_label, &dom_comp, &dom_share)) {
        os << strprintf("\ndominant busy bucket: %s/%s (%.1f%% of busy "
                        "cycles)\n",
                        dom_label.c_str(), acct_component_name(dom_comp),
                        dom_share);

        // Actionable hints: map the dominant bucket onto the levers
        // this repo already has.
        os << "hints:\n";
        const bool is_element_dom = [&] {
            for (const AcctBucketRow &r : agg.rows)
                if (r.label == dom_label)
                    return r.is_element;
            return false;
        }();
        if (pct(agg.idle_cycles, agg.total_cycles) > 50.0)
            os << "  - cores are idle most of the window: offered load is "
                  "below capacity or the poll backoff overshoots; retune "
                  "burst/backoff (pmill_run --control hysteresis) or "
                  "reduce cores.\n";
        if (is_element_dom &&
            (dom_comp == kAcctLlcStall || dom_comp == kAcctDramStall ||
             dom_comp == kAcctTlbStall)) {
            os << strprintf(
                "  - element '%s' is memory-bound (%s): its state "
                "working set exceeds the cache share. Levers: grind "
                "rule reorder / hot-first state packing (pmill_run "
                "--profile-out, then the guided grind), spread flows "
                "over more cores (RSS), or shrink the table.\n",
                dom_label.c_str(), acct_component_name(dom_comp));
        } else if (is_element_dom && dom_comp == kAcctCompute) {
            os << strprintf(
                "  - element '%s' is compute-bound: enable "
                "devirtualization + constant embedding + LTO "
                "(opts_packetmill / guided grind).\n",
                dom_label.c_str());
        } else if (is_element_dom && dom_comp == kAcctAccess) {
            os << strprintf(
                "  - element '%s' is lookup-bound (L1/L2 accesses): "
                "many dependent accesses per packet. Levers: grind "
                "rule reorder to shorten the hot path, hot-first "
                "state packing (state_order), larger bursts to "
                "amortize per-packet walks.\n",
                dom_label.c_str());
        } else if (dom_label == acct_scope_name(kAcctMetadata)) {
            os << "  - metadata-model conversion dominates: upgrade the "
                  "model (--model overlay, or --model xchange to write "
                  "application metadata directly in the PMD).\n";
        } else if (dom_label == acct_scope_name(kAcctDriverRx) ||
                   dom_label == acct_scope_name(kAcctDriverTx)) {
            os << "  - per-packet driver overhead dominates: raise the RX "
                  "burst (amortizes CQE/descriptor work) and consider "
                  "X-Change to shrink the conversion path.\n";
        } else if (dom_label == acct_scope_name(kAcctMempool)) {
            os << "  - mempool alloc/free dominates: X-Change's buffer "
                  "exchange avoids per-packet pool traffic.\n";
        } else if (dom_label == acct_scope_name(kAcctFramework)) {
            os << "  - framework glue dominates: enable devirtualize / "
                  "static graph / LTO so the element graph inlines "
                  "(opts_packetmill).\n";
        }
        const double stall_share =
            pct(agg.rows.empty() ? 0
                                 : [&] {
                                       double s = 0;
                                       for (const AcctBucketRow &r :
                                            agg.rows)
                                           s += r.stall();
                                       return s;
                                   }(),
                agg.busy_cycles());
        if (stall_share > 40.0)
            os << strprintf(
                "  - %.0f%% of busy cycles are memory stalls overall: "
                "this run is dominated by the cache hierarchy, not "
                "instruction count.\n",
                stall_share);
    }
}

} // namespace pmill
