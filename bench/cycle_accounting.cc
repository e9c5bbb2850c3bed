/**
 * @file
 * Cycle-accounting bench: the conservation invariant under the two
 * canonical scenarios (router on the campus-like trace, NAT under
 * Zipf traffic), gated bit-for-bit.
 *
 * The `eq_acct_sum` column is the top-down ledger's first invariant —
 * bucket sum minus total in 44.20 fixed-point units, 0 by
 * construction — and `eq_acct_residual`/`eq_acct_total` pin the whole
 * ledger bit-exactly: ANY change in how cycles are attributed (a new
 * charge site, a scope moved, a double-count) shifts one of them and
 * fails pmill_bench_diff. The share columns are gated exactly too, like
 * every simulated cell: a model change that moves them re-records the
 * golden.
 *
 * Run lengths are pinned so every column matches on every machine.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/accounting/acct_report.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_report.hh"

using namespace pmill;

namespace {

struct AcctRow {
    RunResult run;
    AcctReport rep;
    /// Bit-exact fixed-point invariants summed over cores.
    long long sum_minus_total = 0;
    long long residual_fixed = 0;
    long long total_fixed = 0;
};

void
collect_fixed(const Engine &engine, AcctRow *row)
{
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown()) {
        row->sum_minus_total +=
            static_cast<long long>(cb.delta.sum_minus_total());
        row->residual_fixed += static_cast<long long>(cb.residual);
        row->total_fixed += static_cast<long long>(cb.delta.total);
    }
}

AcctRow
run_router(double warmup_us, double duration_us)
{
    MachineConfig m;
    Engine engine(m, router_config(), opts_packetmill(),
                  default_campus_trace());
    PacketMill::grind(engine);
    RunConfig rc;
    rc.offered_gbps = 100.0;
    rc.warmup_us = warmup_us;
    rc.duration_us = duration_us;
    AcctRow row;
    row.run = engine.run(rc);
    row.rep = acct_report_from_engine(engine);
    collect_fixed(engine, &row);
    return row;
}

AcctRow
run_nat_zipf(double warmup_us, double duration_us)
{
    WorkloadSpec spec;
    std::string err;
    if (!spec.parse("zipf:flows=65536,skew=1.1,burst=8", &err)) {
        std::fprintf(stderr, "cycle_accounting: %s\n", err.c_str());
        std::exit(1);
    }
    MachineConfig m;
    Engine engine(m, nat_aging_config(32, 16384, 1.0), opts_packetmill(),
                  spec);
    PacketMill::grind(engine);
    RunConfig rc;
    rc.offered_gbps = 12.0;
    rc.warmup_us = warmup_us;
    rc.duration_us = duration_us;
    AcctRow row;
    row.run = engine.run(rc);
    row.rep = acct_report_from_engine(engine);
    collect_fixed(engine, &row);
    return row;
}

double
pct(double part, double whole)
{
    return whole > 0 ? part / whole * 100.0 : 0.0;
}

} // namespace

int
main()
{
    // Pinned run lengths: the golden was recorded with these.
    const double kWarmupUs = 1000.0;
    const double kDurationUs = 2000.0;

    BenchReport rep("cycle_accounting",
                    "Cycle-accounting conservation: buckets must tile "
                    "core time exactly (eq_ columns gated bit-for-bit)");
    rep.header({"Scenario", "Thr(Gbps)", "Mpps", "acct_busy_pct",
                "acct_stall_pct", "acct_llc_stall_pct",
                "acct_dram_stall_pct", "Dominant", "eq_acct_sum",
                "eq_acct_residual", "eq_acct_total"});

    bool ok = true;
    struct Scenario {
        const char *name;
        AcctRow row;
    };
    Scenario scenarios[] = {
        {"router-campus", run_router(kWarmupUs, kDurationUs)},
        {"nat-zipf", run_nat_zipf(kWarmupUs, kDurationUs)},
    };

    for (const Scenario &s : scenarios) {
        const AcctBreakdown &agg = s.row.rep.aggregate;
        double stall = 0, llc = 0, dram = 0;
        for (const AcctBucketRow &r : agg.rows) {
            stall += r.stall();
            llc += r.comp[kAcctLlcStall];
            dram += r.comp[kAcctDramStall];
        }
        std::string dom_label = "-";
        std::uint32_t dom_comp = 0;
        double dom_share = 0;
        if (s.row.rep.dominant_busy_bucket(&dom_label, &dom_comp,
                                           &dom_share))
            dom_label += std::string("/") + acct_component_name(dom_comp);
        rep.row({s.name, strprintf("%.2f", s.row.run.throughput_gbps),
                 strprintf("%.3f", s.row.run.mpps),
                 strprintf("%.2f", pct(agg.busy_cycles(), agg.total_cycles)),
                 strprintf("%.2f", pct(stall, agg.total_cycles)),
                 strprintf("%.2f", pct(llc, agg.total_cycles)),
                 strprintf("%.2f", pct(dram, agg.total_cycles)),
                 dom_label, strprintf("%lld", s.row.sum_minus_total),
                 strprintf("%lld", s.row.residual_fixed),
                 strprintf("%lld", s.row.total_fixed)});

        if (s.row.sum_minus_total != 0) {
            std::fprintf(stderr,
                         "cycle_accounting: %s leaks %lld fixed units "
                         "(buckets do not tile the total)\n",
                         s.name, s.row.sum_minus_total);
            ok = false;
        }
        if (s.row.total_fixed <= 0 || agg.busy_cycles() <= 0) {
            std::fprintf(stderr,
                         "cycle_accounting: %s recorded no busy cycles\n",
                         s.name);
            ok = false;
        }
    }

    rep.note("eq_acct_sum is the conservation invariant (bucket sum - "
             "ledger total, fixed-point units; 0 by construction). "
             "eq_acct_residual and eq_acct_total pin the ledger-vs-clock "
             "tie and the full ledger bit-exactly, so any attribution "
             "change fails the diff, as does any moved share.");
    rep.emit();

    // Side artifact for pmill_explain (CI smokes the tool on it): the
    // NAT scenario's full acct JSONL. The .jsonl extension keeps it
    // out of the golden table diff, which compares .json tables only.
    const char *dir = std::getenv("PMILL_BENCH_DIR");
    const std::string base = dir ? dir : ".";
    if (base != "none") {
        const std::string path = base + "/cycle_accounting_acct.jsonl";
        std::ofstream out(path);
        if (out) {
            acct_write_jsonl(scenarios[1].row.rep, out);
            std::printf("acct jsonl: %s\n", path.c_str());
        }
    }
    return ok ? 0 : 1;
}
