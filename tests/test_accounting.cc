/**
 * @file
 * Cycle-accounting tests: the ledger's conservation-by-construction
 * arithmetic, AcctScope nesting, the engine's end-of-run breakdown
 * (both invariants on a real run), and the report module's JSONL
 * round trip and renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/accounting/acct_report.hh"
#include "src/accounting/cycle_account.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

TEST(CycleAccount, ChargeConservesByConstruction)
{
    CycleAccount acct;
    // Fractional cycles stress the fixed-point rounding: the SAME
    // rounded integer must land in the bucket and the total.
    acct.charge(kAcctFramework, kAcctCompute, 1.0 / 3.0);
    acct.charge(kAcctDriverRx, kAcctAccess, 12.345678901);
    acct.charge(kAcctElementBase + 2, kAcctDramStall, 1e7 + 0.1);
    acct.charge(kAcctIdle, kAcctCompute, 0.0);
    EXPECT_EQ(acct.sum_minus_total(), 0);

    const CycleAccount::Fixed expect =
        CycleAccount::to_fixed(1.0 / 3.0) +
        CycleAccount::to_fixed(12.345678901) +
        CycleAccount::to_fixed(1e7 + 0.1);
    EXPECT_EQ(acct.total_fixed(), expect);
    EXPECT_EQ(acct.snapshot().sum_minus_total(), 0);
}

TEST(CycleAccount, SnapshotDeltaAndTotals)
{
    CycleAccount acct;
    acct.charge(kAcctMempool, kAcctAccess, 5.0);
    const CycleAccount::Snapshot base = acct.snapshot();

    acct.charge(kAcctMempool, kAcctAccess, 7.0);
    acct.charge(kAcctMempool, kAcctTlbStall, 2.0);
    acct.charge(kAcctMetadata, kAcctAccess, 11.0);

    const CycleAccount::Snapshot d = acct.snapshot().delta_since(base);
    EXPECT_EQ(d.bucket(kAcctMempool, kAcctAccess),
              CycleAccount::to_fixed(7.0));
    EXPECT_EQ(d.bucket(kAcctMempool, kAcctTlbStall),
              CycleAccount::to_fixed(2.0));
    EXPECT_EQ(d.scope_total(kAcctMempool), CycleAccount::to_fixed(9.0));
    EXPECT_EQ(d.component_total(kAcctAccess),
              CycleAccount::to_fixed(18.0));
    EXPECT_EQ(d.sum_minus_total(), 0);
    // Out-of-range lookups read as zero, not UB.
    EXPECT_EQ(d.bucket(999, kAcctCompute), 0);

    // The live ledger agrees with its own snapshot.
    EXPECT_EQ(acct.scope_total(kAcctMetadata),
              acct.snapshot().scope_total(kAcctMetadata));
    EXPECT_EQ(acct.component_total(kAcctAccess),
              acct.snapshot().component_total(kAcctAccess));
}

TEST(CycleAccount, ChargeNsConvertsAtFrequency)
{
    CycleAccount acct;
    acct.charge_ns(kAcctIdle, kAcctCompute, 10.0, 2.3);
    EXPECT_EQ(acct.total_fixed(), CycleAccount::to_fixed(23.0));
}

/** Sink recording nothing; only the scope tag matters. */
class ScopeProbe : public AccessSink {
  public:
    void on_access(Addr, std::uint32_t, AccessType) override {}
    void on_compute(Cycles, double) override {}
};

TEST(AcctScopeGuard, NestsAndRestores)
{
    ScopeProbe sink;
    EXPECT_EQ(sink.acct_scope(), kAcctFramework);
    {
        AcctScope rx(sink, kAcctDriverRx);
        EXPECT_EQ(sink.acct_scope(), kAcctDriverRx);
        {
            // Nested retag (mempool refill inside an RX burst) must
            // land in the innermost scope and restore the outer one.
            AcctScope pool(&sink, kAcctMempool);
            EXPECT_EQ(sink.acct_scope(), kAcctMempool);
        }
        EXPECT_EQ(sink.acct_scope(), kAcctDriverRx);
    }
    EXPECT_EQ(sink.acct_scope(), kAcctFramework);

    // Null-tolerant: instrumented structures run un-sinked in tests.
    AcctScope none(nullptr, kAcctMempool);
}

TEST(EngineAcct, BreakdownConservesAndTiesToClock)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), opts_packetmill(), t);
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 100;
    rc.duration_us = 400;
    engine.run(rc);

    const auto &bd = engine.acct_breakdown();
    ASSERT_EQ(bd.size(), 1u);
    const auto &b = bd[0];
    // First invariant: buckets tile the total bit-exactly.
    EXPECT_EQ(b.delta.sum_minus_total(), 0);
    // Second invariant: the ledger total matches the clock advance.
    const double res = CycleAccount::cycles(b.residual);
    EXPECT_LE(std::fabs(res), 1.0 + 1e-5 * b.clock_cycles)
        << "ledger drifted " << res << " cycles from the core clock";
    EXPECT_GT(b.clock_cycles, 0.0);
    EXPECT_GT(CycleAccount::cycles(b.delta.total), 0.0);

    // Labels cover every touched scope, elements included.
    const std::vector<std::string> labels = engine.acct_scope_labels();
    EXPECT_GE(labels.size(), kAcctNumFixedScopes);
    EXPECT_LE(b.delta.num_scopes(), labels.size());

    // A loaded run must attribute real work outside the idle scope.
    const AcctReport rep = acct_report_from_engine(engine);
    ASSERT_FALSE(rep.empty());
    EXPECT_GT(rep.aggregate.busy_cycles(), 0.0);
    std::string dom;
    std::uint32_t comp = 0;
    double share = 0;
    EXPECT_TRUE(rep.dominant_busy_bucket(&dom, &comp, &share));
    EXPECT_GT(share, 0.0);
}

TEST(AcctReport, JsonlRoundTripPreservesTotals)
{
    Trace t = make_fixed_size_trace(256, 128, 16);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    engine.run(rc);

    const AcctReport rep = acct_report_from_engine(engine);
    ASSERT_FALSE(rep.empty());

    std::stringstream ss;
    // Interleave foreign lines: the parser must skip them.
    ss << "{\"type\":\"meta\",\"config\":\"x\"}\n";
    acct_write_jsonl(rep, ss);
    ss << "{\"type\":\"summary\",\"mpps\":1.5}\n";

    AcctReport back;
    std::string err;
    ASSERT_TRUE(acct_report_from_jsonl(ss, &back, &err)) << err;
    ASSERT_EQ(back.cores.size(), rep.cores.size());
    ASSERT_EQ(back.aggregate.rows.size(), rep.aggregate.rows.size());
    // Totals survive the %.10g serialization to well under a cycle.
    EXPECT_NEAR(back.aggregate.total_cycles, rep.aggregate.total_cycles,
                1e-3 * rep.aggregate.total_cycles + 1.0);
    EXPECT_EQ(back.sum_minus_total_fixed, rep.sum_minus_total_fixed);
    EXPECT_EQ(back.aggregate.rows[0].label, rep.aggregate.rows[0].label);

    std::ostringstream os;
    acct_render_report(back, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("aggregate breakdown"), std::string::npos);
    EXPECT_NE(text.find("dominant busy bucket:"), std::string::npos);
    EXPECT_NE(text.find("conservation:"), std::string::npos);
}

/**
 * Parses a stream of a meta line, an aggregate acct line, an acct line
 * whose core is @p core (line 3), and an acct_check line whose
 * sum_minus_total_fixed is @p fixed (line 4).
 * @return the reader's error, or "" when it accepts the stream.
 */
std::string
acct_stream_error(const std::string &core, const std::string &fixed = "0",
                  AcctReport *rep = nullptr)
{
    std::istringstream is(
        "{\"type\":\"meta\",\"config\":\"x\"}\n"
        "{\"type\":\"acct\",\"core\":-1,\"scope\":\"framework\","
        "\"element\":0,\"total_cycles\":10}\n"
        "{\"type\":\"acct\",\"core\":" + core +
        ",\"scope\":\"framework\",\"element\":0,"
        "\"total_cycles\":10}\n"
        "{\"type\":\"acct_check\",\"sum_minus_total_fixed\":" + fixed +
        ",\"residual_cycles\":0,\"clock_cycles\":10}\n");
    AcctReport local;
    std::string err;
    return acct_report_from_jsonl(is, rep ? rep : &local, &err) ? ""
                                                               : err;
}

TEST(AcctReport, CoresFromAggregateToTheCoresBoundParse)
{
    for (const char *core : {"-1", "0", "63", "6.3e1"})
        EXPECT_EQ(acct_stream_error(core), "") << core;
    AcctReport rep;
    ASSERT_EQ(acct_stream_error("63", "-7", &rep), "");
    EXPECT_EQ(rep.cores.size(), 64u);
    EXPECT_EQ(rep.sum_minus_total_fixed, -7);
}

// A NaN or infinite core would be cast to int: undefined behaviour.
TEST(AcctReport, NonFiniteCoreIsRejected)
{
    for (const char *core : {"nan", "inf", "-inf"}) {
        const std::string err = acct_stream_error(core);
        EXPECT_NE(err.find("line 3"), std::string::npos) << core << err;
        EXPECT_NE(err.find("core"), std::string::npos) << core << err;
    }
}

// 1e300 overflows the cast; an in-range 1e9 would resize the per-core
// table to a billion breakdowns.
TEST(AcctReport, CoreOutsideTheCoresBoundIsRejected)
{
    for (const char *core : {"1e300", "1e9", "64", "-2", "-1e300"}) {
        const std::string err = acct_stream_error(core);
        EXPECT_NE(err.find("line 3"), std::string::npos) << core << err;
    }
}

TEST(AcctReport, FractionalCoreIsRejected)
{
    EXPECT_NE(acct_stream_error("2.5").find("line 3"), std::string::npos);
}

TEST(AcctReport, NonFiniteFixedSumIsRejected)
{
    for (const char *fixed : {"nan", "inf", "-inf"}) {
        const std::string err = acct_stream_error("-1", fixed);
        EXPECT_NE(err.find("line 4"), std::string::npos) << fixed << err;
        EXPECT_NE(err.find("sum_minus_total_fixed"), std::string::npos)
            << fixed << err;
    }
}

TEST(AcctReport, FixedSumOutsideInt64IsRejected)
{
    for (const char *fixed : {"1e300", "-1e300", "9223372036854775808",
                              "-9.3e18"}) {
        const std::string err = acct_stream_error("-1", fixed);
        EXPECT_NE(err.find("line 4"), std::string::npos) << fixed << err;
    }
    EXPECT_EQ(acct_stream_error("-1", "-9223372036854775808"), "");
}

// A truncated line used to be skipped, so the report silently lost a
// bucket (the idle row, say, making a run look 100% busy).
TEST(AcctReport, MalformedLineIsALoadErrorNamingIt)
{
    EXPECT_EQ(acct_stream_error("0"), "");
    std::istringstream is(
        "{\"type\":\"meta\",\"config\":\"x\"}\n"
        "\n"
        "{\"type\":\"acct\",\"core\":-1,\"scope\":\"idle\","
        "\"element\":0,\"total_cycles\":10\n"
        "{\"type\":\"acct\",\"core\":-1,\"scope\":\"framework\","
        "\"element\":0,\"total_cycles\":10}\n");
    AcctReport rep;
    std::string err;
    EXPECT_FALSE(acct_report_from_jsonl(is, &rep, &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

// The writer prints the fixed-point sum exactly; a double would round
// anything above 2^53.
TEST(AcctReport, FixedSumReadsBackExactly)
{
    AcctReport rep;
    ASSERT_EQ(acct_stream_error("0", "9007199254740993", &rep), "");
    EXPECT_EQ(rep.sum_minus_total_fixed, 9007199254740993);
    ASSERT_EQ(acct_stream_error("0", "9223372036854775807", &rep), "");
    EXPECT_EQ(rep.sum_minus_total_fixed, INT64_MAX);
    for (const char *fixed : {"1e3", "7.0", "+7", "--7", "", "0x10"})
        EXPECT_NE(acct_stream_error("0", fixed).find("line 4"),
                  std::string::npos)
            << fixed;
}

// One edit to a number on an acct line. An unchecked strtod read a
// string core as 0, filing the aggregate line under core 0; a string
// component as 0 cycles; and an overflowing one as inf.
TEST(AcctReport, MalformedNumbersAreLoadErrors)
{
    const std::string line =
        "{\"type\":\"acct\",\"core\":-1,\"scope\":\"framework\","
        "\"element\":0,\"compute\":5,\"dram_stall\":3,"
        "\"total_cycles\":8}";
    auto error = [](const std::string &acct_line) {
        std::istringstream is(
            "{\"type\":\"acct\",\"core\":-1,\"scope\":\"idle\","
            "\"element\":0,\"total_cycles\":10}\n" +
            acct_line + "\n");
        AcctReport rep;
        std::string err;
        return acct_report_from_jsonl(is, &rep, &err) ? std::string() : err;
    };
    EXPECT_EQ(error(line), "");
    const struct {
        const char *from, *to, *key;
    } edits[] = {
        {"\"core\":-1", "\"core\":\"x\"", "core"},
        {"\"compute\":5", "\"compute\":\"oops\"", "compute"},
        {"\"dram_stall\":3", "\"dram_stall\":1e999", "dram_stall"},
        {"\"total_cycles\":8", "\"total_cycles\":nan", "total_cycles"},
        {"\"element\":0", "\"element\":\"no\"", "element"},
    };
    for (const auto &e : edits) {
        std::string edited = line;
        edited.replace(edited.find(e.from), std::string(e.from).size(), e.to);
        EXPECT_EQ(error(edited),
                  std::string("line 2: malformed value for '") + e.key + "'")
            << edited;
    }
    // A line without a core would be filed under core 0 too.
    std::string no_core = line;
    no_core.erase(no_core.find("\"core\":-1,"), 10);
    EXPECT_NE(error(no_core).find("line 2: core"), std::string::npos)
        << no_core;
}

TEST(AcctReport, StreamWithoutAcctLinesFails)
{
    std::stringstream ss;
    ss << "{\"type\":\"meta\",\"config\":\"x\"}\n"
       << "{\"type\":\"row\",\"Thr(Gbps)\":99.0}\n";
    AcctReport rep;
    std::string err;
    EXPECT_FALSE(acct_report_from_jsonl(ss, &rep, &err));
    EXPECT_NE(err.find("acct"), std::string::npos);
}

} // namespace
} // namespace pmill
