/**
 * @file
 * Bench-regression gating tests: the flat JSON-line parser, the host
 * column rule, artifact loading, and directory diffing (exact cells,
 * free-moving host cells, dropped columns, missing and extra
 * artifacts, malformed input).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/bench_diff.hh"
#include "src/telemetry/export.hh"

namespace pmill {
namespace {

/**
 * Scratch dir under the test cwd (the build tree, always writable).
 * The path embeds the running test's name: ctest -j runs each TEST in
 * its own process but in the same cwd, so dirs must not be shared.
 */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string &name)
        : path_(std::string("bench_diff_scratch_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

    void
    write(const std::string &file, const std::string &content) const
    {
        std::ofstream out(path_ + "/" + file);
        out << content;
    }

  private:
    std::string path_;
};

const char kGoldenTable[] =
    "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
    "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\",\"p99(us)\"]}\n"
    "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.5,"
    "\"p99(us)\":3.0}\n"
    "{\"type\":\"row\",\"Offered(Gbps)\":100,\"Thr(Gbps)\":82.0,"
    "\"p99(us)\":9.5}\n";

TEST(BenchDiffParser, FlatObjects)
{
    std::map<std::string, std::string> o;
    ASSERT_TRUE(parse_json_object_line(
        "{\"a\":\"x\",\"b\":1.5,\"c\":true,\"d\":\"q\\\"u\\\\o\"}", &o));
    EXPECT_EQ(o.at("a"), "x");
    EXPECT_EQ(o.at("b"), "1.5");
    EXPECT_EQ(o.at("c"), "true");
    EXPECT_EQ(o.at("d"), "q\"u\\o");

    ASSERT_TRUE(parse_json_object_line("  { }  ", &o));
    EXPECT_TRUE(o.empty());

    ASSERT_TRUE(parse_json_object_line(
        "{\"cols\":[\"a\",\"b\"],\"n\":2}", &o));
    EXPECT_EQ(o.at("cols"), "[\"a\",\"b\"]");
    EXPECT_EQ(o.at("n"), "2");

    EXPECT_FALSE(parse_json_object_line("", &o));
    EXPECT_FALSE(parse_json_object_line("not json", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":1", &o));
    EXPECT_FALSE(parse_json_object_line("[1,2]", &o));
}

TEST(BenchDiffClassify, HostTokensMarkHostColumnsEverythingElseIsExact)
{
    // Host-measured: a "wall" or "host" token, in any case.
    EXPECT_TRUE(is_host_column("wall_ms"));
    EXPECT_TRUE(is_host_column("host_Mpps"));
    EXPECT_TRUE(is_host_column("host_sim_rate"));
    EXPECT_TRUE(is_host_column("host_speedup"));
    EXPECT_TRUE(is_host_column("Wall time(ms)"));

    // Everything else is simulated and compared exactly, whatever
    // its name says about units, direction or feature.
    for (const char *col :
         {"Thr(Gbps)", "p99(us)", "Offered(Gbps)", "Improvement",
          "speedup", "Threads", "eq_frames", "acct_idle_pct",
          "steer_handoffs", "numa_remote_fills", "park_fills", "To",
          "Why", "hostname", "walls"})
        EXPECT_FALSE(is_host_column(col)) << col;
}

/** kGoldenTable with the cell text @p from replaced by @p to. */
std::string
golden_with(const std::string &from, const std::string &to)
{
    std::string s = kGoldenTable;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
}

TEST(BenchDiffDirs, HostParallelWallMovesFreelyEqGatesExactly)
{
    const char kBase[] =
        "{\"type\":\"meta\",\"bench\":\"host_parallel\","
        "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
        "\"host_speedup\",\"eq_frames\"]}\n"
        "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":900.0,"
        "\"host_speedup\":1.0,\"eq_frames\":12345}\n"
        "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":260.0,"
        "\"host_speedup\":3.46,\"eq_frames\":12345}\n";

    // Wall-clock 3x slower, speedup collapsed: still ok, those are
    // host-side measurements on an arbitrary runner.
    ScratchDir base("base"), cur("cur");
    base.write("host_parallel.json", kBase);
    cur.write("host_parallel.json",
              "{\"type\":\"meta\",\"bench\":\"host_parallel\","
              "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
              "\"host_speedup\",\"eq_frames\"]}\n"
              "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":2700.0,"
              "\"host_speedup\":1.0,\"eq_frames\":12345}\n"
              "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":2650.0,"
              "\"host_speedup\":1.02,\"eq_frames\":12345}\n");
    BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_TRUE(res.ok()) << res.to_string();
    EXPECT_EQ(res.num_exact, 4u);  // Threads and eq_frames, two rows
    EXPECT_EQ(res.cells.size(), 8u);
    // Host cells are reported with their percent change.
    EXPECT_NE(res.to_string().find("+200.00%"), std::string::npos);

    // One frame of drift in an eq_ column fails the gate outright.
    cur.write("host_parallel.json",
              "{\"type\":\"meta\",\"bench\":\"host_parallel\","
              "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
              "\"host_speedup\",\"eq_frames\"]}\n"
              "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":900.0,"
              "\"host_speedup\":1.0,\"eq_frames\":12345}\n"
              "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":260.0,"
              "\"host_speedup\":3.46,\"eq_frames\":12346}\n");
    res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.num_mismatches, 1u);
}

TEST(BenchDiffLoad, TableRoundTrip)
{
    ScratchDir dir("load");
    dir.write("t.json", kGoldenTable);

    BenchTable tab;
    std::string err;
    ASSERT_TRUE(load_bench_table(dir.path() + "/t.json", &tab, &err))
        << err;
    EXPECT_EQ(tab.bench, "t");
    EXPECT_EQ(tab.title, "T");
    ASSERT_EQ(tab.columns.size(), 3u);
    EXPECT_EQ(tab.columns[1], "Thr(Gbps)");
    ASSERT_EQ(tab.rows.size(), 2u);
    EXPECT_EQ(tab.rows[1].at("Thr(Gbps)"), "82.0");

    EXPECT_FALSE(load_bench_table(dir.path() + "/nope.json", &tab, &err));
    dir.write("bad.json", "{\"type\":\"row\"}\n");
    EXPECT_FALSE(load_bench_table(dir.path() + "/bad.json", &tab, &err))
        << "a table without a meta line is malformed";
}

TEST(BenchDiffDirs, SmallMovesFailTheGate)
{
    // 2% more throughput, 3% more p99: each is a changed simulated
    // cell, and the gate has no tolerance for either.
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    cur.write("t.json",
              golden_with("\"Thr(Gbps)\":49.5", "\"Thr(Gbps)\":50.49"));
    BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.num_mismatches, 1u);

    cur.write("t.json",
              golden_with("\"p99(us)\":9.5", "\"p99(us)\":9.785"));
    res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.num_mismatches, 1u);
    // Every cell of the table is compared, input axes included.
    EXPECT_EQ(res.num_exact, 6u);
    const std::string report = res.to_string();
    EXPECT_NE(report.find("MISMATCH"), std::string::npos) << report;
    EXPECT_NE(report.find("9.785"), std::string::npos) << report;
}

TEST(BenchDiffDirs, MovesInEitherDirectionFailTheGate)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    // Row 0: throughput collapsed. Row 1: throughput improved and p99
    // doubled. All three cells mismatch; none is an "improvement".
    cur.write("t.json",
              "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
              "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\","
              "\"p99(us)\"]}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":40.0,"
              "\"p99(us)\":3.0}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":100,"
              "\"Thr(Gbps)\":95.0,\"p99(us)\":19.0}\n");

    const BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    std::vector<std::string> bad;
    for (const auto &c : res.cells)
        if (c.mismatch())
            bad.push_back(c.column + "@" + std::to_string(c.row));
    EXPECT_EQ(bad, (std::vector<std::string>{"Thr(Gbps)@0", "Thr(Gbps)@1",
                                             "p99(us)@1"}));
}

// The four tests below are edits to a fresh artifact that the
// name-token classifier with a percent threshold let through.

TEST(BenchDiffDirs, DroppedColumnFailsTheGate)
{
    // fig10_multicore without its "PacketMill Gbps" column.
    ScratchDir base("base"), cur("cur");
    base.write("fig10.json",
               "{\"type\":\"meta\",\"bench\":\"fig10\",\"title\":\"F\","
               "\"columns\":[\"Cores\",\"Vanilla Gbps\","
               "\"PacketMill Gbps\"]}\n"
               "{\"type\":\"row\",\"Cores\":1,\"Vanilla Gbps\":30.5,"
               "\"PacketMill Gbps\":45.2}\n");
    cur.write("fig10.json",
              "{\"type\":\"meta\",\"bench\":\"fig10\",\"title\":\"F\","
              "\"columns\":[\"Cores\",\"Vanilla Gbps\"]}\n"
              "{\"type\":\"row\",\"Cores\":1,\"Vanilla Gbps\":30.5}\n");
    const BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("column list changed"), std::string::npos)
        << res.errors[0];
    EXPECT_NE(res.errors[0].find("current: Cores, Vanilla Gbps)"),
              std::string::npos)
        << res.errors[0];
}

TEST(BenchDiffDirs, RaisedThroughputFailsTheGate)
{
    // Fig 5a's X-Change column raised 40%, past a 100 G link.
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    cur.write("t.json",
              golden_with("\"Thr(Gbps)\":82.0", "\"Thr(Gbps)\":114.8"));
    const BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.num_mismatches, 1u);
}

TEST(BenchDiffDirs, EditedDecisionFailsTheGate)
{
    // adaptive_control_decisions: one controller decision, with a
    // numeric knob value and a string rationale.
    const std::string meta =
        "{\"type\":\"meta\",\"bench\":\"d\",\"title\":\"D\","
        "\"columns\":[\"Knob\",\"From\",\"To\",\"Why\"]}\n";
    auto row = [](const char *to, const char *why) {
        return std::string("{\"type\":\"row\",\"Knob\":\"burst\","
                           "\"From\":32,\"To\":") +
               to + ",\"Why\":\"" + why + "\"}\n";
    };
    ScratchDir base("base"), cur("cur");
    base.write("d.json", meta + row("16", "p99 above target"));

    cur.write("d.json", meta + row("8", "p99 above target"));
    BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok()) << "numeric decision edited";
    EXPECT_EQ(res.num_mismatches, 1u);

    cur.write("d.json", meta + row("16", "p99 below target"));
    res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok()) << "string decision edited";
    EXPECT_EQ(res.num_mismatches, 1u);

    // Raw values are compared as written: "16.0" is not "16".
    cur.write("d.json", meta + row("16.0", "p99 above target"));
    EXPECT_FALSE(diff_bench_dirs(base.path(), cur.path()).ok());
}

TEST(BenchDiffDirs, FreshArtifactWithoutGoldenFailsTheGate)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    cur.write("t.json", kGoldenTable);
    cur.write("u.json", kGoldenTable);
    // Only .json artifacts count: a .csv or an acct JSONL does not.
    cur.write("t.csv", "a,b\n");
    cur.write("t_acct.jsonl", "{}\n");
    const BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("u: no golden"), std::string::npos)
        << res.errors[0];
}

TEST(BenchDiffDirs, MissingAndMalformedFailTheGate)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    // Current run produced no artifact at all.
    BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.missing.size(), 1u);
    EXPECT_EQ(res.missing[0], "t");

    // Row-count mismatch is an error, not a silent partial diff.
    cur.write("t.json",
              "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
              "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\","
              "\"p99(us)\"]}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.5,"
              "\"p99(us)\":3.0}\n");
    res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("row count"), std::string::npos);

    // A malformed current artifact is an error too.
    cur.write("t.json", "{\"type\":\"row\"\n");
    res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.errors.size(), 1u);

    // An empty golden directory is an error, not a vacuous pass.
    ScratchDir empty("empty");
    EXPECT_FALSE(diff_bench_dirs(empty.path(), empty.path()).ok());
}

TEST(BenchDiffDirs, IdenticalDirsAlwaysPass)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    cur.write("t.json", kGoldenTable);
    const BenchDiffResult res = diff_bench_dirs(base.path(), cur.path());
    EXPECT_TRUE(res.ok()) << res.to_string(true);
    EXPECT_EQ(res.num_exact, 6u);
    EXPECT_EQ(res.num_mismatches, 0u);
}

} // namespace
} // namespace pmill
