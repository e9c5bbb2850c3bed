/**
 * @file
 * Telemetry subsystem tests: registry registration/lookup, the
 * branch-free hot-path counter contract (stable slot pointers),
 * sampler interval math and per-kind column semantics, exporter
 * round-trips, and end-to-end engine integration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/export.hh"
#include "src/telemetry/metrics.hh"
#include "src/telemetry/sampler.hh"

namespace pmill {
namespace {

TEST(MetricsRegistry, RegistrationAndLookup)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    reg.add_gauge("occ", [] { return 0.5; });
    reg.add_probe_counter("ext", [] { return 7.0; });

    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.find("pkts"), 0);
    EXPECT_EQ(reg.find("occ"), 1);
    EXPECT_EQ(reg.find("ext"), 2);
    EXPECT_EQ(reg.find("nope"), -1);
    EXPECT_EQ(reg.name(0), "pkts");
    EXPECT_EQ(reg.kind(0), MetricKind::kCounter);
    EXPECT_EQ(reg.kind(1), MetricKind::kGauge);

    c.inc();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);
    EXPECT_DOUBLE_EQ(reg.read(0), 10.0);
    EXPECT_DOUBLE_EQ(reg.read(1), 0.5);
    EXPECT_DOUBLE_EQ(reg.read(2), 7.0);
}

// The hot-path contract: a CounterHandle is a bare slot pointer that
// stays valid no matter how many metrics are registered afterwards.
// This is what makes the per-packet increment branch-free (one add
// through a cached pointer, no lookup).
TEST(MetricsRegistry, SlotPointersSurviveGrowth)
{
    static_assert(sizeof(CounterHandle) == sizeof(std::uint64_t *),
                  "handle must stay a bare pointer");
    MetricsRegistry reg;
    CounterHandle first = reg.add_counter("first");
    std::uint64_t *addr = first.slot;
    for (int i = 0; i < 200; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        reg.add_counter(name).inc();
    }
    first.add(3);
    EXPECT_EQ(first.slot, addr) << "slot address must never move";
    EXPECT_DOUBLE_EQ(reg.read(0), 3.0);
}

TEST(MetricsRegistry, HistogramsAreOwnedAndNamed)
{
    MetricsRegistry reg;
    Histogram *h = reg.add_histogram("lat", 100.0, 64);
    ASSERT_NE(h, nullptr);
    h->record(5.0);
    ASSERT_EQ(reg.histograms().size(), 1u);
    EXPECT_EQ(reg.histograms()[0].name, "lat");
    EXPECT_EQ(reg.histograms()[0].hist->count(), 1u);
}

TEST(Sampler, IntervalMathAndCounterDeltas)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    Sampler s(reg, 100.0);  // 100 us interval

    s.start(1'000'000.0);  // t0 = 1 ms, in ns
    c.add(10);
    s.advance(1'100'000.0);  // first boundary
    c.add(20);
    s.advance(1'300'000.0);  // crosses two boundaries at once

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 3u);
    EXPECT_DOUBLE_EQ(tl.rows[0].t_us, 100.0);
    EXPECT_DOUBLE_EQ(tl.rows[0].dt_us, 100.0);
    EXPECT_DOUBLE_EQ(tl.rows[1].t_us, 200.0);
    EXPECT_DOUBLE_EQ(tl.rows[2].t_us, 300.0);

    // Counter column = per-interval delta; the sum of deltas equals
    // the cumulative count since start().
    EXPECT_DOUBLE_EQ(tl.value(0, "pkts"), 10.0);
    EXPECT_DOUBLE_EQ(tl.value(1, "pkts") + tl.value(2, "pkts"), 20.0);
}

TEST(Sampler, BaselinesCountersAtStart)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    c.add(1000);  // warm-up traffic before measurement starts
    Sampler s(reg, 50.0);
    s.start(0.0);
    c.add(5);
    s.advance(50'000.0);
    ASSERT_EQ(s.timeline().rows.size(), 1u);
    EXPECT_DOUBLE_EQ(s.timeline().value(0, "pkts"), 5.0)
        << "pre-start counts must not leak into the first interval";
}

TEST(Sampler, RateAndRatioColumns)
{
    MetricsRegistry reg;
    CounterHandle bits = reg.add_counter("bits");
    CounterHandle ins = reg.add_counter("ins");
    CounterHandle cyc = reg.add_counter("cyc");
    reg.add_rate("gbps", "bits", 1e-9);
    reg.add_ratio("ipc", "ins", "cyc");

    Sampler s(reg, 100.0);
    s.start(0.0);
    bits.add(1'000'000);  // 1e6 bits in 100 us -> 1e10 bit/s -> 10 Gbps
    ins.add(300);
    cyc.add(200);
    s.advance(100'000.0);

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 1u);
    EXPECT_NEAR(tl.value(0, "gbps"), 10.0, 1e-9);
    EXPECT_NEAR(tl.value(0, "ipc"), 1.5, 1e-12);
}

TEST(Sampler, HistogramPercentileColumnsDrainEachInterval)
{
    MetricsRegistry reg;
    Histogram *h = reg.add_histogram("lat", 1000.0, 1000);
    Sampler s(reg, 100.0);
    s.start(0.0);

    for (int i = 0; i < 100; ++i)
        h->record(static_cast<double>(i));
    s.advance(100'000.0);
    // Second interval sees only its own samples.
    h->record(500.0);
    s.advance(200'000.0);

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 2u);
    EXPECT_GE(tl.column("p50_lat"), 0);
    EXPECT_GE(tl.column("p99_lat"), 0);
    EXPECT_NEAR(tl.value(0, "p50_lat"), 50.0, 2.0);
    EXPECT_NEAR(tl.value(0, "p99_lat"), 99.0, 2.0);
    EXPECT_NEAR(tl.value(1, "p50_lat"), 500.0, 2.0);
}

TEST(Export, JsonEscapingAndNumbers)
{
    EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(json_number(1.5), "1.5");
    EXPECT_EQ(json_number(0.0), "0");
    // Non-finite values must degrade to a valid JSON number.
    EXPECT_EQ(json_number(1.0 / 0.0), "0");
}

TEST(Export, JsonEscapesEveryControlCharacter)
{
    // Named escapes for the common whitespace controls...
    EXPECT_EQ(json_escape("a\tb"), "a\\tb");
    EXPECT_EQ(json_escape("a\rb"), "a\\rb");
    EXPECT_EQ(json_escape("a\nb"), "a\\nb");
    // ...\uXXXX for the rest of C0 (raw control bytes are invalid in
    // JSON strings).
    EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
    EXPECT_EQ(json_escape(std::string("a\x1f") + "b"), "a\\u001fb");
    std::string nul = "a";
    nul.push_back('\0');
    nul += "b";
    EXPECT_EQ(json_escape(nul), "a\\u0000b");
    // Quote and backslash, adjacent (the order of escaping matters).
    EXPECT_EQ(json_escape("\\\""), "\\\\\\\"");
    // Printable ASCII and bytes >= 0x20 pass through untouched.
    EXPECT_EQ(json_escape("plain ~text"), "plain ~text");
}

TEST(Export, CsvQuoting)
{
    std::ostringstream os;
    write_csv_record(os, {"plain", "has,comma", "has\"quote"});
    EXPECT_EQ(os.str(), "plain,\"has,comma\",\"has\"\"quote\"\n");
}

TEST(Export, CsvQuotesNewlinesAndQuotesCombined)
{
    std::ostringstream os;
    write_csv_record(os, {"line\nbreak", "a\"b,c", ""});
    EXPECT_EQ(os.str(), "\"line\nbreak\",\"a\"\"b,c\",\n");
}

TEST(Export, CsvQuotesColumnNamesWithCommas)
{
    // A metric named with a comma must round-trip through the CSV
    // header as one quoted cell, not silently split into two columns.
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("tbl_a,b_inserts");
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(4);
    s.advance(100'000.0);

    std::ostringstream os;
    export_csv(s.timeline(), os);
    std::istringstream is(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header, "t_us,dt_us,partial,\"tbl_a,b_inserts\"");
    std::string row;
    ASSERT_TRUE(std::getline(is, row));
    EXPECT_EQ(row, "100,100,0,4");
}

Timeline
make_test_timeline()
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    reg.add_gauge("occ", [] { return 0.25; });
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(7);
    s.advance(100'000.0);
    c.add(3);
    s.advance(200'000.0);
    return s.timeline();
}

TEST(Export, JsonlRoundTrip)
{
    const Timeline tl = make_test_timeline();
    std::ostringstream os;
    export_jsonl(tl, os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        EXPECT_NE(line.find("\"type\":\"sample\""), std::string::npos);
        EXPECT_NE(line.find("\"t_us\":"), std::string::npos);
        EXPECT_NE(line.find("\"pkts\":"), std::string::npos);
        EXPECT_NE(line.find("\"occ\":0.25"), std::string::npos);
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, tl.rows.size());
    EXPECT_NE(os.str().find("\"pkts\":7"), std::string::npos);
    EXPECT_NE(os.str().find("\"pkts\":3"), std::string::npos);
}

TEST(Export, CsvRoundTrip)
{
    const Timeline tl = make_test_timeline();
    std::ostringstream os;
    export_csv(tl, os);
    std::istringstream is(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header, "t_us,dt_us,partial,pkts,occ");
    std::string row;
    ASSERT_TRUE(std::getline(is, row));
    EXPECT_EQ(row, "100,100,0,7,0.25");
    ASSERT_TRUE(std::getline(is, row));
    EXPECT_EQ(row, "200,100,0,3,0.25");
}

TEST(Sampler, FinishFlushesTrailingPartialInterval)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(10);
    s.advance(100'000.0);  // one whole interval
    c.add(3);
    s.finish(130'000.0);  // run ends 30 us into the next interval

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 2u);
    EXPECT_FALSE(tl.rows[0].partial);
    EXPECT_DOUBLE_EQ(tl.value(0, "pkts"), 10.0);
    // The flushed tail: explicitly marked, short, and it carries the
    // counts that previously vanished.
    EXPECT_TRUE(tl.rows[1].partial);
    EXPECT_DOUBLE_EQ(tl.rows[1].t_us, 130.0);
    EXPECT_DOUBLE_EQ(tl.rows[1].dt_us, 30.0);
    EXPECT_DOUBLE_EQ(tl.value(1, "pkts"), 3.0);
}

TEST(Sampler, FinishOnExactBoundaryAddsNoPartialRow)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(5);
    s.advance(100'000.0);
    s.finish(200'000.0);  // lands exactly on boundary 2

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 2u);
    EXPECT_FALSE(tl.rows[0].partial);
    EXPECT_FALSE(tl.rows[1].partial)
        << "an exact-boundary finish must not fabricate a zero-width row";
}

TEST(Sampler, PartialRowMarkedInExports)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(2);
    s.finish(40'000.0);

    std::ostringstream js;
    export_jsonl(s.timeline(), js);
    EXPECT_NE(js.str().find("\"partial\":true"), std::string::npos);

    std::ostringstream cs;
    export_csv(s.timeline(), cs);
    std::istringstream is(cs.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(is, header));
    ASSERT_TRUE(std::getline(is, row));
    EXPECT_EQ(row, "40,40,1,2");
}

TEST(EngineTelemetry, TimelineCoversMeasuredWindow)
{
    Trace t = make_fixed_size_trace(512, 512, 64);
    MachineConfig m;
    m.freq_ghz = 2.3;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 200;
    rc.duration_us = 1200;
    rc.sample_interval_us = 100;
    RunResult r = engine.run(rc);

    const Timeline &tl = engine.timeline();
    ASSERT_GE(tl.rows.size(), 10u);

    // Every acceptance column exists.
    for (const char *col :
         {"llc_loads", "llc_misses", "ipc", "throughput_gbps", "mpps",
          "ring_occupancy", "mempool_occupancy", "rx_drops",
          "p50_latency_us", "p99_latency_us"})
        EXPECT_GE(tl.column(col), 0) << "missing column " << col;

    double tx_sum = 0, thr_acc = 0;
    for (std::size_t i = 0; i < tl.rows.size(); ++i) {
        tx_sum += tl.value(i, "tx_pkts");
        thr_acc += tl.value(i, "throughput_gbps");
        const double occ = tl.value(i, "ring_occupancy");
        EXPECT_GE(occ, 0.0);
        EXPECT_LE(occ, 1.0);
        const double pool = tl.value(i, "mempool_occupancy");
        EXPECT_GE(pool, 0.0);
        EXPECT_LE(pool, 1.0);
    }
    // Interval deltas sum to the run totals.
    EXPECT_EQ(static_cast<std::uint64_t>(tx_sum), r.tx_pkts);
    // The mean of per-interval rates tracks the aggregate throughput.
    EXPECT_NEAR(thr_acc / static_cast<double>(tl.rows.size()),
                r.throughput_gbps, r.throughput_gbps * 0.1 + 0.5);
    // IPC sampled per interval stays in a sane range.
    EXPECT_GT(tl.value(0, "ipc"), 0.0);
    EXPECT_LT(tl.value(0, "ipc"), 8.0);
}

TEST(EngineTelemetry, SamplingDisabledLeavesTimelineEmpty)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    rc.sample_interval_us = 0;
    engine.run(rc);
    EXPECT_TRUE(engine.timeline().empty());
}

TEST(EngineTelemetry, PerElementStatsAccumulate)
{
    Trace t = make_fixed_size_trace(512, 512, 64);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 20.0;
    rc.warmup_us = 100;
    rc.duration_us = 600;
    RunResult r = engine.run(rc);
    ASSERT_GT(r.tx_pkts, 0u);

    const std::vector<ElementStats> stats = engine.element_stats();
    ASSERT_EQ(stats.size(), engine.pipeline().elements().size());
    std::uint64_t total_pkts = 0;
    double total_cycles = 0;
    for (const ElementStats &es : stats) {
        total_pkts += es.packets;
        total_cycles += es.cycles;
    }
    EXPECT_GT(total_pkts, r.tx_pkts)
        << "packets traverse several elements each";
    EXPECT_GT(total_cycles, 0.0);
}

TEST(Sampler, SchemaIsFrozenAtConstruction)
{
    MetricsRegistry reg;
    CounterHandle a = reg.add_counter("early");
    Sampler s(reg, 100.0);

    // Registered after the sampler was built: outside the schema.
    CounterHandle b = reg.add_counter("late");
    Histogram *h = reg.add_histogram("late_hist", 100.0, 64);

    s.start(0.0);
    a.add(3);
    b.add(999);
    h->record(1.0);
    s.advance(250'000.0);

    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 2u);
    ASSERT_EQ(tl.columns.size(), 1u)
        << "late registrations must not add columns";
    for (const TimelineRow &row : tl.rows)
        EXPECT_EQ(row.values.size(), tl.columns.size())
            << "every row must align with the ctor-time schema";
    EXPECT_DOUBLE_EQ(tl.value(0, "early"), 3.0);
    EXPECT_EQ(tl.column("late"), -1);
    EXPECT_EQ(tl.column("p50_late_hist"), -1);
}

TEST(Sampler, BoundariesAreIntegerNanoseconds)
{
    MetricsRegistry reg;
    reg.add_counter("pkts");
    // 1.5 ns nominal interval: must round to exactly 2 ns, not drift
    // along at fractional-ns boundaries.
    Sampler s(reg, 0.0015);
    s.start(0.0);
    s.advance(30.0);
    const Timeline &tl = s.timeline();
    ASSERT_EQ(tl.rows.size(), 15u)
        << "30 ns at a 2-ns rounded interval is exactly 15 rows";
    for (std::size_t i = 0; i < tl.rows.size(); ++i) {
        EXPECT_DOUBLE_EQ(tl.rows[i].t_us,
                         static_cast<double>(i + 1) * 0.002);
        EXPECT_DOUBLE_EQ(tl.rows[i].dt_us, 0.002);
    }
}

TEST(Sampler, SubNanosecondIntervalRejected)
{
    MetricsRegistry reg;
    EXPECT_DEATH({ Sampler s(reg, 0.0002); }, "round");
}

TEST(TimelineLookup, UnknownColumnIsNotSilentlyZero)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("pkts");
    Sampler s(reg, 10.0);
    s.start(0.0);
    c.add(4);
    s.advance(10'000.0);
    const Timeline &tl = s.timeline();

    EXPECT_FALSE(tl.try_value(0, "no_such_metric").has_value());
    EXPECT_FALSE(tl.try_value(7, "pkts").has_value());
    ASSERT_TRUE(tl.try_value(0, "pkts").has_value());
    EXPECT_DOUBLE_EQ(*tl.try_value(0, "pkts"), 4.0);

    EXPECT_DEATH({ (void)tl.value(0, "no_such_metric"); }, "unknown");
    EXPECT_DEATH({ (void)tl.value(7, "pkts"); }, "out of range");
}

} // namespace
} // namespace pmill
