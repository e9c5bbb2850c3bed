/**
 * @file
 * Telemetry subsystem tests: registry registration/lookup, the
 * branch-free hot-path counter contract (stable slot pointers),
 * sampler interval math and per-kind column semantics, the JSON
 * Lines writer and reader, and end-to-end engine integration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

#include "src/common/random.hh"
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

// One line per case: each typed append as the readers and the goldens
// expect it, byte for byte.
TEST(Export, WriterCases)
{
    const struct {
        std::function<void(JsonLine &)> append;
        const char *want;
    } cases[] = {
        {[](JsonLine &) {}, "{}"},
        {[](JsonLine &l) { l.str("s", "a\"b"); }, R"({"s":"a\"b"})"},
        {[](JsonLine &l) { l.str("s", "a\\b"); }, R"({"s":"a\\b"})"},
        {[](JsonLine &l) { l.str("s", "a\nb"); }, R"({"s":"a\nb"})"},
        {[](JsonLine &l) { l.str("s", "a\x1f" "b"); }, R"({"s":"a\u001fb"})"},
        {[](JsonLine &l) { l.str("k\"ey", "v"); }, R"({"k\"ey":"v"})"},
        {[](JsonLine &l) { l.num("n", std::nan("")); }, R"({"n":0})"},
        {[](JsonLine &l) { l.num("n", INFINITY); }, R"({"n":0})"},
        {[](JsonLine &l) { l.num("n", -INFINITY); }, R"({"n":0})"},
        {[](JsonLine &l) { l.num("n", 1.0 / 3); }, R"({"n":0.3333333333})"},
        {[](JsonLine &l) { l.num("n", 123456789012.0); },
         R"({"n":1.23456789e+11})"},
        // A double rounds 2^53 + 1; the integer appends do not.
        {[](JsonLine &l) { l.num("n", 9007199254740993.0); },
         R"({"n":9.007199255e+15})"},
        {[](JsonLine &l) { l.uint64("u", 9007199254740993ull); },
         R"({"u":9007199254740993})"},
        {[](JsonLine &l) { l.int64("i", -9007199254740993ll); },
         R"({"i":-9007199254740993})"},
        {[](JsonLine &l) { l.int64("i", -1); }, R"({"i":-1})"},
        {[](JsonLine &l) { l.uint64("u", UINT64_MAX); },
         R"({"u":18446744073709551615})"},
        {[](JsonLine &l) { l.boolean("b", true).boolean("c", false); },
         R"({"b":true,"c":false})"},
        {[](JsonLine &l) { l.cell("c", "1e5"); }, R"({"c":1e5})"},
        {[](JsonLine &l) { l.cell("c", "85%"); }, R"({"c":"85%"})"},
        {[](JsonLine &l) { l.cell("c", "inf"); }, R"({"c":"inf"})"},
        {[](JsonLine &l) { l.cell("c", ""); }, R"({"c":""})"},
        {[](JsonLine &l) { l.strings("l", {}); }, R"({"l":[]})"},
        {[](JsonLine &l) { l.strings("l", {"a", "b,\"c"}); },
         R"({"l":["a","b,\"c"]})"},
        {[](JsonLine &l) { l.str("type", "t").num("x", 2.5); },
         R"({"type":"t","x":2.5})"},
    };
    for (const auto &c : cases) {
        std::ostringstream os;
        JsonLine line(os);
        c.append(line);
        line.end();
        EXPECT_EQ(os.str(), std::string(c.want) + "\n");
    }
}

// Random keys and strings (quotes, backslashes, commas, control and
// high bytes), doubles of at most 10 significant digits (which %.10g
// writes exactly) and any 64-bit integers read back as written.
TEST(Export, RoundTripFuzz)
{
    const std::string alphabet =
        std::string("ab,:\"\\{}[] \n\t\r\x01\x1f\x7f\xc3\xa9") + '\0';
    Xorshift64 rng(0x15CE);
    auto text = [&] {
        std::string s;
        for (std::uint64_t n = rng.next_below(12); n > 0; --n)
            s += alphabet[rng.next_below(alphabet.size())];
        return s;
    };
    for (int iter = 0; iter < 2000; ++iter) {
        const std::string k[] = {text() + "#0", text() + "#1", text() + "#2",
                                 text() + "#3", text() + "#4", text() + "#5"};
        const std::string s = text();
        const double d = std::strtod(
            json_number((rng.next_double() - 0.5) *
                        std::pow(10.0, static_cast<int>(rng.next_below(601)) -
                                           300))
                .c_str(),
            nullptr);
        const std::uint64_t u = rng.next();
        const std::int64_t i = static_cast<std::int64_t>(rng.next());
        const bool b = rng.next_below(2) != 0;
        const std::vector<std::string> list = {text(), text()};

        std::ostringstream os;
        JsonLine(os)
            .str(k[0], s)
            .num(k[1], d)
            .uint64(k[2], u)
            .int64(k[3], i)
            .boolean(k[4], b)
            .strings(k[5], list)
            .end();
        const std::string line = os.str();
        ASSERT_EQ(line.find('\n'), line.size() - 1) << line;

        std::map<std::string, std::string> obj;
        ASSERT_TRUE(parse_json_object_line(line.substr(0, line.size() - 1),
                                           &obj))
            << line;
        EXPECT_EQ(obj.size(), 6u) << line;
        JsonFields f(obj);
        EXPECT_EQ(f.str(k[0]), s) << line;
        EXPECT_EQ(f.num(k[1]), d) << line;
        EXPECT_EQ(f.uint64(k[2]), u) << line;
        EXPECT_EQ(f.int64(k[3]), i) << line;
        EXPECT_EQ(f.str(k[4]), b ? "true" : "false") << line;
        EXPECT_EQ(f.strings(k[5]), list) << line;
        EXPECT_EQ(f.bad(), "") << line;
    }
}

// A column whose name has a comma stays one key.
TEST(Export, JsonlColumnNamesWithCommasRoundTrip)
{
    MetricsRegistry reg;
    CounterHandle c = reg.add_counter("tbl_a,b_inserts");
    Sampler s(reg, 100.0);
    s.start(0.0);
    c.add(4);
    s.advance(100'000.0);

    std::ostringstream os;
    export_jsonl(s.timeline(), os);
    std::istringstream is(os.str());
    std::vector<double> inserts;
    std::string err;
    ASSERT_TRUE(read_jsonl(
        is,
        [&](JsonFields &f, std::string *) {
            EXPECT_EQ(f.raw().size(), 4u);
            EXPECT_EQ(f.str("type"), "sample");
            inserts.push_back(f.num("tbl_a,b_inserts", -1));
            return true;
        },
        &err))
        << err;
    EXPECT_EQ(inserts, (std::vector<double>{4}));
}

// A missing key reads as the caller's default; a present value that is
// malformed for the asked type, or not finite, is named in bad().
TEST(Export, FieldsReadStrictly)
{
    std::map<std::string, std::string> obj;
    ASSERT_TRUE(parse_json_object_line(
        R"({"n":-2.5e3,"big":1e999,"nan":nan,"s":"oops","neg":-1,)"
        R"("frac":2.5,"list":"1,2,3","bad_list":"1,,3","cols":["a","b"],)"
        R"("hex":0x10,"u":18446744073709551615})",
        &obj));
    JsonFields ok(obj);
    EXPECT_EQ(ok.num("missing", 7), 7);
    EXPECT_EQ(ok.str("missing", "d"), "d");
    EXPECT_EQ(ok.num("n"), -2500);
    EXPECT_EQ(ok.int64("neg"), -1);
    EXPECT_EQ(ok.uint64("u"), UINT64_MAX);
    EXPECT_EQ(ok.uint64_list("list"), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(ok.strings("cols"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(ok.bad(), "");

    const std::function<void(JsonFields &)> bad_reads[] = {
        [](JsonFields &f) { f.num("big"); },
        [](JsonFields &f) { f.num("nan"); },
        [](JsonFields &f) { f.num("s"); },
        [](JsonFields &f) { f.num("hex"); },
        [](JsonFields &f) { f.uint64("neg"); },
        [](JsonFields &f) { f.int64("frac"); },
        [](JsonFields &f) { f.uint64_list("bad_list"); },
        [](JsonFields &f) { f.strings("s"); },
    };
    for (const auto &read : bad_reads) {
        JsonFields f(obj);
        read(f);
        EXPECT_NE(f.bad(), "");
    }
    JsonFields first(obj);
    EXPECT_EQ(first.num("s", 3), 3);
    first.num("big");
    EXPECT_EQ(first.bad(), "s");
}

// The stream reader names the line, and the key of a malformed value.
TEST(Export, ReadJsonlNamesTheLineAndKey)
{
    auto error = [](const std::string &text) {
        std::istringstream is(text);
        std::string err;
        const bool ok = read_jsonl(
            is,
            [](JsonFields &f, std::string *why) {
                f.num("x");
                *why = "refused";
                return f.str("type") != "no";
            },
            &err);
        return ok ? std::string() : err;
    };
    EXPECT_EQ(error("{\"x\":1}\n\n{\"x\":2}\n"), "");
    EXPECT_EQ(error("{\"x\":1}\n\n{\"x\":\"y\"}\n"),
              "line 3: malformed value for 'x'");
    EXPECT_EQ(error("{\"x\":1}\n{\"x\":1} trailing\n"),
              "line 2 is not a JSON object");
    EXPECT_EQ(error("{\"type\":\"no\"}\n"), "line 1: refused");
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

TEST(EngineTelemetry, PerElementStatsMatchTheTracedDeltas)
{
    // element_stats() reads each element's ledger scope. The traced
    // kElementExit records carry the ExecContext counter deltas around
    // every invocation: an independent accrual of the same window.
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(),
                  default_campus_trace());
    TracerConfig tc;
    tc.sample_rate = 1.0;
    engine.enable_tracing(tc);
    RunConfig rc;
    rc.offered_gbps = 20.0;
    rc.warmup_us = 0;  // cold caches: every element stalls
    rc.duration_us = 200;
    engine.run(rc);
    const Tracer &tr = *engine.tracer();
    ASSERT_EQ(tr.overwritten(), 0u) << "the ring must hold the window";

    const std::vector<Element *> elems = engine.pipeline().elements();
    std::vector<double> cycles(elems.size(), 0.0);
    std::vector<double> mem_ns(elems.size(), 0.0);
    for (std::size_t k = 0; k < tr.size(); ++k) {
        const TraceRecord &rec = tr.at(k);
        if (rec.kind != TraceEventKind::kElementExit)
            continue;
        std::size_t i = 0;
        while (i < elems.size() &&
               elems[i]->name() != tr.span_name(rec.span))
            ++i;
        ASSERT_LT(i, elems.size()) << tr.span_name(rec.span);
        cycles[i] += rec.cycles;
        mem_ns[i] += rec.dur_ns - rec.cycles / m.freq_ghz;
    }

    const std::vector<ElementStats> stats = engine.element_stats();
    ASSERT_EQ(stats.size(), elems.size());
    std::size_t with_stalls = 0;
    for (std::size_t i = 0; i < elems.size(); ++i) {
        EXPECT_NEAR(stats[i].cycles, cycles[i], 1e-6 * cycles[i])
            << elems[i]->name();
        EXPECT_NEAR(stats[i].mem_ns, mem_ns[i], 1e-6 * mem_ns[i])
            << elems[i]->name();
        if (mem_ns[i] > 0)
            ++with_stalls;
    }
    EXPECT_GT(with_stalls, elems.size() / 2)
        << "most elements must stall for the check to mean anything";
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
