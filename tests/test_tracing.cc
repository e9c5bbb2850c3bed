/**
 * @file
 * Tracing subsystem tests: ring wraparound and overwrite-oldest
 * semantics, deterministic head-sampling, packet-lifecycle
 * reconstruction across a multi-element pipeline, tail-latency
 * attribution, Chrome-trace export well-formedness, and the
 * zero-events-when-disabled contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/tracing/lifecycle.hh"
#include "src/tracing/trace_export.hh"
#include "src/tracing/tracer.hh"

namespace pmill {
namespace {

std::size_t
count_occurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t p = hay.find(needle); p != std::string::npos;
         p = hay.find(needle, p + needle.size()))
        ++n;
    return n;
}

TEST(Tracer, RingWrapsAndOverwritesOldest)
{
    TracerConfig cfg;
    cfg.capacity = 8;  // already a power of two
    Tracer t(cfg);
    ASSERT_EQ(t.capacity(), 8u);

    // Fill partially: chronological order, nothing lost.
    for (std::uint32_t i = 0; i < 5; ++i)
        t.record(TraceEventKind::kRxBurst, 100.0 * i, 0, 0, 0, i);
    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(t.overwritten(), 0u);
    EXPECT_EQ(t.at(0).arg, 0u);
    EXPECT_EQ(t.at(4).arg, 4u);

    // Overflow: 13 total records into 8 slots -> the oldest 5 are gone
    // and at() still walks oldest-first.
    for (std::uint32_t i = 5; i < 13; ++i)
        t.record(TraceEventKind::kRxBurst, 100.0 * i, 0, 0, 0, i);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.total_recorded(), 13u);
    EXPECT_EQ(t.overwritten(), 5u);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.at(i).arg, 5u + i);
        EXPECT_DOUBLE_EQ(t.at(i).t_ns, 100.0 * (5 + i));
    }
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo)
{
    TracerConfig cfg;
    cfg.capacity = 100;
    Tracer t(cfg);
    EXPECT_EQ(t.capacity(), 128u);
}

TEST(Tracer, ClearResetsRecordsButKeepsSpans)
{
    Tracer t(TracerConfig{});
    const std::uint16_t s = t.intern("rt");
    t.record(TraceEventKind::kTx, 1, t.next_packet_id(),
             t.next_batch_id(), s, 0);
    ASSERT_EQ(t.size(), 1u);

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.total_recorded(), 0u);
    EXPECT_EQ(t.span_name(s), "rt");
    // Ids restart so packet 1 in a cleared ring is the first sampled.
    EXPECT_EQ(t.next_packet_id(), 1u);
}

TEST(Tracer, InternIsIdempotent)
{
    Tracer t(TracerConfig{});
    const std::uint16_t a = t.intern("class");
    const std::uint16_t b = t.intern("rt");
    EXPECT_NE(a, 0);  // span 0 is reserved for ""
    EXPECT_NE(a, b);
    EXPECT_EQ(t.intern("class"), a);
    EXPECT_EQ(t.span_name(a), "class");
    EXPECT_EQ(t.span_name(0), "");
}

TEST(Tracer, SamplingIsDeterministicUnderFixedSeed)
{
    TracerConfig cfg;
    cfg.sample_rate = 0.1;
    cfg.seed = 42;
    Tracer a(cfg), b(cfg);

    std::size_t hits = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool da = a.sample_packet();
        const bool db = b.sample_packet();
        ASSERT_EQ(da, db) << "same seed must make identical decisions";
        hits += da;
    }
    // 10%% +- a loose band; the RNG is fixed so this cannot flake.
    EXPECT_GT(hits, 700u);
    EXPECT_LT(hits, 1300u);

    cfg.seed = 7;
    Tracer c(cfg);
    bool any_diff = false;
    a = Tracer(cfg), b = Tracer(TracerConfig{});
    for (int i = 0; i < 1000 && !any_diff; ++i)
        any_diff = c.sample_packet() != b.sample_packet();
    EXPECT_TRUE(any_diff) << "different seeds should diverge";
}

TEST(Tracer, SampleRateEdgeCases)
{
    TracerConfig cfg;
    cfg.sample_rate = 1.0;
    Tracer all(cfg);
    cfg.sample_rate = 0.0;
    Tracer none(cfg);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(all.sample_packet());
        EXPECT_FALSE(none.sample_packet());
    }
}

TEST(Tracer, DisabledTracerRecordsNothingThroughMacro)
{
    Tracer t(TracerConfig{});
    t.set_enabled(false);
    Tracer *tp = &t;
    EXPECT_FALSE(PMILL_TRACE_ON(tp));
    PMILL_TRACE(tp, TraceEventKind::kTx, 1.0, 1, 1, 0, 0);
    EXPECT_EQ(t.size(), 0u);

    Tracer *null_tracer = nullptr;
    EXPECT_FALSE(PMILL_TRACE_ON(null_tracer));
    PMILL_TRACE(null_tracer, TraceEventKind::kTx, 1.0, 1, 1, 0, 0);

    t.set_enabled(true);
    PMILL_TRACE(tp, TraceEventKind::kTx, 1.0, 1, 1, 0, 0);
    EXPECT_EQ(t.size(), 1u);
}

/** Short traced router run shared by the engine-level tests. */
RunResult
traced_router_run(Engine *engine, double sample_rate = 1.0)
{
    TracerConfig tc;
    tc.sample_rate = sample_rate;
    engine->enable_tracing(tc);
    RunConfig rc;
    rc.offered_gbps = 20.0;
    rc.warmup_us = 100;
    rc.duration_us = 400;
    return engine->run(rc);
}

TEST(TracingEngine, LifecyclesSpanTheWholePipeline)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    traced_router_run(&engine);

    const std::vector<PacketLifecycle> lcs =
        build_lifecycles(*engine.tracer());
    ASSERT_FALSE(lcs.empty());

    std::size_t complete = 0;
    for (const PacketLifecycle &lc : lcs) {
        if (!lc.complete)
            continue;
        ++complete;
        EXPECT_GT(lc.tx_ns, lc.rx_ns);
        EXPECT_GT(lc.latency_us(), 0.0);
        // The router's forwarding path visits at least classifier,
        // checker, lookup, TTL, rewrite, output.
        EXPECT_GE(lc.stages.size(), 4u);
        EXPECT_GT(lc.pipeline_us(), 0.0);
        EXPECT_LE(lc.pipeline_us(), lc.latency_us() + 1e-9);
        // Stage exits are chronologically ordered.
        for (std::size_t i = 1; i < lc.stages.size(); ++i)
            EXPECT_GE(lc.stages[i].t_ns, lc.stages[i - 1].t_ns);
    }
    EXPECT_GT(complete, 50u);

    // Lifecycle stage names must resolve to real pipeline elements.
    const Tracer &tr = *engine.tracer();
    for (const PacketLifecycle &lc : lcs)
        for (const LifecycleStage &st : lc.stages)
            EXPECT_FALSE(tr.span_name(st.span).empty());
}

TEST(TracingEngine, SamplingThinsLifecyclesDeterministically)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;

    auto count_sampled = [&](double rate) {
        Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
        traced_router_run(&engine, rate);
        return build_lifecycles(*engine.tracer()).size();
    };

    const std::size_t full = count_sampled(1.0);
    const std::size_t tenth = count_sampled(0.1);
    const std::size_t tenth2 = count_sampled(0.1);
    ASSERT_GT(full, 100u);
    EXPECT_LT(tenth, full / 4);
    EXPECT_GT(tenth, 0u);
    EXPECT_EQ(tenth, tenth2) << "same seed, same run, same sample set";
}

TEST(TracingEngine, TailAttributionCoversLatency)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    const RunResult r = traced_router_run(&engine);

    const TailAttribution ta = engine.tail_attribution();
    EXPECT_DOUBLE_EQ(ta.threshold_us, r.p99_latency_us);
    ASSERT_GT(ta.num_complete, 0u);
    EXPECT_GT(ta.num_tail, 0u);
    EXPECT_LT(ta.num_tail, ta.num_complete);
    ASSERT_FALSE(ta.rows.empty());
    EXPECT_FALSE(ta.dominant_stage.empty());
    EXPECT_FALSE(ta.dominant_element.empty());

    // Rows sorted by excess, descending; shares of the positive
    // excess sum to ~100.
    double share = 0;
    for (std::size_t i = 0; i < ta.rows.size(); ++i) {
        if (i) {
            EXPECT_LE(ta.rows[i].excess_us, ta.rows[i - 1].excess_us);
        }
        if (ta.rows[i].excess_us > 0)
            share += ta.rows[i].share_pct;
    }
    EXPECT_NEAR(share, 100.0, 1.0);

    // JSONL form: one meta line plus one line per row.
    std::ostringstream os;
    ta.write_jsonl(os);
    EXPECT_EQ(count_occurrences(os.str(), "\"type\":\"tail_attribution\""),
              1u);
    EXPECT_EQ(count_occurrences(os.str(), "\"type\":\"tail_stage\""),
              ta.rows.size());
}

TEST(TracingEngine, ChromeTraceIsBalanced)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    traced_router_run(&engine);

    std::ostringstream os;
    export_chrome_trace(*engine.tracer(), os);
    const std::string json = os.str();

    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);

    // Every duration begin has exactly one end, and async begins pair
    // with async ends (the Perfetto loader rejects dangling events).
    const std::size_t b = count_occurrences(json, "\"ph\":\"B\"");
    const std::size_t e = count_occurrences(json, "\"ph\":\"E\"");
    EXPECT_GT(b, 0u);
    EXPECT_EQ(b, e);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""),
              count_occurrences(json, "\"ph\":\"e\""));

    // Braces balance (cheap well-formedness proxy: no exporter string
    // contains braces).
    long depth = 0;
    for (char c : json) {
        depth += c == '{';
        depth -= c == '}';
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(TracingEngine, JsonlExportsOneLinePerRecord)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    traced_router_run(&engine);

    std::ostringstream os;
    export_trace_jsonl(*engine.tracer(), os);
    EXPECT_EQ(count_occurrences(os.str(), "\n"),
              engine.tracer()->size());
    EXPECT_EQ(count_occurrences(os.str(), "{\"kind\":"),
              engine.tracer()->size());
}

TEST(TracingEngine, NoTracingByDefault)
{
    Trace t = make_fixed_size_trace(256, 128, 8);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    EXPECT_EQ(engine.tracer(), nullptr);

    RunConfig rc;
    rc.offered_gbps = 5.0;
    rc.warmup_us = 0;
    rc.duration_us = 200;
    const RunResult r = engine.run(rc);
    EXPECT_GT(r.tx_pkts, 0u);
    EXPECT_EQ(engine.tracer(), nullptr);
    EXPECT_TRUE(engine.tail_attribution().rows.empty());
}

TEST(TracingEngine, RingHoldsOnlyMeasuredWindow)
{
    // Warmup events are cleared at measurement start, so the oldest
    // surviving record cannot predate the warmup boundary.
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    TracerConfig tc;
    engine.enable_tracing(tc);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 200;
    rc.duration_us = 300;
    engine.run(rc);

    const Tracer &tr = *engine.tracer();
    ASSERT_GT(tr.size(), 0u);
    EXPECT_GE(tr.at(0).t_ns, 200e3 * 0.99);
}

} // namespace
} // namespace pmill
