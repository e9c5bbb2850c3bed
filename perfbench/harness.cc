/**
 * @file
 * One repetition of a named simulator workload, measured from outside.
 *
 * The harness drives the public API exactly as a user program would:
 * build the input (WorkloadSpec::parse or make_campus_trace), construct
 * the Engine, PacketMill::grind it, Engine::run it, tear it down. Each
 * phase is wrapped in a span (name, start, end, parent, run id) kept in
 * memory. After the run it reads every module's public counters and
 * prints one JSON object on stdout; run.py turns repetitions into
 * metrics and checks them for correctness. A fixed host reference
 * kernel (host_ref_ns) is timed before the input is built and after
 * teardown, so run.py can factor the shared host's speed out of the
 * repetition's times.
 *
 * With --replays the harness also times standalone calls into single
 * layers after the engine is gone, so they cannot perturb Engine::run:
 * WorkloadSource::next_frame over the run's frame count, Dir24_8
 * construction plus the router's routes (one table per IPLookup), and
 * CacheHierarchy::access over an L1-resident and an LLC-exceeding
 * working set. With --spans the span log is appended to PATH at exit.
 *
 * Usage:
 *   pmill_perfbench --workload NAME --seed N [--host-threads T]
 *                   [--replays] [--spans PATH] [--run-id K]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/nic/nic_device.hh"
#include "src/runtime/experiments.hh"
#include "src/table/lpm.hh"
#include "src/trace/trace.hh"
#include "src/tracing/tracer.hh"
#include "src/workload/workload.hh"

using namespace pmill;

namespace {

using Clock = std::chrono::steady_clock;

/** In-memory span log; spans nest through an explicit parent stack. */
class SpanLog {
  public:
    struct Rec {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    int
    open(const std::string &name)
    {
        Rec r;
        r.name = name;
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.start = now();
        recs_.push_back(r);
        stack_.push_back(static_cast<int>(recs_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        recs_[id].end = now();
        stack_.pop_back();
    }

    double dur(int id) const { return recs_[id].end - recs_[id].start; }

    bool
    write(const std::string &path, int run_id) const
    {
        FILE *f = std::fopen(path.c_str(), "a");
        if (!f)
            return false;
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const Rec &r = recs_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                         "\"end\": %.9f, \"parent\": %d, \"run\": %d}\n",
                         i, r.name.c_str(), r.start, r.end, r.parent, run_id);
        }
        return std::fclose(f) == 0;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Rec> recs_;
    std::vector<int> stack_;
};

/** RAII span: open on construction, close on destruction. */
class Span {
  public:
    Span(SpanLog &log, const char *name) : log_(log), id_(log.open(name)) {}
    ~Span() { log_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/** One named workload: NF, pipeline options, topology and traffic. */
struct Workload {
    const char *name = "";
    std::string config;
    PipelineOpts opts;
    std::uint32_t cores = 1;
    std::uint32_t host_threads = 0;
    double offered_gbps = 100.0;
    /// Workload spec template ("%llu" receives the seed); empty means
    /// campus-trace replay.
    const char *spec_fmt = "";
    CampusTraceConfig trace;
};

bool
find_workload(const std::string &name, std::uint64_t seed, Workload *w)
{
    if (name == "router-64b-overload") {
        *w = Workload{"router-64b-overload", router_config(),
                      opts_packetmill(), 1, 0, 100.0,
                      "uniform:flows=65536,len=64,seed=%llu", {}};
    } else if (name == "nat-zipf-4core") {
        *w = Workload{"nat-zipf-4core", nat_aging_config(32, 65536, 1.0),
                      opts_packetmill(), 4, 2, 24.0,
                      "zipf:flows=1000000,skew=1.1,burst=8,seed=%llu", {}};
    } else if (name == "router-campus-trace") {
        *w = Workload{"router-campus-trace", router_config(), opts_vanilla(),
                      1, 0, 70.0, "", {}};
        w->trace.num_packets = 4096;
        w->trace.num_flows = 1024;
    } else {
        return false;
    }
    w->trace.seed = seed;
    return true;
}

/** router_config()'s IPLookup table, as Dir24_8 routes. */
std::vector<Route>
router_routes()
{
    std::vector<Route> routes;
    for (std::uint8_t top : {20, 21, 22, 23, 10})
        routes.push_back({Ipv4Addr::make(top, 0, 0, 0), 8, 0});
    routes.push_back({Ipv4Addr::make(0, 0, 0, 0), 0, 0});
    return routes;
}

/**
 * Frames the engine's cyclic replay of @p trace offers one NIC before
 * @p end_ns, counted without the engine: the generator's own pacing,
 * where each frame starts (len + wire overhead) * 8 / offered ns after
 * the one before it. Checks the NIC's counters on trace workloads.
 */
std::uint64_t
trace_arrivals(const Trace &trace, double offered_gbps, TimeNs end_ns)
{
    std::uint64_t n = 0;
    TimeNs start = 0;
    for (std::size_t i = 0; start < end_ns; i = (i + 1) % trace.size()) {
        const double wire_bits =
            static_cast<double>((trace.len(i) + kWireOverheadBytes) * 8);
        start += wire_bits / offered_gbps;
        ++n;
    }
    return n;
}

std::string
bits_hex(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return strprintf("%016llx", static_cast<unsigned long long>(b));
}

/** Minimal flat JSON object writer (numbers and strings only). */
class JsonOut {
  public:
    void
    num(const char *key, double v)
    {
        field(key, strprintf("%.17g", v));
    }

    void
    u64(const char *key, std::uint64_t v)
    {
        field(key, strprintf("%llu", static_cast<unsigned long long>(v)));
    }

    void
    str(const char *key, const std::string &v)
    {
        field(key, "\"" + v + "\"");
    }

    void
    raw(const char *key, const std::string &v)
    {
        field(key, v);
    }

    std::string done() const { return "{" + body_ + "}"; }

  private:
    void
    field(const char *key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += strprintf("\"%s\": ", key) + v;
    }

    std::string body_;
};

/** Counters read from the engine's public surface after run(). */
struct Counters {
    RunResult r;
    NicStats nic;
    std::uint64_t gen_frames = 0;
    bool streaming = false;
    MemStats mem;  ///< cumulative over warm-up + window, summed over cores
    std::uint64_t lpm_instances = 0;
    std::uint64_t timeline_rows = 0;
    double flow_inserts = 0, flow_evictions = 0, flow_failed = 0;
    /// Cycle-accounting shares and conservation over the window.
    std::vector<CycleAccount::Fixed> acct_sum_minus_total;
    std::vector<CycleAccount::Fixed> acct_total;
    double acct[9] = {};
    double acct_cycles = 0;
};

const char *const kAcctNames[9] = {"idle",     "driver_rx", "driver_tx",
                                   "mempool",  "metadata",  "elements",
                                   "llc_stall", "dram_stall", "tlb_stall"};

void
read_counters(Engine &engine, std::uint32_t nics, Counters *c)
{
    for (std::uint32_t n = 0; n < nics; ++n) {
        const NicStats s = engine.nic(n).stats();
        c->nic.rx_frames += s.rx_frames;
        c->nic.rx_drops_no_desc += s.rx_drops_no_desc;
        c->nic.rx_drops_pcie += s.rx_drops_pcie;
        if (const WorkloadSource *ws = engine.workload(n)) {
            c->streaming = true;
            c->gen_frames += ws->stats().frames;
        }
    }
    for (std::uint32_t core = 0; core < engine.num_cores(); ++core) {
        const MemStats &m = engine.caches(core).stats();
        c->mem.loads += m.loads;
        c->mem.stores += m.stores;
        c->mem.dev_reads += m.dev_reads;
        c->mem.dev_writes += m.dev_writes;
        c->mem.llc_load_misses += m.llc_load_misses;
        for (Element *e : engine.pipeline(core).elements())
            if (std::strcmp(e->class_name(), "IPLookup") == 0)
                ++c->lpm_instances;
    }
    c->timeline_rows = engine.timeline().rows.size();

    MetricsRegistry &reg = engine.metrics();
    auto ends_with = [](const std::string &s, const char *suf) {
        const std::size_t n = std::strlen(suf);
        return s.size() >= n && s.compare(s.size() - n, n, suf) == 0;
    };
    for (std::size_t id = 0; id < reg.size(); ++id) {
        const std::string &name = reg.name(static_cast<MetricId>(id));
        if (name.rfind("tbl_", 0) != 0)
            continue;
        const double v = reg.read(static_cast<MetricId>(id));
        if (ends_with(name, "_failed_inserts"))
            c->flow_failed += v;
        else if (ends_with(name, "_inserts"))
            c->flow_inserts += v;
        else if (ends_with(name, "_evictions"))
            c->flow_evictions += v;
    }

    for (const Engine::AcctCoreBreakdown &b : engine.acct_breakdown()) {
        const CycleAccount::Snapshot &d = b.delta;
        c->acct_sum_minus_total.push_back(d.sum_minus_total());
        c->acct_total.push_back(d.total);
        c->acct_cycles += CycleAccount::cycles(d.total);
        CycleAccount::Fixed elements = 0;
        for (std::uint32_t s = kAcctElementBase; s < d.num_scopes(); ++s)
            elements += d.scope_total(static_cast<std::uint16_t>(s));
        const CycleAccount::Fixed parts[9] = {
            d.scope_total(kAcctIdle),
            d.scope_total(kAcctDriverRx),
            d.scope_total(kAcctDriverTx),
            d.scope_total(kAcctMempool),
            d.scope_total(kAcctMetadata),
            elements,
            d.component_total(kAcctLlcStall),
            d.component_total(kAcctDramStall),
            d.component_total(kAcctTlbStall)};
        for (int i = 0; i < 9; ++i)
            c->acct[i] += CycleAccount::cycles(parts[i]);
    }
}

/** Exact simulated-result fingerprint (must match across repetitions). */
std::string
dut_digest(const Counters &c)
{
    std::string d = strprintf(
        "tx=%llu drops=%llu llc_loads=%llu llc_misses=%llu p50=%s p99=%s",
        static_cast<unsigned long long>(c.r.tx_pkts),
        static_cast<unsigned long long>(c.r.rx_drops),
        static_cast<unsigned long long>(c.r.mem.llc_loads()),
        static_cast<unsigned long long>(c.r.mem.llc_load_misses),
        bits_hex(c.r.median_latency_us).c_str(),
        bits_hex(c.r.p99_latency_us).c_str());
    for (CycleAccount::Fixed t : c.acct_total)
        d += strprintf(" acct=%lld", static_cast<long long>(t));
    return d;
}

std::string
int_list(const std::vector<CycleAccount::Fixed> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += strprintf(i ? ", %lld" : "%lld", static_cast<long long>(v[i]));
    return s + "]";
}

/** Time @p n single-line loads cycling over @p lines lines. */
double
cache_replay_ns(CacheHierarchy &h, std::uint64_t lines, std::uint64_t n)
{
    const Addr base = 0x10000000;
    for (std::uint64_t i = 0; i < lines; ++i)  // warm / steady state
        h.access(base + i * 64, 8, AccessType::kLoad);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        h.access(base + (i % lines) * 64, 8, AccessType::kLoad);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    return s * 1e9 / static_cast<double>(n);
}

/**
 * Host reference speed: ns per load of 2^22 independent random loads
 * over a fresh 32 MiB buffer. It is fixed code, independent of the
 * simulator, and it slows with the host's shared caches and memory as
 * Engine::run does, so run.py divides repetition times by it. Called
 * only while no engine is alive, so it never raises the peak RSS.
 */
double
host_ref_ns()
{
    constexpr std::uint64_t kWords = (32u << 20) / 8;  // power of two
    constexpr std::uint64_t kLoads = 1u << 22;
    std::vector<std::uint64_t> buf(kWords, 1);
    std::uint64_t x = 0x9E3779B97F4A7C15ull, sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoads; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += buf[x & (kWords - 1)];
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    PMILL_ASSERT(sum == kLoads, "host reference loads were elided");
    return s * 1e9 / static_cast<double>(kLoads);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pmill_perfbench: %s\nusage: pmill_perfbench --workload "
                 "NAME --seed N [--host-threads T] [--replays] "
                 "[--spans PATH] [--run-id K]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string wl_name, spans_path;
    std::uint64_t seed = 0;
    bool have_seed = false, replays = false;
    long host_threads = -1;
    int run_id = 0;
    const double warmup_us = 1500.0;
    const double window_us = 20000.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            wl_name = val();
        } else if (a == "--seed") {
            seed = std::strtoull(val().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--host-threads") {
            host_threads = std::strtol(val().c_str(), nullptr, 10);
        } else if (a == "--spans") {
            spans_path = val();
        } else if (a == "--run-id") {
            run_id = static_cast<int>(std::strtol(val().c_str(), nullptr, 10));
        } else if (a == "--replays") {
            replays = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    Workload w;
    if (!have_seed || !find_workload(wl_name, seed, &w))
        usage("need --seed and a known --workload");
    if (host_threads > static_cast<long>(w.cores))
        usage("--host-threads exceeds the core count");
    if (host_threads >= 0)
        w.host_threads = static_cast<std::uint32_t>(host_threads);
    set_log_level(LogLevel::kWarn);

    MachineConfig m;
    m.num_cores = w.cores;
    RunConfig rc;
    rc.offered_gbps = w.offered_gbps;
    rc.warmup_us = warmup_us;
    rc.duration_us = window_us;
    rc.host_threads = w.host_threads;

    SpanLog log;
    Counters c;
    WorkloadSpec spec;
    std::string input_desc;
    int sp_input = -1, sp_ctor = -1, sp_grind = -1, sp_run = -1,
        sp_teardown = -1;
    std::uint64_t expected_trace_frames = 0;
    const double ref_ns_before = host_ref_ns();
    {
        Span rep(log, "rep");
        std::unique_ptr<Engine> engine;
        Trace trace;
        {
            Span s(log, "input");
            sp_input = s.id();
            if (*w.spec_fmt) {
                std::string err;
                const std::string text = strprintf(
                    w.spec_fmt, static_cast<unsigned long long>(seed));
                if (!spec.parse(text, &err))
                    usage(("bad workload spec: " + err).c_str());
            } else {
                trace = make_campus_trace(w.trace);
            }
        }
        if (!*w.spec_fmt)
            expected_trace_frames =
                m.num_nics *
                trace_arrivals(trace,
                               std::min(w.offered_gbps, m.nic.link_gbps),
                               warmup_us * 1000.0 + window_us * 1000.0);
        input_desc = *w.spec_fmt
                         ? spec.to_string()
                         : strprintf("campus:packets=%zu,flows=%u,seed=%llu",
                                     w.trace.num_packets, w.trace.num_flows,
                                     static_cast<unsigned long long>(
                                         w.trace.seed));
        {
            Span s(log, "engine_ctor");
            sp_ctor = s.id();
            engine = *w.spec_fmt
                         ? std::make_unique<Engine>(m, w.config, w.opts, spec)
                         : std::make_unique<Engine>(m, w.config, w.opts,
                                                    std::move(trace));
        }
        {
            Span s(log, "grind");
            sp_grind = s.id();
            PacketMill::grind(*engine);
        }
        {
            Span s(log, "run");
            sp_run = s.id();
            c.r = engine->run(rc);
        }
        read_counters(*engine, m.num_nics, &c);
        {
            Span s(log, "teardown");
            sp_teardown = s.id();
            engine.reset();
            trace = Trace{};
        }
    }
    const double ref_ns = 0.5 * (ref_ns_before + host_ref_ns());

    JsonOut out;
    out.str("workload", w.name);
    out.u64("seed", seed);
    out.str("input", input_desc);
    out.u64("cores", w.cores);
    out.u64("host_threads", w.host_threads);
    out.num("offered_gbps", w.offered_gbps);
    out.num("sim_s", (warmup_us + window_us) * 1e-6);
    out.num("input_s", log.dur(sp_input));
    out.num("ctor_s", log.dur(sp_ctor));
    out.num("grind_s", log.dur(sp_grind));
    out.num("run_s", log.dur(sp_run));
    out.num("teardown_s", log.dur(sp_teardown));
    out.num("ref_ns", ref_ns);
    out.str("digest", dut_digest(c));
    out.u64("streaming", c.streaming ? 1 : 0);
    out.u64("gen_frames", c.gen_frames);
    out.u64("trace_arrivals", expected_trace_frames);
    out.u64("rx_frames", c.nic.rx_frames);
    out.u64("drops_no_desc", c.nic.rx_drops_no_desc);
    out.u64("drops_pcie", c.nic.rx_drops_pcie);
    out.u64("tx_pkts", c.r.tx_pkts);
    out.u64("mem_accesses", c.mem.loads + c.mem.stores + c.mem.dev_reads +
                                c.mem.dev_writes);
    out.u64("mem_llc_misses", c.mem.llc_load_misses);
    out.u64("win_llc_loads", c.r.mem.llc_loads());
    out.u64("win_llc_misses", c.r.mem.llc_load_misses);
    out.u64("lpm_instances", c.lpm_instances);
    out.u64("timeline_rows", c.timeline_rows);
    out.num("flow_inserts", c.flow_inserts);
    out.num("flow_evictions", c.flow_evictions);
    out.num("flow_insert_failed", c.flow_failed);
    out.num("gbps", c.r.throughput_gbps);
    out.num("mpps", c.r.mpps);
    out.num("p99_us", c.r.p99_latency_us);
    out.num("cycles_per_pkt",
            c.r.tx_pkts ? c.r.exec.total_cycles(m.freq_ghz) /
                              static_cast<double>(c.r.tx_pkts)
                        : 0.0);
    out.raw("acct_sum_minus_total", int_list(c.acct_sum_minus_total));
    out.num("acct_cycles", c.acct_cycles);
    for (int i = 0; i < 9; ++i)
        out.num(strprintf("acct_%s", kAcctNames[i]).c_str(), c.acct[i]);
    out.u64("acct_compiled_in", CycleAccount::kCompiledIn ? 1 : 0);
    out.u64("tracer_compiled_in", Tracer::kCompiledIn ? 1 : 0);
    out.str("build_type", PERFBENCH_BUILD_TYPE);

    if (replays) {
        Span rep(log, "replays");
        if (c.streaming && c.gen_frames) {
            // Construction (slot table, Zipf tables) is its own span so
            // next_frame's span holds only the per-frame calls.
            std::unique_ptr<WorkloadSource> ws;
            {
                Span s(log, "replay.source_ctor");
                ws = std::make_unique<WorkloadSource>(spec, 0);
            }
            WorkloadSource &src = *ws;
            Span s(log, "replay.next_frame");
            std::vector<std::uint8_t> buf(kMaxFrameLen);
            double gap = 1.0;
            std::uint64_t bytes = 0;
            for (std::uint64_t i = 0; i < c.gen_frames; ++i)
                bytes += src.next_frame(buf.data(), kMaxFrameLen, &gap);
            PMILL_ASSERT(bytes > 0, "replayed workload produced no bytes");
        }
        std::uint64_t lpm_bytes = 0;
        {
            Span s(log, "replay.lpm_build");
            const std::vector<Route> routes = router_routes();
            for (std::uint64_t i = 0; i < c.lpm_instances; ++i) {
                SimMemory mem;
                Dir24_8 lpm(mem);
                for (const Route &r : routes)
                    PMILL_ASSERT(lpm.add(r), "route table overflow");
                lpm_bytes += lpm.memory_bytes();
            }
        }
        out.u64("lpm_bytes", lpm_bytes);
        // One L1-resident set (16 KiB) and one set four times the LLC:
        // a cyclic sweep over the latter misses every level under LRU.
        const std::uint64_t kCacheOps = 1u << 22;
        {
            Span s(log, "replay.cache_hit");
            CacheHierarchy h;
            out.num("access_ns_hit", cache_replay_ns(h, 256, kCacheOps));
        }
        {
            Span s(log, "replay.cache_miss");
            CacheHierarchy h;
            const std::uint64_t lines = 4 * h.config().llc_size / 64;
            out.num("access_ns_miss", cache_replay_ns(h, lines, kCacheOps));
        }
    }
    if (!spans_path.empty() && !log.write(spans_path, run_id)) {
        std::fprintf(stderr, "pmill_perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
}
