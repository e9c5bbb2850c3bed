/**
 * @file
 * Robustness fuzzing: the configuration parser, frame parser,
 * pipeline builder, workload-spec parser and the artifact readers
 * (profiles, acct JSONL, bench tables) must never crash on malformed
 * input — they must either succeed or fail cleanly with an error.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/accounting/acct_report.hh"
#include "src/accounting/cycle_account.hh"
#include "src/common/random.hh"
#include "src/framework/config_parser.hh"
#include "src/control/policy.hh"
#include "src/elements/args.hh"
#include "src/elements/elements.hh"
#include "src/framework/pipeline.hh"
#include "src/mill/packet_mill.hh"
#include "src/mill/profile.hh"
#include "src/net/packet_builder.hh"
#include "src/runtime/experiments.hh"
#include "src/runtime/run_flags.hh"
#include "src/telemetry/bench_diff.hh"
#include "src/workload/workload.hh"

namespace pmill {
namespace {

/// Replace, erase or insert 1..8 random printable characters.
std::string
mutate(std::string text, Xorshift64 &rng)
{
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.next_below(text.size() + 1);
        const char c = static_cast<char>(32 + rng.next_below(95));
        switch (rng.next_below(3)) {
          case 0:
            if (pos < text.size())
                text[pos] = c;
            break;
          case 1:
            if (pos < text.size())
                text.erase(pos, 1);
            break;
          default:
            text.insert(pos, 1, c);
        }
    }
    return text;
}

TEST(FuzzConfigParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xF022);
    const char alphabet[] =
        "abcXYZ0123 ::->[](),;/*\n\t_@#$%FromDPDKDevice";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string input;
        const std::size_t len = rng.next_below(200);
        for (std::size_t i = 0; i < len; ++i)
            input += alphabet[rng.next_below(sizeof(alphabet) - 1)];
        ParsedGraph g;
        std::string err;
        // Must not crash; result may be either.
        (void)parse_click_config(input, &g, &err);
    }
    SUCCEED();
}

TEST(FuzzConfigParser, MutatedValidConfigsNeverCrash)
{
    const std::string base = router_config();
    Xorshift64 rng(0xBEEF);
    for (int iter = 0; iter < 2000; ++iter) {
        ParsedGraph g;
        std::string err;
        (void)parse_click_config(mutate(base, rng), &g, &err);
    }
    SUCCEED();
}

TEST(FuzzPipelineBuild, ParsableGarbageFailsCleanly)
{
    // Configurations that parse but are semantically broken must be
    // rejected with an error message, not crash.
    const char *cases[] = {
        "a :: FromDPDKDevice(PORT 0);",              // unconnected
        "a :: Discard; b :: Discard; a -> b;",       // no source
        "a :: FromDPDKDevice(PORT 0); a -> Unknown;",
        "a :: FromDPDKDevice(BURST 0); a -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> IPLookup -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> EtherRewrite(SRC zz) "
        "-> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Napt -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Classifier() -> Discard;",
    };
    for (const char *c : cases) {
        SimMemory mem;
        std::string err;
        auto p = Pipeline::build(c, mem, PipelineOpts::vanilla(), &err);
        EXPECT_EQ(p, nullptr) << c;
        EXPECT_FALSE(err.empty()) << c;
    }
}

TEST(FuzzFrameParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xDEAD);
    std::vector<std::uint8_t> buf(2048);
    for (int iter = 0; iter < 5000; ++iter) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(rng.next_below(1515));
        for (std::uint32_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.next());
        (void)parse_frame(buf.data(), len);
        (void)extract_tuple(buf.data(), len);
    }
    SUCCEED();
}

TEST(FuzzFrameParser, TruncationSweepOnValidFrame)
{
    FrameSpec spec;
    spec.frame_len = 200;
    auto frame = build_frame(spec);
    for (std::uint32_t len = 0; len <= frame.size(); ++len) {
        FrameView v = parse_frame(frame.data(), len);
        // Layer pointers are only set when the layer fully fits.
        if (v.ip) {
            ASSERT_GE(len, kEtherHeaderLen + kIpv4HeaderLen);
        }
        if (v.tcp) {
            ASSERT_GE(len,
                      kEtherHeaderLen + kIpv4HeaderLen + sizeof(TcpHeader));
        }
    }
}

// Workload specs whose numbers once aborted the run, wrapped silently
// or cast an out-of-range double to an integer. Each is a parse error.
const char *const kHostileSpecs[] = {
    "zipf:skew=nan",
    "uniform:burst=nan",
    "uniform:udp=nan",
    "uniform:phase=nan",
    "uniform:flows=18446744073709551617",
    "synflood:vport=18446744073709551617",
    "uniform:burst=8,phase=1e300",
    "zipf:skew=inf",
    "uniform:seed=99999999999999999999",
};

/**
 * What every fuzzed spec must satisfy once parsed: to_string() reads
 * back to the same spec, and a spec with at most 2^16 flows builds a
 * source whose draws and writes agree for 1000 frames.
 */
void
expect_accepted_spec_works(const WorkloadSpec &spec)
{
    const std::string text = spec.to_string();
    WorkloadSpec again;
    std::string err;
    ASSERT_TRUE(again.parse(text, &err)) << text << ": " << err;
    ASSERT_EQ(again.to_string(), text);
    if (spec.flows > (1u << 16))
        return;
    WorkloadSource src(spec);
    std::uint8_t buf[kMaxFrameLen];
    for (int i = 0; i < 1000; ++i) {
        double gap = 0;
        const FrameDraw d = src.draw(&gap);
        ASSERT_TRUE(std::isfinite(gap) && gap > 0) << text;
        ASSERT_GE(d.len, kMinFrameLen) << text;
        ASSERT_LE(d.len, kMaxFrameLen) << text;
        const std::uint8_t *bytes = src.write(d, buf);
        ASSERT_TRUE(d.tuple == extract_tuple(bytes, d.len)) << text;
    }
}

/**
 * Parse @p text: it is accepted and works, or fails with a message.
 * @return whether it was accepted.
 */
bool
expect_spec_parses_or_fails(const std::string &text)
{
    WorkloadSpec spec;
    std::string err;
    if (!spec.parse(text, &err)) {
        EXPECT_FALSE(err.empty()) << text;
        return false;
    }
    expect_accepted_spec_works(spec);
    return true;
}

/// A value for a spec key: a boundary or hostile token, a run of
/// digits, or number-ish noise.
std::string
random_spec_value(Xorshift64 &rng)
{
    static const char *const kTokens[] = {
        "0", "1", "2", "4", "8", "60", "64", "1514", "1515", "65535",
        "65536", "67108864", "67108865", "4294967296", "4294967297",
        "18446744073709551615", "18446744073709551616", "nan", "inf",
        "-inf", "-1", "-0", "1e300", "1e-300", "4.9e-324", "0.5",
        "0.999999999", "1.1", "3.9999999", "4.0000001", "999.99999",
        "1000.0001", "2.0000001", "4294967295.9", "0x10", " 7", "",
        "20.0.0.99", "256.0.0.1", "1.2.3"};
    std::string v;
    switch (rng.next_below(3)) {
      case 0:
        return kTokens[rng.next_below(std::size(kTokens))];
      case 1:
        for (std::uint64_t n = 1 + rng.next_below(25); n > 0; --n)
            v += static_cast<char>('0' + rng.next_below(10));
        return v;
      default: {
        const char noise[] = "0123456789.eE+-naif";
        for (std::uint64_t n = rng.next_below(12); n > 0; --n)
            v += noise[rng.next_below(sizeof(noise) - 1)];
        return v;
      }
    }
}

/// "kind:key=value,..." from real and bogus kinds and keys.
std::string
random_spec(Xorshift64 &rng)
{
    static const char *const kKinds[] = {"uniform", "zipf",     "churn",
                                         "synflood", "portscan", "bogus"};
    static const char *const kKeys[] = {"flows", "skew",  "pkts",  "len",
                                        "udp",   "burst", "phase", "seed",
                                        "victim", "vport", "kind", "bogus"};
    std::string s;
    if (rng.next_below(4) != 0)
        s = std::string(kKinds[rng.next_below(std::size(kKinds))]) + ":";
    for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
        const std::string key = kKeys[rng.next_below(std::size(kKeys))];
        s += key;
        if (rng.next_below(16) != 0)
            s += "=";
        s += key == "kind" ? kKinds[rng.next_below(std::size(kKinds))]
                           : random_spec_value(rng);
        if (n > 1)
            s += ",";
    }
    return s;
}

TEST(FuzzWorkloadSpec, HostileNumbersAreRejected)
{
    for (const char *text : kHostileSpecs) {
        WorkloadSpec spec;
        std::string err;
        EXPECT_FALSE(spec.parse(text, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(FuzzWorkloadSpec, HugeChurnLifetimeIsClamped)
{
    // pkts at the top of uint64_t is a valid spec: the geometric
    // lifetime is capped before its float-to-integer cast, so no flow
    // dies within its first 65534 frames.
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("churn:flows=64,pkts=18446744073709551615", &err))
        << err;
    expect_accepted_spec_works(spec);
    WorkloadSource src(spec);
    std::uint8_t buf[kMaxFrameLen];
    for (int i = 0; i < 5000; ++i)
        src.next_frame(buf, sizeof(buf), nullptr);
    EXPECT_GT(src.stats().flows_born, 0u);
    EXPECT_EQ(src.stats().flows_died, 0u);
}

TEST(FuzzWorkloadSpec, RandomSpecsParseOrFailCleanly)
{
    Xorshift64 rng(0x5BEC);
    int accepted = 0;
    for (int iter = 0; iter < 3000; ++iter)
        accepted += expect_spec_parses_or_fails(random_spec(rng));
    // The generator reaches the accepted space, not only errors.
    EXPECT_GT(accepted, 300);
    const char alphabet[] = "uniformzipchurnsyflodptca:,=.0123456789e-";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string input;
        for (std::uint64_t n = rng.next_below(60); n > 0; --n)
            input += alphabet[rng.next_below(sizeof(alphabet) - 1)];
        expect_spec_parses_or_fails(input);
    }
}

TEST(FuzzWorkloadSpec, MutatedSpecFilesLoadOrFailCleanly)
{
    const std::filesystem::path dir =
        std::filesystem::path(PMILL_SOURCE_DIR) / "configs" / "workloads";
    const std::string path = ::testing::TempDir() + "fuzz_spec.workload";
    Xorshift64 rng(0xF11E);
    int files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        ++files;
        for (int iter = 0; iter < 300; ++iter) {
            const bool keep = iter == 0;  // the file as checked in
            {
                std::ofstream out(path, std::ios::trunc);
                out << (keep ? text.str() : mutate(text.str(), rng));
            }
            WorkloadSpec spec;
            std::string err;
            const bool ok = load_workload_spec(path, &spec, &err);
            if (keep) {
                ASSERT_TRUE(ok) << entry.path() << ": " << err;
            }
            if (ok)
                expect_accepted_spec_works(spec);
            else
                EXPECT_FALSE(err.empty()) << entry.path();
        }
    }
    std::filesystem::remove(path);
    EXPECT_GE(files, 6);
}

/// A hostile value, or one at or next to @p p 's bounds.
std::string
random_param_value(const Param &p, Xorshift64 &rng)
{
    static const char *const kHostile[] = {
        "nan", "inf", "-inf", "-1", "-0", "0", "1", "3", "1e300", "1e-300",
        "4294967296", "18446744073709551616", "7x", "", " 4", "0x10",
        "1.5", "parking", "02:00:00:00:00:01", "10.0.0.1"};
    if (rng.next_below(2) == 0)
        return kHostile[rng.next_below(std::size(kHostile))];
    if (p.choices != nullptr) {
        std::string all = p.choices;
        std::vector<std::string> names;
        for (std::size_t b = 0, e; b <= all.size(); b = e + 1) {
            e = std::min(all.find('|', b), all.size());
            names.push_back(all.substr(b, e - b));
        }
        return names[rng.next_below(names.size())];
    }
    const std::uint64_t u[] = {p.ulo, p.uhi, p.uhi + 1, p.ulo / 2 + p.uhi / 2};
    const double d[] = {p.dlo, p.dhi, p.dhi * 1.0001, (p.dlo + p.dhi) / 2};
    return std::visit(
        [&](auto *t) -> std::string {
            using T = std::remove_pointer_t<decltype(t)>;
            if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
                return std::to_string(u[rng.next_below(4)]);
            else if constexpr (std::is_same_v<T, double>)
                return strprintf("%.17g", d[rng.next_below(4)]);
            else
                return "out.jsonl";
        },
        p.target);
}

TEST(FuzzRunFlags, RandomFlagSetsParseOrFailNamingAFlag)
{
    RunFlags names;
    const std::vector<Param> table = run_flag_table(&names);
    Xorshift64 rng(0xF1A6);
    int accepted = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::vector<std::string> args = {"pmill_run", "x.click"};
        for (std::uint64_t n = rng.next_below(7); n > 0; --n) {
            const Param &p = table[rng.next_below(table.size())];
            const std::string v = random_param_value(p, rng);
            if (p.is_flag() && rng.next_below(8) != 0) {
                args.push_back(p.name);
            } else if (rng.next_below(2) == 0) {
                args.push_back(std::string(p.name) + "=" + v);
            } else {
                args.push_back(p.name);
                args.push_back(v);
            }
        }
        std::vector<const char *> argv;
        for (const std::string &a : args)
            argv.push_back(a.c_str());
        RunFlags f;
        std::string err;
        if (!parse_run_flags(static_cast<int>(argv.size()), argv.data(), &f,
                             &err)) {
            bool named = false;
            for (const Param &p : table)
                named = named || err.find(p.name) != std::string::npos;
            EXPECT_TRUE(named) << err;
            continue;
        }
        ++accepted;
        // Every bound the engine asserts, or that keeps a run finite.
        EXPECT_TRUE(f.cores >= 1 && f.cores <= kMaxCores);
        EXPECT_TRUE(f.host_threads >= 1 && f.host_threads <= f.cores);
        EXPECT_TRUE(f.sockets >= 1 && f.sockets <= f.cores);
        EXPECT_GE(f.nics, 1u);
        EXPECT_TRUE(f.size == 0 ||
                    (f.size >= kMinFrameLen && f.size <= kMaxFrameLen));
        for (double v : {f.freq, f.offered, f.duration_us, f.trace_rate})
            EXPECT_TRUE(std::isfinite(v) && v > 0) << v;
        for (double v : {f.sample_us, f.load_step_us, f.load_step_gbps})
            EXPECT_TRUE(std::isfinite(v) && v >= 0) << v;
        EXPECT_LE(f.trace_rate, 1.0);
        EXPECT_EQ(f.load_step_us > 0, f.load_step_gbps > 0);
        EXPECT_TRUE(f.park_split == 0 ||
                    f.opts().model == MetadataModel::kParking);
        if (!f.control.empty()) {
            EXPECT_NE(make_policy(f.control, ActuationLimits{},
                                  PolicyConfig{}),
                      nullptr);
        }
        EXPECT_TRUE(f.decision_log.empty() || !f.control.empty());
        EXPECT_TRUE(f.workload.empty() || (f.size == 0 && !f.verify));
    }
    EXPECT_GT(accepted, 400);
}

TEST(FuzzElementKeywords, RandomKeywordsBuildOrFailNamingThem)
{
    // Every element that declares keywords, each keyword as a slot.
    const std::vector<std::pair<std::string, std::string>> slots = {
        {"FromDPDKDevice", "PORT 0"},  {"FromDPDKDevice", "BURST 32"},
        {"ToDPDKDevice", "PORT 0"},    {"IdsCheck", "CONNTRACK 4096"},
        {"IdsCheck", "IDLE_TIMEOUT_MS 1"}, {"VLANEncap", "VLAN_ID 42"},
        {"VLANEncap", "VLAN_TCI 42"}, {"Napt", "SRCIP 100.0.0.1"},
        {"Napt", "CAPACITY 4096"},    {"Napt", "IDLE_TIMEOUT_MS 1"},
        {"WorkPackage", "S 1"},       {"WorkPackage", "N 1"},
        {"WorkPackage", "W 0"},
        {"EtherRewrite", "SRC 02:00:00:00:00:10"},
        {"EtherRewrite", "DST 02:00:00:00:00:20"},
    };
    static const char *const kValues[] = {
        "0", "1", "2", "32", "64", "65", "65535", "65536", "524288",
        "524289", "4294967295", "4294967296", "18446744073709551616",
        "nan", "inf", "-1", "1e300", "1e-300", "0.5", "1e9", "1e10", "",
        "7x", "02:00:00:00:00:01", "10.0.0.1", "256.1.1.1"};
    Xorshift64 rng(0xE1E7);
    int accepted = 0;
    for (int iter = 0; iter < 600; ++iter) {
        std::vector<std::string> args(slots.size());
        std::string changed;
        for (std::size_t i = 0; i < slots.size(); ++i)
            args[i] = slots[i].second;
        for (std::uint64_t n = 1 + rng.next_below(2); n > 0; --n) {
            const std::size_t i = rng.next_below(slots.size());
            const std::string kw = args[i].substr(0, args[i].find(' '));
            const std::string v = kValues[rng.next_below(std::size(kValues))];
            switch (rng.next_below(8)) {
              case 0:
                args[i] = v;  // a bare value
                break;
              case 1:
                args[i] = "BOGUS " + v;
                break;
              default:
                args[i] = kw + " " + v;
            }
            changed += " " + slots[i].first + "(" + args[i] + ")";
        }
        auto of = [&](const char *cls) {
            std::string joined;
            for (std::size_t i = 0; i < slots.size(); ++i)
                if (slots[i].first == cls)
                    joined += (joined.empty() ? "" : ", ") + args[i];
            return std::string(cls) + "(" + joined + ")";
        };
        const std::string config =
            "in :: " + of("FromDPDKDevice") + "; out :: " +
            of("ToDPDKDevice") + "; in -> " + of("IdsCheck") + " -> " +
            of("VLANEncap") + " -> " + of("Napt") + " -> " +
            of("WorkPackage") + " -> " + of("EtherRewrite") + " -> out;";
        SimMemory mem;
        std::string err;
        auto p = Pipeline::build(config, mem, PipelineOpts::vanilla(), &err);
        if (!p) {
            bool named = false;
            for (const auto &[cls, slot] : slots)
                named = named ||
                        err.find(cls + ": " + slot.substr(0, slot.find(' ')) +
                                 " expects") != std::string::npos;
            named = named || err.find("unknown key 'BOGUS'") !=
                                 std::string::npos ||
                    err.find("takes no bare value") != std::string::npos ||
                    err.find("Napt requires SRCIP") != std::string::npos;
            EXPECT_TRUE(named) << changed << ": " << err;
            continue;
        }
        ++accepted;
        EXPECT_TRUE(p->burst() >= 1 && p->burst() <= kMaxBurst) << changed;
        for (Element *e : p->elements()) {
            FlowTableStats st;
            if (e->flow_table_stats(&st)) {
                EXPECT_LE(st.memory_bytes, 64ull << 20) << changed;
            }
        }
        EXPECT_LE(mem.allocated_bytes(Region::kScratch),
                  std::uint64_t{kMaxScratchMb} << 20)
            << changed;
    }
    EXPECT_GT(accepted, 50);
}

TEST(FuzzArtifactReaders, MutatedProfilesPlanWithinTheBurstBound)
{
    // A captured router profile, the input of pmill_run --profile-in.
    MachineConfig machine;
    Engine engine(machine, router_config(), opts_source_all(),
                  default_campus_trace());
    PacketMill::grind(engine);
    RunConfig rc;
    rc.offered_gbps = 70.0;
    rc.warmup_us = 100;
    rc.duration_us = 300;
    const std::string base = capture_profile(engine, rc).to_json();
    ASSERT_FALSE(base.empty());

    Xorshift64 rng(0x9F0F);
    int accepted = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        const std::string text = iter == 0 ? base : mutate(base, rng);
        Profile p;
        std::string err;
        if (!Profile::parse(text, &p, &err)) {
            EXPECT_FALSE(err.empty()) << text;
            continue;
        }
        ++accepted;
        for (const PipelineOpts &opts :
             {opts_source_all(), PipelineOpts::vanilla()}) {
            const Plan plan =
                PlanSearch::search(p, opts, engine.rx_burst(0));
            EXPECT_LE(plan.burst, kMaxBurst) << text;
        }
    }
    EXPECT_GT(accepted, 100);
}

TEST(FuzzArtifactReaders, MutatedAcctJsonlParsesOrFailsCleanly)
{
    if (!CycleAccount::kCompiledIn)
        GTEST_SKIP() << "built with PMILL_ACCT=OFF: no acct lines to mutate";
    // An acct JSONL in the format cycle_accounting and --stats-json
    // write, the input of pmill_explain.
    Trace t = make_fixed_size_trace(256, 128, 16);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    engine.run(rc);
    std::ostringstream os;
    acct_write_jsonl(acct_report_from_engine(engine), os);
    const std::string base = os.str();

    Xorshift64 rng(0xACC7);
    int accepted = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        std::istringstream is(iter == 0 ? base : mutate(base, rng));
        AcctReport rep;
        std::string err;
        if (!acct_report_from_jsonl(is, &rep, &err)) {
            EXPECT_FALSE(err.empty());
            continue;
        }
        ++accepted;
        std::ostringstream report;
        acct_render_report(rep, report);
        EXPECT_FALSE(report.str().empty());
    }
    EXPECT_GT(accepted, 100);
}

TEST(FuzzArtifactReaders, MutatedGoldenBenchTablesLoadOrFailCleanly)
{
    std::ifstream in(std::filesystem::path(PMILL_SOURCE_DIR) / "bench" /
                     "golden" / "fig05a_models.json");
    std::stringstream text;
    text << in.rdbuf();
    const std::string base = text.str();
    ASSERT_FALSE(base.empty());
    const std::string path = ::testing::TempDir() + "fuzz_bench.json";
    Xorshift64 rng(0xBE7C);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << (iter == 0 ? base : mutate(base, rng));
        }
        BenchTable table;
        std::string err;
        if (load_bench_table(path, &table, &err))
            ++accepted;
        else
            EXPECT_FALSE(err.empty());
    }
    std::filesystem::remove(path);
    EXPECT_GT(accepted, 100);
}

TEST(FuzzEngine, MalformedTrafficFlowsThroughTheRouter)
{
    // A trace of random garbage frames: the router must classify,
    // drop, or forward without crashing or leaking buffers.
    Trace t;
    Xorshift64 rng(77);
    for (int i = 0; i < 256; ++i) {
        std::vector<std::uint8_t> frame(64 + rng.next_below(1400));
        for (auto &b : frame)
            b = static_cast<std::uint8_t>(rng.next());
        t.add(frame);
    }
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 20;
    rc.warmup_us = 100;
    rc.duration_us = 300;
    RunResult r = engine.run(rc);
    // Everything is classifier-dropped or ARP-dropped; nothing crashes.
    EXPECT_GE(engine.pipeline().dropped(), 1u);
    (void)r;
}

} // namespace
} // namespace pmill
