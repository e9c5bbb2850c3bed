/**
 * @file
 * Robustness fuzzing: the configuration parser, frame parser, and
 * pipeline builder must never crash on malformed input — they must
 * either succeed or fail cleanly with an error.
 */

#include <gtest/gtest.h>

#include "src/common/random.hh"
#include "src/framework/config_parser.hh"
#include "src/framework/pipeline.hh"
#include "src/net/packet_builder.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

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
        std::string mutated = base;
        const int flips = 1 + static_cast<int>(rng.next_below(8));
        for (int f = 0; f < flips; ++f) {
            const std::size_t pos = rng.next_below(mutated.size());
            switch (rng.next_below(3)) {
              case 0:
                mutated[pos] = static_cast<char>(
                    32 + rng.next_below(95));
                break;
              case 1:
                mutated.erase(pos, 1);
                break;
              default:
                mutated.insert(pos, 1,
                               static_cast<char>(32 + rng.next_below(95)));
            }
        }
        ParsedGraph g;
        std::string err;
        (void)parse_click_config(mutated, &g, &err);
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
