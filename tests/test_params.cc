/**
 * @file
 * Parameter tables: set_param() decodes, bounds and reports every
 * input the same way, render_params() prints a table back, and
 * pmill_run's flag table parses a command line.
 */

#include <gtest/gtest.h>

#include "src/elements/args.hh"
#include "src/runtime/experiments.hh"
#include "src/runtime/run_flags.hh"

namespace pmill {
namespace {

TEST(Params, IntegersAreBoundedToTheTargetWidth)
{
    std::uint16_t port = 80;
    const Param p{"vport", &port, 1, UINT64_MAX, "port"};
    EXPECT_EQ(p.uhi, 65535u);
    std::string err;
    EXPECT_TRUE(set_param(p, "65535", &err)) << err;
    EXPECT_EQ(port, 65535);
    // 65536 would wrap to 0 in a uint16_t: rejected, target untouched.
    EXPECT_FALSE(set_param(p, "65536", &err));
    EXPECT_EQ(err, "vport expects an integer in [1, 65535], got '65536'");
    EXPECT_EQ(port, 65535);
    for (const char *bad : {"0", "-1", "1e3", "7x", "", " 7",
                            "18446744073709551616"})
        EXPECT_FALSE(set_param(p, bad, &err)) << bad;
    EXPECT_EQ(port, 65535);
}

TEST(Params, OrZeroAdmitsZeroBesideTheRange)
{
    std::uint32_t len = 64;
    const Param p{"len", &len, 60, 1514, "frame bytes", true};
    std::string err;
    EXPECT_TRUE(set_param(p, "0", &err)) << err;
    EXPECT_EQ(len, 0u);
    EXPECT_FALSE(set_param(p, "59", &err));
    EXPECT_EQ(err, "len expects 0 or an integer in [60, 1514], got '59'");

    double ms = 1.0;
    const Param q{"ms", &ms, 0.001, 1e9, "timeout", /*open_below=*/false,
                  /*or_zero=*/true};
    EXPECT_TRUE(set_param(q, "0", &err)) << err;
    EXPECT_EQ(ms, 0.0);
    EXPECT_TRUE(set_param(q, "0.001", &err)) << err;
    EXPECT_EQ(ms, 0.001);
    EXPECT_FALSE(set_param(q, "1e-9", &err));
    EXPECT_EQ(err, "ms expects 0 or a number in [0.001, 1e+09], got '1e-9'");
    EXPECT_EQ(ms, 0.001);
}

TEST(Params, NumbersAreFiniteAndBounded)
{
    double rate = 1.0;
    const Param p{"--rate", &rate, 0.0, 1.0, "fraction", true};
    std::string err;
    EXPECT_TRUE(set_param(p, "0.25", &err)) << err;
    EXPECT_EQ(rate, 0.25);
    for (const char *bad :
         {"0", "-0", "nan", "inf", "-1", "1.0000001", "1e300", "0.5x", ""})
        EXPECT_FALSE(set_param(p, bad, &err)) << bad;
    EXPECT_EQ(err, "--rate expects a number in (0, 1], got ''");
    EXPECT_EQ(rate, 0.25);
}

TEST(Params, ChoicesAddressesAndFlags)
{
    std::string opt = "a";
    Ipv4Addr ip{};
    MacAddr mac{};
    bool on = false;
    const Param table[] = {
        {"--opt", &opt, "level", "a|bb|c"},
        {"ip", &ip, "address"},
        {"mac", &mac, "address"},
        {"--on", &on, "switch"},
    };
    std::string err;
    EXPECT_TRUE(set_param(table, "--opt", "bb", &err)) << err;
    EXPECT_EQ(opt, "bb");
    EXPECT_FALSE(set_param(table, "--opt", "b", &err));
    EXPECT_EQ(err, "--opt expects one of a|bb|c, got 'b'");
    EXPECT_EQ(choice_index("a|bb|c", "c"), 2);
    EXPECT_EQ(choice_index("a|bb|c", ""), -1);

    EXPECT_TRUE(set_param(table, "ip", "10.0.0.1", &err)) << err;
    EXPECT_EQ(ip, Ipv4Addr::make(10, 0, 0, 1));
    EXPECT_FALSE(set_param(table, "ip", "256.0.0.1", &err));
    EXPECT_TRUE(set_param(table, "mac", "02:00:00:00:00:0a", &err)) << err;
    EXPECT_EQ(mac.bytes[5], 0x0a);
    EXPECT_FALSE(set_param(table, "mac", "02:00", &err));

    EXPECT_FALSE(set_param(table, "--on", "yes", &err));
    EXPECT_TRUE(set_param(table, "--on", "", &err)) << err;
    EXPECT_TRUE(on);

    EXPECT_FALSE(set_param(table, "--nope", "1", &err));
    EXPECT_EQ(err, "unknown key '--nope'");
}

TEST(Params, RenderReadsBack)
{
    std::uint64_t flows = 65536;
    double skew = 1.1;
    Ipv4Addr victim = Ipv4Addr::make(20, 0, 0, 99);
    const Param table[] = {
        {"flows", &flows, 1, 1u << 26, "flows"},
        {"skew", &skew, 0.0, 4.0, "skew"},
        {"victim", &victim, "target"},
    };
    const std::string text = render_params(table);
    EXPECT_EQ(text, "flows=65536,skew=1.1,victim=20.0.0.99");
    skew = 0.1 + 0.2;  // needs 17 digits to read back exactly
    EXPECT_EQ(render_params(table),
              "flows=65536,skew=0.30000000000000004,victim=20.0.0.99");
}

/// parse_run_flags() on "pmill_run config <args...>".
bool
parse(std::vector<const char *> args, RunFlags *f, std::string *err)
{
    args.insert(args.begin(), {"pmill_run", "x.click"});
    return parse_run_flags(static_cast<int>(args.size()), args.data(), f,
                           err);
}

TEST(RunFlags, BothValueFormsAndBareFlags)
{
    RunFlags f;
    std::string err;
    ASSERT_TRUE(parse({"--cores", "4", "--sockets=2", "--json", "--opt",
                       "packetmill", "--stats-json="},
                      &f, &err))
        << err;
    EXPECT_EQ(f.config_path, "x.click");
    EXPECT_EQ(f.cores, 4u);
    EXPECT_EQ(f.sockets, 2u);
    EXPECT_TRUE(f.json);
    EXPECT_TRUE(f.stats_json.empty());
    EXPECT_EQ(f.opts().model, opts_packetmill().model);
    EXPECT_EQ(run_flag_table(&f).size(), 27u);
}

TEST(RunFlags, ModelAndParkSplitOverrideTheOptLevel)
{
    RunFlags f;
    std::string err;
    ASSERT_TRUE(parse({"--model", "parking", "--park-split", "128", "--opt",
                       "packetmill"},
                      &f, &err))
        << err;
    const PipelineOpts o = f.opts();
    EXPECT_EQ(o.model, MetadataModel::kParking);
    EXPECT_EQ(o.park_split_bytes, 128u);
    EXPECT_EQ(o.static_graph, opts_packetmill().static_graph);
    EXPECT_EQ(RunFlags{}.opts().park_split_bytes,
              PipelineOpts{}.park_split_bytes);
}

// --json prints JSON Lines alone, so a flag that prints text or runs a
// check after the run contradicts it; at the parent --json returned
// before the --verify check and after --report's text.
TEST(RunFlags, JsonRefusesTheTextOutputFlags)
{
    for (const char *flag : {"--verify", "--report", "--explain"}) {
        RunFlags f;
        std::string err;
        EXPECT_FALSE(parse({"--json", flag}, &f, &err)) << flag;
        EXPECT_EQ(err, std::string("--json cannot be combined with ") +
                           flag +
                           " (--json prints only the meta and summary "
                           "JSON Lines)");
        EXPECT_TRUE(parse({flag}, &f, &err)) << err;
    }
}

TEST(RunFlags, CommandLineShapeErrorsPrintTheUsage)
{
    RunFlags f;
    std::string err;
    for (const std::vector<const char *> &args :
         std::vector<std::vector<const char *>>{
             {"--bogus"}, {"--cores"}, {"--verify=1"}, {"stray"}}) {
        EXPECT_FALSE(parse(args, &f, &err)) << args[0];
        EXPECT_NE(err.find("usage:"), std::string::npos) << err;
        EXPECT_NE(err.find("--load-step-gbps"), std::string::npos) << err;
    }
    const char *none[] = {"pmill_run"};
    EXPECT_FALSE(parse_run_flags(1, none, &f, &err));
    // A flag where the Click config belongs is a missing config.
    const char *flag_first[] = {"pmill_run", "--opt", "all"};
    EXPECT_FALSE(parse_run_flags(3, flag_first, &f, &err));
    EXPECT_EQ(err.rfind("no Click config given\n", 0), 0u) << err;
}

} // namespace
} // namespace pmill
