/**
 * @file
 * Tests for the framework layer: Click-config parsing, element
 * registry/configuration, metadata layouts, PacketView round-trips,
 * batch compaction, and pipeline building/execution details.
 */

#include <gtest/gtest.h>

#include "src/elements/elements.hh"
#include "src/framework/config_parser.hh"
#include "src/framework/datapath.hh"
#include "src/framework/element.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/framework/pipeline.hh"

namespace pmill {
namespace {

TEST(ConfigParser, DeclarationAndChain)
{
    ParsedGraph g;
    std::string err;
    ASSERT_TRUE(parse_click_config(R"(
        // a comment
        input :: FromDPDKDevice(PORT 0, BURST 32);
        output :: ToDPDKDevice(PORT 0);
        input -> EtherMirror -> output;
    )",
                                   &g, &err))
        << err;
    ASSERT_EQ(g.elements.size(), 3u);
    EXPECT_EQ(g.elements[0].name, "input");
    EXPECT_EQ(g.elements[0].class_name, "FromDPDKDevice");
    ASSERT_EQ(g.elements[0].args.size(), 2u);
    EXPECT_EQ(g.elements[0].args[0], "PORT 0");
    EXPECT_EQ(g.elements[2].class_name, "EtherMirror");
    ASSERT_EQ(g.edges.size(), 2u);
    EXPECT_EQ(g.next_of(0, 0), 2);  // input -> anonymous EtherMirror
    EXPECT_EQ(g.next_of(2, 0), 1);  // EtherMirror -> output
}

TEST(ConfigParser, PortSelectors)
{
    ParsedGraph g;
    std::string err;
    ASSERT_TRUE(parse_click_config(R"(
        c :: Classifier(ARP, IP);
        a :: Discard; b :: Discard;
        c [0] -> a;
        c [1] -> b;
    )",
                                   &g, &err))
        << err;
    EXPECT_EQ(g.next_of(0, 0), g.find("a"));
    EXPECT_EQ(g.next_of(0, 1), g.find("b"));
}

TEST(ConfigParser, InlineChainAfterDeclaration)
{
    ParsedGraph g;
    std::string err;
    ASSERT_TRUE(parse_click_config(
        "src :: FromDPDKDevice(PORT 0) -> Counter -> Discard;", &g, &err))
        << err;
    EXPECT_EQ(g.elements.size(), 3u);
    EXPECT_EQ(g.edges.size(), 2u);
}

TEST(ConfigParser, BlockComments)
{
    ParsedGraph g;
    std::string err;
    ASSERT_TRUE(parse_click_config(
        "/* multi\nline */ a :: Discard; /* x */ b :: Counter;", &g, &err))
        << err;
    EXPECT_EQ(g.elements.size(), 2u);
}

TEST(ConfigParser, Errors)
{
    ParsedGraph g;
    std::string err;
    EXPECT_FALSE(parse_click_config("a :: ;", &g, &err));
    EXPECT_FALSE(parse_click_config("a :: B(unbalanced;", &g, &err));
    EXPECT_FALSE(parse_click_config("a :: B; a :: C;", &g, &err));
    EXPECT_TRUE(err.find("line") != std::string::npos);
    EXPECT_FALSE(parse_click_config("a -> [x] b;", &g, &err));
}

TEST(ConfigParser, SplitArgsRespectsNesting)
{
    auto args = split_config_args("A(1, 2), B, C[3, 4], ");
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[0], "A(1, 2)");
    EXPECT_EQ(args[1], "B");
    EXPECT_EQ(args[2], "C[3, 4]");
}

TEST(ConfigParser, KeywordParsing)
{
    auto kws = parse_keywords({"PORT 0", "BURST 32", "plainvalue"});
    ASSERT_EQ(kws.size(), 3u);
    EXPECT_EQ(kws[0].first, "PORT");
    EXPECT_EQ(kws[0].second, "0");
    EXPECT_EQ(kws[2].first, "");
    EXPECT_EQ(kws[2].second, "plainvalue");
}

TEST(Registry, KnowsStandardElements)
{
    register_standard_elements();
    ElementRegistry &r = ElementRegistry::instance();
    for (const char *name :
         {"FromDPDKDevice", "ToDPDKDevice", "EtherMirror", "Classifier",
          "CheckIPHeader", "DecIPTTL", "IPLookup", "IdsCheck", "VLANEncap",
          "Napt", "WorkPackage", "Counter", "Discard"}) {
        EXPECT_TRUE(r.has(name)) << name;
        EXPECT_NE(r.create(name), nullptr) << name;
    }
    EXPECT_FALSE(r.has("NoSuchElement"));
    EXPECT_EQ(r.create("NoSuchElement"), nullptr);
}

TEST(ElementConfigure, RejectsBadArgs)
{
    register_standard_elements();
    auto &r = ElementRegistry::instance();
    std::string err;

    auto fd = r.create("FromDPDKDevice");
    EXPECT_FALSE(fd->configure({"BURST 9999"}, &err));
    EXPECT_TRUE(fd->configure({"PORT 0", "BURST 16"}, &err)) << err;

    auto er = r.create("EtherRewrite");
    EXPECT_FALSE(er->configure({"SRC not-a-mac"}, &err));
    EXPECT_TRUE(er->configure({"SRC 02:00:00:00:00:01",
                               "DST 02:00:00:00:00:02"},
                              &err))
        << err;

    auto lp = r.create("IPLookup");
    EXPECT_FALSE(lp->configure({}, &err));
    EXPECT_FALSE(lp->configure({"10.0.0.0/40 0"}, &err));
    EXPECT_TRUE(lp->configure({"10.0.0.0/8 1"}, &err)) << err;

    auto nat = r.create("Napt");
    EXPECT_FALSE(nat->configure({}, &err));
    EXPECT_TRUE(nat->configure({"SRCIP 10.0.0.1"}, &err)) << err;
}

// Values that once wrapped in a 32-bit cast, asked the host for
// terabytes, or stalled a 0.1 ms run for longer than 20 s (an aging
// wheel stepping a nanosecond at a time, billions of reads or PRNG
// rounds per packet) are configuration errors that name the keyword.
TEST(ElementConfigure, KeywordsThatWrapOrExhaustTheHostAreRejected)
{
    register_standard_elements();
    auto &r = ElementRegistry::instance();
    struct Case {
        const char *cls, *arg, *keyword;
    };
    const Case cases[] = {
        {"Napt", "CAPACITY 4294967296", "CAPACITY"},
        {"Napt", "CAPACITY 4000000000", "CAPACITY"},
        {"IdsCheck", "CONNTRACK 4294967296", "CONNTRACK"},
        {"IdsCheck", "4294967296", "CONNTRACK"},
        {"IdsCheck", "IDLE_TIMEOUT_MS 1e303", "IDLE_TIMEOUT_MS"},
        {"IdsCheck", "IDLE_TIMEOUT_MS 1e-9", "IDLE_TIMEOUT_MS"},
        {"IdsCheck", "IDLE_TIMEOUT_MS 0", "IDLE_TIMEOUT_MS"},
        {"Napt", "IDLE_TIMEOUT_MS 1e-9", "IDLE_TIMEOUT_MS"},
        {"WorkPackage", "S 4000000", "S"},
        {"WorkPackage", "N 1025", "N"},
        {"WorkPackage", "N 4000000000", "N"},
        {"WorkPackage", "W 4000000000", "W"},
        {"VLANEncap", "65536", "VLAN_ID"},
        {"FromDPDKDevice", "PORT 4294967296", "PORT"},
    };
    for (const Case &c : cases) {
        std::string err;
        EXPECT_FALSE(r.create(c.cls)->configure({c.arg}, &err))
            << c.cls << " " << c.arg;
        EXPECT_NE(err.find(std::string(c.keyword) + " expects"),
                  std::string::npos)
            << err;
    }
    // The values at the bounds, and Napt's 0 (no aging), still
    // configure.
    std::string err;
    EXPECT_TRUE(r.create("Napt")->configure(
        {"SRCIP 10.0.0.1", "CAPACITY 524288", "IDLE_TIMEOUT_MS 0.001"},
        &err))
        << err;
    EXPECT_TRUE(r.create("Napt")->configure(
        {"SRCIP 10.0.0.1", "IDLE_TIMEOUT_MS 0"}, &err))
        << err;
    EXPECT_TRUE(r.create("IdsCheck")->configure(
        {"CONNTRACK 4096", "IDLE_TIMEOUT_MS 0.001"}, &err))
        << err;
    EXPECT_TRUE(r.create("WorkPackage")
                    ->configure({"S 64", "N 1024", "W 1024"}, &err))
        << err;
}

TEST(ElementConfigure, UnknownKeywordFailsWithoutAnErrorString)
{
    register_standard_elements();
    auto &r = ElementRegistry::instance();
    for (const char *cls : {"FromDPDKDevice", "ToDPDKDevice", "EtherRewrite",
                            "IdsCheck", "VLANEncap", "Napt", "WorkPackage"})
        EXPECT_FALSE(r.create(cls)->configure({"BOGUS 1"}, nullptr)) << cls;
}

TEST(Pipeline, BuildRejectsKeywordsThatWouldExhaustTheHost)
{
    for (const auto &[elem, keyword] :
         {std::pair{"WorkPackage(S 4000000)", "S"},
          std::pair{"Napt(SRCIP 10.0.0.1, CAPACITY 4000000000)",
                    "CAPACITY"}}) {
        SimMemory mem;
        std::string err;
        const std::string config =
            std::string("in :: FromDPDKDevice(PORT 0); in -> ") + elem +
            " -> Discard;";
        EXPECT_EQ(Pipeline::build(config, mem, PipelineOpts::vanilla(), &err),
                  nullptr)
            << elem;
        EXPECT_NE(err.find(std::string(keyword) + " expects an integer"),
                  std::string::npos)
            << err;
    }
}

// The RX burst is FromDPDKDevice's BURST; ToDPDKDevice takes none and
// FromDPDKDevice no N_QUEUES (the engine gives every core one queue per
// NIC), so a config setting either fails instead of being ignored.
TEST(Pipeline, BuildRejectsUnreadDeviceKeywords)
{
    for (const auto &[config, expect] :
         {std::pair{"in :: FromDPDKDevice(PORT 0); out :: "
                    "ToDPDKDevice(PORT 0, BURST 8); in -> out;",
                    "ToDPDKDevice: unknown key 'BURST'"},
          std::pair{"in :: FromDPDKDevice(PORT 0, N_QUEUES 1); out :: "
                    "ToDPDKDevice(PORT 0); in -> out;",
                    "FromDPDKDevice: unknown key 'N_QUEUES'"},
          std::pair{"in :: FromDPDKDevice(PORT 0, BURST 0); out :: "
                    "ToDPDKDevice(PORT 0); in -> out;",
                    "FromDPDKDevice: BURST expects an integer in [1, 64]"}}) {
        SimMemory mem;
        std::string err;
        EXPECT_EQ(Pipeline::build(config, mem, PipelineOpts::vanilla(), &err),
                  nullptr)
            << config;
        EXPECT_NE(err.find(expect), std::string::npos) << err;
    }
}

TEST(MetadataLayout, AllFieldsHaveDistinctOffsets)
{
    for (const MetadataLayout &l :
         {make_copying_layout(), make_overlay_layout(), make_xchg_layout()}) {
        for (std::size_t i = 0; i < kNumFields; ++i) {
            for (std::size_t j = i + 1; j < kNumFields; ++j) {
                const Field a = static_cast<Field>(i);
                const Field b = static_cast<Field>(j);
                // One-line layouts deliberately alias the park ticket
                // onto the tail of the never-dereferenced kMbufPtr
                // slot to stay within a single cache line
                // (make_xchg_layout).
                if (l.total_bytes == 64 && a == Field::kMbufPtr &&
                    b == Field::kParkTicket)
                    continue;
                const std::uint32_t a0 = l.offset_of(a);
                const std::uint32_t a1 = a0 + field_size(a);
                const std::uint32_t b0 = l.offset_of(b);
                const std::uint32_t b1 = b0 + field_size(b);
                EXPECT_TRUE(a1 <= b0 || b1 <= a0)
                    << l.name << ": " << field_name(a) << " overlaps "
                    << field_name(b);
            }
        }
    }
}

// X-Change's line is Parking's too: the park ticket sits at offset 60,
// inside the one line.
TEST(MetadataLayout, XchgFitsOneLine)
{
    MetadataLayout l = make_xchg_layout();
    EXPECT_EQ(l.total_bytes, 64u);
    EXPECT_EQ(l.offset_of(Field::kParkTicket), 60u);
    std::vector<Field> all;
    for (std::size_t i = 0; i < kNumFields; ++i)
        all.push_back(static_cast<Field>(i));
    EXPECT_EQ(l.lines_spanned(all), 1u);
}

TEST(MetadataLayout, CopyingSpansThreeLines)
{
    MetadataLayout l = make_copying_layout();
    std::vector<Field> all;
    for (std::size_t i = 0; i < kNumFields; ++i)
        all.push_back(static_cast<Field>(i));
    EXPECT_EQ(l.lines_spanned(all), 3u);
}

TEST(MetadataLayout, FactoriesPlaceEveryFieldWithinBounds)
{
    std::vector<Field> all;
    for (std::size_t i = 0; i < kNumFields; ++i)
        all.push_back(static_cast<Field>(i));
    for (const MetadataLayout &l :
         {make_copying_layout(), make_overlay_layout(), make_xchg_layout()}) {
        EXPECT_FALSE(l.name.empty());
        EXPECT_GT(l.total_bytes, 0u) << l.name;
        for (Field f : all)
            EXPECT_LE(l.offset_of(f) + field_size(f), l.total_bytes)
                << l.name << ": " << field_name(f)
                << " extends past the object";
    }
}

TEST(MetadataLayout, LinesSpannedEdgeCases)
{
    const MetadataLayout l = make_copying_layout();
    // An empty field list spans zero lines, not one.
    EXPECT_EQ(l.lines_spanned({}), 0u);
    // A value straddling a line boundary contributes both lines:
    // relocate the 8-byte timestamp across the line-0/line-1 edge.
    MetadataLayout s = l;
    s.offset[static_cast<std::size_t>(Field::kTimestamp)] = 60;
    EXPECT_EQ(s.lines_spanned({Field::kTimestamp}), 2u);
    // Repeats and same-line neighbours count each line once.
    EXPECT_EQ(s.lines_spanned({Field::kTimestamp, Field::kTimestamp}),
              2u);
    EXPECT_EQ(l.lines_spanned({Field::kMbufPtr, Field::kNextPtr}), 1u);
    // A value ending exactly at a line boundary stays on one line.
    MetadataLayout e = l;
    e.offset[static_cast<std::size_t>(Field::kTimestamp)] = 56;
    EXPECT_EQ(e.lines_spanned({Field::kTimestamp}), 1u);
}

TEST(PacketView, RoundTripsValuesThroughAnyLayout)
{
    for (const MetadataLayout &l :
         {make_copying_layout(), make_overlay_layout(), make_xchg_layout()}) {
        std::uint8_t backing[192] = {};
        PacketHandle h;
        h.meta_host = backing;
        h.meta_addr = 0x1000;
        PacketView v(h, l, nullptr);
        v.write(Field::kLen, 1234);
        v.write(Field::kVlanTci, 99);
        v.write(Field::kDataAddr, 0xDEADBEEFCAFEull);
        v.write_time(Field::kTimestamp, 3.5);
        v.write(Field::kParkTicket, 77);
        EXPECT_EQ(v.read(Field::kLen), 1234u) << l.name;
        EXPECT_EQ(v.read(Field::kParkTicket), 77u) << l.name;
        EXPECT_EQ(v.read(Field::kVlanTci), 99u) << l.name;
        EXPECT_EQ(v.read(Field::kDataAddr), 0xDEADBEEFCAFEull) << l.name;
        EXPECT_DOUBLE_EQ(v.read_time(Field::kTimestamp), 3.5) << l.name;
    }
}

TEST(PacketBatch, CompactPreservesOrder)
{
    PacketBatch b;
    b.count = 5;
    for (std::uint32_t i = 0; i < 5; ++i) {
        b[i].len = i;
        b[i].dropped = (i % 2 == 1);
    }
    b.compact();
    ASSERT_EQ(b.count, 3u);
    EXPECT_EQ(b[0].len, 0u);
    EXPECT_EQ(b[1].len, 2u);
    EXPECT_EQ(b[2].len, 4u);
}

TEST(Pipeline, BuildRejectsBadConfigs)
{
    SimMemory mem;
    std::string err;
    EXPECT_EQ(Pipeline::build("x :: NoSuchClass;", mem,
                              PipelineOpts::vanilla(), &err),
              nullptr);
    EXPECT_EQ(Pipeline::build("x :: Discard;", mem,
                              PipelineOpts::vanilla(), &err),
              nullptr)
        << "needs a FromDPDKDevice";
    EXPECT_EQ(Pipeline::build("in :: FromDPDKDevice(PORT 0);", mem,
                              PipelineOpts::vanilla(), &err),
              nullptr)
        << "source must be connected";
}

TEST(Pipeline, FindAndBurst)
{
    SimMemory mem;
    std::string err;
    auto p = Pipeline::build(R"(
        in :: FromDPDKDevice(PORT 0, BURST 16);
        in -> Counter -> Discard;
    )",
                             mem, PipelineOpts::vanilla(), &err);
    ASSERT_NE(p, nullptr) << err;
    EXPECT_EQ(p->burst(), 16u);
    EXPECT_NE(p->find("in"), nullptr);
    EXPECT_NE(p->find_class("Counter"), nullptr);
    EXPECT_EQ(p->find("nope"), nullptr);
}

TEST(Pipeline, StaticGraphPlacesStateInArena)
{
    SimMemory mem;
    std::string err;
    PipelineOpts o;
    o.static_graph = true;
    auto p = Pipeline::build(
        "in :: FromDPDKDevice(PORT 0); in -> Counter -> Discard;", mem, o,
        &err);
    ASSERT_NE(p, nullptr) << err;
    EXPECT_GT(mem.allocated_bytes(Region::kStaticArena), 0u);

    SimMemory mem2;
    auto p2 = Pipeline::build(
        "in :: FromDPDKDevice(PORT 0); in -> Counter -> Discard;", mem2,
        PipelineOpts::vanilla(), &err);
    ASSERT_NE(p2, nullptr) << err;
    EXPECT_EQ(mem2.allocated_bytes(Region::kStaticArena), 0u);
    EXPECT_GT(mem2.allocated_bytes(Region::kHeap), 0u);
}

} // namespace
} // namespace pmill
