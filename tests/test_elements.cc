/**
 * @file
 * Per-element functional unit tests: each element is driven directly
 * with hand-built batches and its byte-level behaviour verified
 * (headers really rewritten, checksums really valid, state really
 * kept) independent of the engine.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/elements/elements.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/checksum.hh"
#include "src/net/packet_builder.hh"

namespace pmill {
namespace {

/** Harness owning everything an element needs to run standalone. */
class ElementHarness {
  public:
    ElementHarness()
        : caches_(CacheConfig{}),
          ctx_(caches_, CostModel{}, PipelineOpts::vanilla(), 2.3),
          layout_(make_copying_layout())
    {
        buffers_ = mem_.alloc(kMaxBurst * kStride, 64, Region::kPacketData);
        metas_ = mem_.alloc(kMaxBurst * 192, 64, Region::kMetadataPool);
    }

    /** Configure + initialize @p e, asserting success. */
    void
    prepare(Element &e, const std::vector<std::string> &args = {})
    {
        std::string err;
        ASSERT_TRUE(e.configure(args, &err)) << err;
        e.set_state(mem_.alloc(std::max(e.state_bytes(), 64u), 64,
                               Region::kHeap));
        e.set_layout(&layout_);
        ASSERT_TRUE(e.initialize(mem_, &err)) << err;
    }

    /** Add a frame to the batch (copied into simulated memory). */
    PacketHandle &
    add(const std::vector<std::uint8_t> &frame)
    {
        const std::uint32_t i = batch_.count;
        EXPECT_LT(i, kMaxBurst);
        std::uint8_t *host = buffers_.host + i * kStride + kHeadroom;
        std::memcpy(host, frame.data(), frame.size());

        PacketHandle &h = batch_[i];
        h.data = host;
        h.data_addr = buffers_.addr + i * kStride + kHeadroom;
        h.len = static_cast<std::uint32_t>(frame.size());
        h.meta_host = metas_.host + i * 192;
        h.meta_addr = metas_.addr + i * 192;
        h.dropped = false;
        h.out_port = 0;
        ++batch_.count;

        // Elements downstream of CheckIPHeader expect the L3 offset.
        PacketView v(h, layout_, nullptr);
        v.write(Field::kL3Offset, kEtherHeaderLen);
        v.write(Field::kDataAddr, h.data_addr);
        v.write(Field::kLen, h.len);
        return h;
    }

    void run(Element &e) { e.process(batch_, ctx_); }

    PacketBatch &batch() { return batch_; }
    ExecContext &ctx() { return ctx_; }
    SimMemory &mem() { return mem_; }

    static constexpr std::uint32_t kHeadroom = 128;
    static constexpr std::uint32_t kStride = 2048;

  private:
    SimMemory mem_;
    CacheHierarchy caches_;
    ExecContext ctx_;
    MetadataLayout layout_;
    MemHandle buffers_;
    MemHandle metas_;
    PacketBatch batch_;
};

TEST(ElemEtherMirror, SwapsAddresses)
{
    ElementHarness h;
    EtherMirror e;
    h.prepare(e);
    FrameSpec spec;
    spec.src_mac = MacAddr::make(1, 1, 1, 1, 1, 1);
    spec.dst_mac = MacAddr::make(2, 2, 2, 2, 2, 2);
    PacketHandle &p = h.add(build_frame(spec));
    h.run(e);
    const auto *eth = reinterpret_cast<const EtherHeader *>(p.data);
    EXPECT_EQ(eth->src, spec.dst_mac);
    EXPECT_EQ(eth->dst, spec.src_mac);
}

TEST(ElemEtherRewrite, SetsConfiguredAddresses)
{
    ElementHarness h;
    EtherRewrite e;
    h.prepare(e, {"SRC 0a:0b:0c:0d:0e:0f", "DST 10:11:12:13:14:15"});
    PacketHandle &p = h.add(build_frame(FrameSpec{}));
    h.run(e);
    const auto *eth = reinterpret_cast<const EtherHeader *>(p.data);
    EXPECT_EQ(eth->src, MacAddr::make(0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f));
    EXPECT_EQ(eth->dst, MacAddr::make(0x10, 0x11, 0x12, 0x13, 0x14, 0x15));
}

TEST(ElemClassifier, RoutesByEtherType)
{
    ElementHarness h;
    Classifier e;
    h.prepare(e, {"ARP", "IP", "-"});
    EXPECT_EQ(e.num_outputs(), 3u);
    PacketHandle &ip = h.add(build_frame(FrameSpec{}));
    PacketHandle &arp = h.add(build_arp_frame(
        MacAddr::make(2, 0, 0, 0, 0, 1), Ipv4Addr::make(10, 0, 0, 1),
        Ipv4Addr::make(10, 0, 0, 2)));
    h.run(e);
    EXPECT_EQ(arp.out_port, 0);
    EXPECT_EQ(ip.out_port, 1);
    EXPECT_FALSE(ip.dropped);
    EXPECT_FALSE(arp.dropped);
}

TEST(ElemClassifier, DropsUnmatched)
{
    ElementHarness h;
    Classifier e;
    h.prepare(e, {"ARP"});  // only ARP matches
    PacketHandle &ip = h.add(build_frame(FrameSpec{}));
    h.run(e);
    EXPECT_TRUE(ip.dropped);
}

TEST(ElemArpResponder, BuildsReplyInPlace)
{
    ElementHarness h;
    ARPResponder e;
    h.prepare(e, {"10.0.0.1", "02:00:00:00:00:10"});
    PacketHandle &p = h.add(build_arp_frame(
        MacAddr::make(2, 0, 0, 0, 0, 99), Ipv4Addr::make(10, 0, 0, 7),
        Ipv4Addr::make(10, 0, 0, 1)));
    h.run(e);
    ASSERT_FALSE(p.dropped);
    const auto *arp =
        reinterpret_cast<const ArpHeader *>(p.data + kEtherHeaderLen);
    EXPECT_EQ(ntoh16(arp->oper_be), 2);  // reply
    EXPECT_EQ(arp->sender_mac, MacAddr::make(2, 0, 0, 0, 0, 0x10));
    EXPECT_EQ(ntoh32(arp->sender_ip_be), Ipv4Addr::make(10, 0, 0, 1).value);
    EXPECT_EQ(arp->target_mac, MacAddr::make(2, 0, 0, 0, 0, 99));
    const auto *eth = reinterpret_cast<const EtherHeader *>(p.data);
    EXPECT_EQ(eth->dst, MacAddr::make(2, 0, 0, 0, 0, 99));
}

TEST(ElemCheckIPHeader, AcceptsValidAndAnnotates)
{
    ElementHarness h;
    CheckIPHeader e;
    h.prepare(e);
    PacketHandle &p = h.add(build_frame(FrameSpec{}));
    h.run(e);
    EXPECT_FALSE(p.dropped);
    PacketView v(p, *e.layout(), nullptr);
    EXPECT_EQ(v.read(Field::kL3Offset), kEtherHeaderLen);
    EXPECT_EQ(e.dropped(), 0u);
}

TEST(ElemCheckIPHeader, DropsBadChecksum)
{
    ElementHarness h;
    CheckIPHeader e;
    h.prepare(e);
    FrameSpec spec;
    spec.good_l3_checksum = false;
    PacketHandle &p = h.add(build_frame(spec));
    h.run(e);
    EXPECT_TRUE(p.dropped);
    EXPECT_EQ(e.dropped(), 1u);
}

TEST(ElemCheckIPHeader, DropsTruncatedAndBadVersion)
{
    ElementHarness h;
    CheckIPHeader e;
    h.prepare(e);
    auto frame = build_frame(FrameSpec{});
    frame[kEtherHeaderLen] = 0x65;  // version 6, ihl 5
    PacketHandle &bad_ver = h.add(frame);
    std::vector<std::uint8_t> tiny(frame.begin(), frame.begin() + 20);
    PacketHandle &trunc = h.add(tiny);
    h.run(e);
    EXPECT_TRUE(bad_ver.dropped);
    EXPECT_TRUE(trunc.dropped);
}

TEST(ElemDecIPTTL, DecrementsAndKeepsChecksumValid)
{
    ElementHarness h;
    DecIPTTL e;
    h.prepare(e);
    FrameSpec spec;
    spec.ttl = 17;
    PacketHandle &p = h.add(build_frame(spec));
    h.run(e);
    ASSERT_FALSE(p.dropped);
    const auto *ip =
        reinterpret_cast<const Ipv4Header *>(p.data + kEtherHeaderLen);
    EXPECT_EQ(ip->ttl, 16);
    EXPECT_EQ(internet_checksum(p.data + kEtherHeaderLen, kIpv4HeaderLen),
              0)
        << "incremental checksum update must stay valid";
}

TEST(ElemDecIPTTL, DropsExpired)
{
    ElementHarness h;
    DecIPTTL e;
    h.prepare(e);
    FrameSpec spec;
    spec.ttl = 1;
    PacketHandle &p = h.add(build_frame(spec));
    h.run(e);
    EXPECT_TRUE(p.dropped);
}

TEST(ElemIPLookup, RoutesToConfiguredPorts)
{
    ElementHarness h;
    IPLookup e;
    h.prepare(e, {"10.0.0.0/8 0", "20.0.0.0/8 1", "0.0.0.0/0 2"});
    EXPECT_EQ(e.num_outputs(), 3u);

    FrameSpec a;
    a.flow.dst_ip = Ipv4Addr::make(10, 1, 2, 3);
    FrameSpec b;
    b.flow.dst_ip = Ipv4Addr::make(20, 1, 2, 3);
    FrameSpec c;
    c.flow.dst_ip = Ipv4Addr::make(99, 1, 2, 3);
    PacketHandle &pa = h.add(build_frame(a));
    PacketHandle &pb = h.add(build_frame(b));
    PacketHandle &pc = h.add(build_frame(c));
    h.run(e);
    EXPECT_EQ(pa.out_port, 0);
    EXPECT_EQ(pb.out_port, 1);
    EXPECT_EQ(pc.out_port, 2);
    PacketView v(pa, *e.layout(), nullptr);
    EXPECT_EQ(v.read(Field::kDstIpAnno), a.flow.dst_ip.value);
}

TEST(ElemIdsCheck, AcceptsSaneHeaders)
{
    ElementHarness h;
    IdsCheck e;
    h.prepare(e);
    for (std::uint8_t proto : {kIpProtoTcp, kIpProtoUdp, kIpProtoIcmp}) {
        FrameSpec spec;
        spec.flow.proto = proto;
        spec.frame_len = 128;
        h.add(build_frame(spec));
    }
    h.run(e);
    for (std::uint32_t i = 0; i < h.batch().count; ++i)
        EXPECT_FALSE(h.batch()[i].dropped) << i;
    EXPECT_EQ(e.flagged(), 0u);
}

TEST(ElemIdsCheck, FlagsBadLengthsAndFlags)
{
    ElementHarness h;
    IdsCheck e;
    h.prepare(e);

    FrameSpec bad_udp;
    bad_udp.flow.proto = kIpProtoUdp;
    bad_udp.good_l4_lengths = false;  // UDP length != IP payload
    PacketHandle &p1 = h.add(build_frame(bad_udp));

    FrameSpec synfin;
    synfin.flow.proto = kIpProtoTcp;
    auto f = build_frame(synfin);
    auto *tcp = reinterpret_cast<TcpHeader *>(f.data() + kEtherHeaderLen +
                                              kIpv4HeaderLen);
    tcp->flags = 0x03;  // SYN+FIN
    PacketHandle &p2 = h.add(f);

    h.run(e);
    EXPECT_TRUE(p1.dropped);
    EXPECT_TRUE(p2.dropped);
    EXPECT_EQ(e.flagged(), 2u);
}

TEST(ElemVlanEncap, EncapsulatesAndParsesBack)
{
    ElementHarness h;
    VlanEncap e;
    h.prepare(e, {"VLAN_ID 42"});
    FrameSpec spec;
    spec.frame_len = 100;
    PacketHandle &p = h.add(build_frame(spec));
    const std::uint32_t before = p.len;
    h.run(e);
    EXPECT_EQ(p.len, before + kVlanHeaderLen);

    FrameView v = parse_frame(p.data, p.len);
    ASSERT_NE(v.vlan, nullptr);
    EXPECT_EQ(v.vlan->vlan_id(), 42);
    ASSERT_NE(v.ip, nullptr) << "inner IPv4 must still parse";
    EXPECT_EQ(v.l3_offset, kEtherHeaderLen + kVlanHeaderLen);
    EXPECT_EQ(internet_checksum(
                  reinterpret_cast<const std::uint8_t *>(v.ip),
                  kIpv4HeaderLen),
              0);
}

TEST(ElemNapt, RewritesSourceConsistently)
{
    ElementHarness h;
    Napt e;
    h.prepare(e, {"SRCIP 100.0.0.1"});

    FrameSpec spec;
    spec.flow.src_ip = Ipv4Addr::make(10, 0, 0, 5);
    spec.flow.src_port = 5555;
    PacketHandle &p1 = h.add(build_frame(spec));
    PacketHandle &p2 = h.add(build_frame(spec));  // same flow again
    FrameSpec other = spec;
    other.flow.src_port = 6666;  // different flow
    PacketHandle &p3 = h.add(build_frame(other));
    h.run(e);

    auto tuple_of = [](PacketHandle &p) {
        return extract_tuple(p.data, p.len);
    };
    const FiveTuple t1 = tuple_of(p1), t2 = tuple_of(p2),
                    t3 = tuple_of(p3);
    EXPECT_EQ(t1.src_ip, Ipv4Addr::make(100, 0, 0, 1));
    EXPECT_EQ(t1.src_port, t2.src_port)
        << "same flow must map to the same external port";
    EXPECT_NE(t1.src_port, t3.src_port)
        << "different flows must get different external ports";
    EXPECT_EQ(e.active_mappings(), 2u);

    // The IP checksum must remain valid after the rewrite.
    EXPECT_EQ(internet_checksum(p1.data + kEtherHeaderLen, kIpv4HeaderLen),
              0);
}

TEST(ElemNapt, PassesNonTcpUdpUnchanged)
{
    ElementHarness h;
    Napt e;
    h.prepare(e, {"SRCIP 100.0.0.1"});
    FrameSpec spec;
    spec.flow.proto = kIpProtoIcmp;
    PacketHandle &p = h.add(build_frame(spec));
    h.run(e);
    EXPECT_FALSE(p.dropped);
    EXPECT_EQ(extract_tuple(p.data, p.len).src_ip, spec.flow.src_ip);
    EXPECT_EQ(e.active_mappings(), 0u);
}

TEST(ElemWorkPackage, TouchesScratchDeterministically)
{
    ElementHarness h;
    WorkPackage e;
    h.prepare(e, {"S 1", "N 3", "W 2"});
    h.add(build_frame(FrameSpec{}));
    h.add(build_frame(FrameSpec{}));
    const std::uint64_t before = e.checksum();
    h.run(e);
    EXPECT_NE(e.checksum(), before)
        << "accesses must really read the scratch region";
    // Accounted: at least N accesses per packet happened.
    EXPECT_GE(h.ctx().counters().accesses, 2u * 3u);
}

TEST(ElemCounter, CountsPacketsAndBytes)
{
    ElementHarness h;
    Counter e;
    h.prepare(e);
    h.add(build_frame(FrameSpec{}));
    FrameSpec big;
    big.frame_len = 1000;
    h.add(build_frame(big));
    h.run(e);
    EXPECT_EQ(e.packets(), 2u);
    EXPECT_GE(e.bytes(), 1060u);
}

TEST(ElemDiscard, DropsAll)
{
    ElementHarness h;
    Discard e;
    h.prepare(e);
    h.add(build_frame(FrameSpec{}));
    h.add(build_frame(FrameSpec{}));
    h.run(e);
    EXPECT_TRUE(h.batch()[0].dropped);
    EXPECT_TRUE(h.batch()[1].dropped);
}

} // namespace
} // namespace pmill
