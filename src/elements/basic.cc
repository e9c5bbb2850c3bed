/**
 * @file
 * Basic elements: device endpoints, Ethernet manipulation,
 * classification, ARP, counting, discarding, queuing.
 */

#include <algorithm>
#include <cstring>

#include "src/common/log.hh"
#include "src/elements/args.hh"
#include "src/elements/elements.hh"
#include "src/framework/config_parser.hh"
#include "src/net/byteorder.hh"
#include "src/net/packet_builder.hh"

namespace pmill {

bool
FromDPDKDevice::configure(const std::vector<std::string> &args,
                          std::string *err)
{
    const Param keywords[] = {
        {"PORT", &port_, 0, UINT32_MAX, "NIC port"},
        {"BURST", &burst_, 1, kMaxBurst, "RX burst size"},
    };
    return configure_keywords(class_name(), args, keywords, err);
}

bool
ToDPDKDevice::configure(const std::vector<std::string> &args,
                        std::string *err)
{
    const Param keywords[] = {
        {"PORT", &port_, 0, UINT32_MAX, "NIC port"},
    };
    return configure_keywords(class_name(), args, keywords, err);
}

void
ToDPDKDevice::process(PacketBatch &batch, ExecContext &)
{
    // Stamp the egress device; the engine's datapath transmits.
    for (std::uint32_t i = 0; i < batch.count; ++i)
        batch[i].out_port = static_cast<std::uint8_t>(port_);
}

void
EtherMirror::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);

        ctx.load(h.data_addr, 12);
        auto *eth = reinterpret_cast<EtherHeader *>(h.data);
        std::swap(eth->src, eth->dst);
        ctx.store(h.data_addr, 12);
        ctx.on_compute(4, 10);
    }
}

void
EtherMirror::access_profile(std::vector<Field> &reads,
                            std::vector<Field> &) const
{
    reads.push_back(Field::kDataAddr);
}

bool
EtherRewrite::configure(const std::vector<std::string> &args,
                        std::string *err)
{
    const Param keywords[] = {
        {"SRC", &src_, "source MAC"},
        {"DST", &dst_, "destination MAC"},
    };
    return configure_keywords(class_name(), args, keywords, err);
}

void
EtherRewrite::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);
        ctx.param_load(state_, 0);  // SRC
        ctx.param_load(state_, 1);  // DST

        auto *eth = reinterpret_cast<EtherHeader *>(h.data);
        eth->src = src_;
        eth->dst = dst_;
        ctx.store(h.data_addr, 12);
        ctx.on_compute(3, 8);
    }
}

void
EtherRewrite::access_profile(std::vector<Field> &reads,
                             std::vector<Field> &) const
{
    reads.push_back(Field::kDataAddr);
}

bool
Classifier::configure(const std::vector<std::string> &args,
                      std::string *err)
{
    patterns_.clear();
    for (const auto &a : args) {
        if (a == "ARP") {
            patterns_.push_back(Pattern::kArp);
        } else if (a == "IP") {
            patterns_.push_back(Pattern::kIp);
        } else if (a == "-") {
            patterns_.push_back(Pattern::kAny);
        } else if (err) {
            *err = "Classifier: unknown pattern '" + a + "'";
            return false;
        }
    }
    if (patterns_.empty()) {
        if (err)
            *err = "Classifier needs at least one pattern";
        return false;
    }
    order_.clear();
    for (std::uint32_t i = 0; i < patterns_.size(); ++i)
        order_.push_back(i);
    hits_.assign(patterns_.size(), 0);
    return true;
}

void
Classifier::reset_rule_hits()
{
    hits_.assign(patterns_.size(), 0);
}

bool
Classifier::patterns_overlap(Pattern a, Pattern b)
{
    // Some packet matches both patterns: '-' (kAny) overlaps every
    // pattern, equal patterns overlap trivially, and kArp/kIp are
    // disjoint EtherType tests.
    return a == b || a == Pattern::kAny || b == Pattern::kAny;
}

bool
Classifier::apply_rule_order(const std::vector<std::uint32_t> &order)
{
    // Accept only a full permutation of the pattern indices; anything
    // else could silently drop patterns from the match order.
    if (order.size() != patterns_.size())
        return false;
    std::vector<std::uint32_t> pos(patterns_.size(), 0);
    std::vector<bool> seen(patterns_.size(), false);
    for (std::uint32_t r = 0; r < order.size(); ++r) {
        const std::uint32_t idx = order[r];
        if (idx >= patterns_.size() || seen[idx])
            return false;
        seen[idx] = true;
        pos[idx] = r;
    }
    // First-match semantics: moving a pattern ahead of an
    // earlier-configured pattern it overlaps with changes which
    // pattern wins (and hence out_port), so such orders are refused —
    // the catch-all in Classifier(ARP, -) must keep trying last even
    // when it is the most-hit rule.
    for (std::uint32_t i = 0; i < patterns_.size(); ++i)
        for (std::uint32_t j = i + 1; j < patterns_.size(); ++j)
            if (patterns_overlap(patterns_[i], patterns_[j]) &&
                pos[i] > pos[j])
                return false;
    order_ = order;
    return true;
}

void
Classifier::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);

        ctx.load(h.data_addr + 12, 2);  // EtherType
        const auto *eth = reinterpret_cast<const EtherHeader *>(h.data);
        const std::uint16_t type = eth->ether_type();

        // Patterns are tried in match order; each comparison costs a
        // cycle, so a profile-hot first pattern is cheaper on average.
        h.dropped = true;
        std::size_t tried = 0;
        for (std::uint32_t p : order_) {
            ++tried;
            const bool match =
                (patterns_[p] == Pattern::kAny) ||
                (patterns_[p] == Pattern::kArp && type == kEtherTypeArp) ||
                (patterns_[p] == Pattern::kIp && type == kEtherTypeIpv4);
            if (match) {
                h.out_port = static_cast<std::uint8_t>(p);
                h.dropped = false;
                ++hits_[p];
                break;
            }
        }
        ctx.on_compute(3.0 + 1.0 * static_cast<double>(tried),
                       4.0 + 2.0 * static_cast<double>(tried));
    }
}

void
Classifier::access_profile(std::vector<Field> &reads,
                           std::vector<Field> &) const
{
    reads.push_back(Field::kDataAddr);
}

bool
ARPResponder::configure(const std::vector<std::string> &args,
                        std::string *err)
{
    for (const auto &a : args) {
        Ipv4Addr ip;
        MacAddr m;
        if (parse_ipv4(a, &ip)) {
            ip_ = ip;
        } else if (parse_mac(a, &m)) {
            mac_ = m;
        } else if (err) {
            *err = "ARPResponder: bad argument '" + a + "'";
            return false;
        }
    }
    return true;
}

void
ARPResponder::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);
        ctx.load(h.data_addr, kEtherHeaderLen + sizeof(ArpHeader));
        ctx.param_load(state_, 0);

        auto *eth = reinterpret_cast<EtherHeader *>(h.data);
        if (eth->ether_type() != kEtherTypeArp ||
            h.len < kEtherHeaderLen + sizeof(ArpHeader)) {
            h.dropped = true;
            continue;
        }
        auto *arp =
            reinterpret_cast<ArpHeader *>(h.data + kEtherHeaderLen);
        // Turn the request into a reply in place.
        arp->oper_be = hton16(2);
        arp->target_mac = arp->sender_mac;
        arp->target_ip_be = arp->sender_ip_be;
        arp->sender_mac = mac_;
        arp->sender_ip_be = hton32(ip_.value);
        eth->dst = eth->src;
        eth->src = mac_;
        ctx.store(h.data_addr, kEtherHeaderLen + sizeof(ArpHeader));
        ctx.on_compute(8, 20);
    }
}

void
Counter::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        ++packets_;
        bytes_ += batch[i].len;
    }
    // One counter-line update per batch (amortized in FastClick).
    ctx.load(state_.addr, 16);
    ctx.store(state_.addr, 16);
    ctx.on_compute(2.0 * batch.count, 4.0 * batch.count);
}

void
Discard::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i)
        batch[i].dropped = true;
    ctx.on_compute(1.0 * batch.count, 2.0 * batch.count);
}

void
Queue::process(PacketBatch &batch, ExecContext &ctx)
{
    // Run-to-completion stand-in: account the enqueue/dequeue stores
    // against the queue's ring storage; packets pass through.
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        v.write(Field::kNextPtr, 0);
        const std::uint64_t slot = (cursor_++) % (state_.size / 8);
        ctx.store(state_.addr + slot * 8, 8);
        ctx.load(state_.addr + slot * 8, 8);
        ctx.on_compute(4, 10);
    }
}

} // namespace pmill
