#include "src/workload/workload.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>

#include "src/common/log.hh"
#include "src/elements/args.hh"
#include "src/net/flow.hh"
#include "src/net/packet_builder.hh"

namespace pmill {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMaxFlows = 1ull << 26;

/// WorkloadSpec::Kind's names, in declaration order.
constexpr const char *kKindNames[] = {"uniform", "zipf", "churn", "synflood",
                                      "portscan"};

bool
kind_from_name(const std::string &name, WorkloadSpec::Kind *out)
{
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (name == kKindNames[k]) {
            *out = static_cast<WorkloadSpec::Kind>(k);
            return true;
        }
    }
    return false;
}

/// Defaults that make the bare kind name a sensible profile; explicit
/// keys parsed afterwards override them.
void
apply_kind_defaults(WorkloadSpec *spec)
{
    switch (spec->kind) {
    case WorkloadSpec::kUniform:
        break;
    case WorkloadSpec::kZipf:
        spec->skew = 1.0;
        break;
    case WorkloadSpec::kChurn:
        spec->skew = 1.0;
        spec->flow_pkts = 32;
        break;
    case WorkloadSpec::kSynFlood:
        spec->flows = 1ull << 20;  // spoofed-source universe
        spec->frame_len = 64;
        break;
    case WorkloadSpec::kPortScan:
        spec->flows = 65536;
        spec->frame_len = 64;
        break;
    }
}

/// The keys after the kind, in to_string() order.
std::array<Param, 10>
spec_params(WorkloadSpec *s)
{
    return {{
        {"flows", &s->flows, 1, kMaxFlows, "flow-universe size"},
        {"skew", &s->skew, 0.0, 4.0, "Zipf exponent"},
        {"pkts", &s->flow_pkts, 0, UINT64_MAX,
         "mean packets per flow (0 = immortal)"},
        {"len", &s->frame_len, kMinFrameLen, kMaxFrameLen,
         "data-frame bytes (0 = campus mix)", true},
        {"udp", &s->udp_frac, 0.0, 1.0, "fraction of UDP flows"},
        {"burst", &s->burst, 1.0, 1000.0, "peak-to-mean arrival ratio"},
        {"phase", &s->phase_pkts, 2.0, BurstModulator::kMaxPhasePkts,
         "mean packets per burst cycle"},
        {"seed", &s->seed, 0, UINT64_MAX, "master seed"},
        {"victim", &s->victim, "flood/scan target"},
        {"vport", &s->victim_port, 1, 65535, "flood target port"},
    }};
}

} // namespace

const char *
WorkloadSpec::kind_name(Kind k)
{
    return k < std::size(kKindNames) ? kKindNames[k] : "?";
}

bool
WorkloadSpec::parse(const std::string &text, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    auto set_kind = [&](const std::string &name) {
        if (!kind_from_name(name, &kind))
            return fail("unknown workload kind '" + name + "'");
        apply_kind_defaults(this);
        return true;
    };
    // A "kind:" prefix, or a bare kind name.
    std::string body = text;
    std::size_t colon = body.find(':');
    if (colon == std::string::npos && body.find('=') == std::string::npos)
        colon = body.size();
    if (colon != std::string::npos) {
        if (!set_kind(body.substr(0, colon)))
            return false;
        body.erase(0, colon + 1);
    }

    const std::array<Param, 10> params = spec_params(this);
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        const std::string pair = body.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        if (!(key == "kind" ? set_kind(val)
                            : set_param(params, key, val, error)))
            return false;
    }
    return true;
}

std::string
WorkloadSpec::to_string() const
{
    WorkloadSpec s = *this;
    return std::string(kind_name(kind)) + ":" +
           render_params(spec_params(&s));
}

bool
load_workload_spec(const std::string &arg, WorkloadSpec *spec,
                   std::string *error)
{
    std::ifstream in(arg);
    if (!in.is_open())
        return spec->parse(arg, error);

    // File form: one key per line, '#' comments, joined with ','.
    std::string joined;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const std::size_t e = line.find_last_not_of(" \t\r");
        if (!joined.empty())
            joined += ',';
        joined += line.substr(b, e - b + 1);
    }
    if (!spec->parse(joined, error)) {
        if (error)
            *error = arg + ": " + *error;
        return false;
    }
    return true;
}

WorkloadSource::WorkloadSource(const WorkloadSpec &spec, std::uint32_t stream)
    : spec_(spec),
      tuple_salt_(mix64(spec.seed * kGolden ^
                        (static_cast<std::uint64_t>(stream) + 1))),
      rng_(spec.seed * kGolden + stream * 0xD6E8FEB86659FD93ull + 1),
      zipf_(spec.flows,
            (spec.kind == WorkloadSpec::kZipf ||
             spec.kind == WorkloadSpec::kChurn)
                ? spec.skew
                : 0.0),
      bursts_(spec.burst, spec.phase_pkts)
{
    PMILL_ASSERT(spec_.flows >= 1 && spec_.flows <= kMaxFlows,
                 "workload flow universe out of range");
    if (spec_.kind == WorkloadSpec::kUniform ||
        spec_.kind == WorkloadSpec::kZipf ||
        spec_.kind == WorkloadSpec::kChurn)
        slots_.resize(spec_.flows);
}

std::uint64_t
WorkloadSource::flow_id(std::uint64_t slot, std::uint32_t epoch) const
{
    return mix64(slot * kGolden ^
                 (static_cast<std::uint64_t>(epoch) << 40) ^ tuple_salt_);
}

std::uint32_t
WorkloadSource::data_frame_len()
{
    return spec_.frame_len != 0 ? spec_.frame_len : campus_frame_len(rng_);
}

void
WorkloadSource::normal_draw(FrameDraw &d)
{
    const std::uint64_t slot = zipf_.sample(rng_);
    Slot &sl = slots_[slot];

    const bool birth = sl.remaining == 0;
    if (birth) {
        ++sl.epoch;
        ++stats_.flows_born;
        if (spec_.flow_pkts == 0) {
            sl.remaining = kImmortal;
        } else {
            // Geometric flow length with the configured mean, capped
            // at kImmortal - 1 (clamped before the cast, which a huge
            // pkts would overflow).
            const double u = rng_.next_double();
            const double extra = std::min(
                -std::log1p(-u) * static_cast<double>(spec_.flow_pkts - 1),
                static_cast<double>(kImmortal - 2));
            sl.remaining = static_cast<std::uint16_t>(
                1 + static_cast<std::uint64_t>(extra));
        }
    }

    const std::uint64_t id = flow_id(slot, sl.epoch);
    // Transport protocol is a stable per-flow property (no rng draw).
    const bool udp =
        spec_.udp_frac > 0.0 &&
        static_cast<double>(mix64(id ^ 0xC0FFEEull) >> 11) * 0x1.0p-53 <
            spec_.udp_frac;

    d.tuple.proto = udp ? kIpProtoUdp : kIpProtoTcp;
    d.tuple.src_ip =
        Ipv4Addr{(10u << 24) | static_cast<std::uint32_t>(id & 0xFFFFFF)};
    const std::uint32_t site = static_cast<std::uint32_t>(slot & 3);
    d.tuple.dst_ip = Ipv4Addr{((20u + site) << 24) |
                              static_cast<std::uint32_t>((id >> 24) & 0xFFF)};
    d.tuple.src_port =
        static_cast<std::uint16_t>(1024 + (id >> 36) % 60000);
    d.tuple.dst_port = (slot % 7 == 0) ? 443 : 80;
    d.tcp_seq = static_cast<std::uint32_t>(id);

    if (!udp && birth) {
        d.tcp_flags = kTcpFlagSyn;
        d.len = kMinFrameLen;
        ++stats_.syn_frames;
    } else if (!udp && sl.remaining == 1) {
        d.tcp_flags = kTcpFlagFin | kTcpFlagAck;
        d.len = kMinFrameLen;
        ++stats_.fin_frames;
    } else {
        d.tcp_flags = kTcpFlagAck;
        d.len = data_frame_len();
    }

    if (sl.remaining != kImmortal) {
        --sl.remaining;
        if (sl.remaining == 0)
            ++stats_.flows_died;
    }
}

void
WorkloadSource::synflood_draw(FrameDraw &d)
{
    const std::uint64_t idx = probe_idx_++;
    const std::uint64_t id = mix64(idx * kGolden ^ tuple_salt_);
    // Spoofed source drawn from a bounded universe of `flows`
    // addresses — every SYN opens a fresh half-open entry downstream,
    // nothing ever completes or FINs.
    const std::uint64_t src_idx = id % spec_.flows;
    const std::uint64_t sid =
        mix64(src_idx * kGolden ^ tuple_salt_ ^ 0xF100Dull);

    d.tuple.proto = kIpProtoTcp;
    d.tuple.src_ip =
        Ipv4Addr{(10u << 24) | static_cast<std::uint32_t>(sid & 0xFFFFFF)};
    d.tuple.src_port =
        static_cast<std::uint16_t>(1024 + (sid >> 24) % 60000);
    d.tuple.dst_ip = spec_.victim;
    d.tuple.dst_port = spec_.victim_port;
    d.tcp_flags = kTcpFlagSyn;
    d.tcp_seq = static_cast<std::uint32_t>(id);
    d.len = spec_.frame_len ? spec_.frame_len : kMinFrameLen;
    ++stats_.flows_born;
    ++stats_.syn_frames;
}

void
WorkloadSource::portscan_draw(FrameDraw &d)
{
    const std::uint64_t idx = probe_idx_++;
    const std::uint64_t id = mix64(idx * kGolden ^ tuple_salt_ ^ 0x5CA7ull);

    d.tuple.proto = kIpProtoTcp;
    // One attacker host sweeping every port of hosts near the victim.
    d.tuple.src_ip = Ipv4Addr::make(10, 66, 66, 66);
    d.tuple.src_port = static_cast<std::uint16_t>(1024 + (id >> 20) % 60000);
    d.tuple.dst_ip =
        Ipv4Addr{(spec_.victim.value & 0xFFFFFF00u) |
                 static_cast<std::uint32_t>((idx / 65535) & 0xFF)};
    d.tuple.dst_port = static_cast<std::uint16_t>(1 + idx % 65535);
    d.tcp_flags = kTcpFlagSyn;
    d.tcp_seq = static_cast<std::uint32_t>(id);
    d.len = spec_.frame_len ? spec_.frame_len : kMinFrameLen;
    ++stats_.flows_born;
    ++stats_.syn_frames;
}

FrameDraw
WorkloadSource::draw(double *gap_scale)
{
    FrameDraw d;
    switch (spec_.kind) {
    case WorkloadSpec::kUniform:
    case WorkloadSpec::kZipf:
    case WorkloadSpec::kChurn:
        normal_draw(d);
        break;
    case WorkloadSpec::kSynFlood:
        synflood_draw(d);
        break;
    case WorkloadSpec::kPortScan:
        portscan_draw(d);
        break;
    }
    ++stats_.frames;
    stats_.bytes += d.len;
    *gap_scale = bursts_.next_gap_scale(rng_);
    return d;
}

const std::uint8_t *
WorkloadSource::write(const FrameDraw &d, std::uint8_t *buf) const
{
    // Every FrameSpec field the draw does not carry is at its default.
    // d.len is at least kMinFrameLen, above any TCP/UDP stack's
    // minimum, so the frame is exactly d.len bytes (the cap checks).
    FrameSpec fs;
    fs.flow = d.tuple;
    fs.frame_len = d.len;
    fs.tcp_seq = d.tcp_seq;
    fs.tcp_flags = d.tcp_flags;
    build_frame_into(fs, buf, d.len);
    return buf;
}

} // namespace pmill
