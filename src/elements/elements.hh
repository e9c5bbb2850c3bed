/**
 * @file
 * The standard element library: every element the paper's five NF
 * configurations use (Appendix A), plus utility elements.
 *
 *  - Simple forwarder: FromDPDKDevice -> EtherMirror/EtherRewrite ->
 *    ToDPDKDevice
 *  - Router: Classifier -> (ARPResponder | CheckIPHeader -> IPLookup
 *    -> DecIPTTL -> EtherRewrite) -> ToDPDKDevice
 *  - IDS (+ VLAN): IdsCheck -> VlanEncap supplements
 *  - NAT: Napt (stateful NAPT over a cuckoo hash table)
 *  - WorkPackage: synthetic memory/compute microbenchmark element
 */

#ifndef PMILL_ELEMENTS_ELEMENTS_HH
#define PMILL_ELEMENTS_ELEMENTS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.hh"
#include "src/framework/element.hh"
#include "src/net/flow.hh"
#include "src/net/headers.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/table/lpm.hh"
#include "src/table/timer_wheel.hh"

namespace pmill {

class SteerFabric;

/// Keyword bounds that keep a configuration's host cost finite: Napt
/// CAPACITY and IdsCheck CONNTRACK (64 MiB of table per core),
/// IDLE_TIMEOUT_MS (longer than any run pmill_run accepts, and finite
/// in ns; at least 1 us, since the aging wheel steps timeout / 8 at a
/// time), WorkPackage S (MiB committed per core; the LLC is 24) and
/// WorkPackage N and W (scratch reads and PRNG rounds per packet).
inline constexpr std::uint32_t kMaxFlowTable = 1u << 19;
inline constexpr double kMinIdleTimeoutMs = 0.001;
inline constexpr double kMaxIdleTimeoutMs = 1e9;
inline constexpr std::uint32_t kMaxScratchMb = 64;
inline constexpr std::uint32_t kMaxWorkPerPacket = 1024;

/**
 * RX endpoint marker. Args: PORT n, BURST n. BURST (default 32) is the
 * RX burst every core of the engine polls with.
 */
class FromDPDKDevice : public Element {
  public:
    const char *class_name() const override { return "FromDPDKDevice"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override {}

    std::uint32_t port() const { return port_; }
    std::uint32_t burst() const { return burst_; }

  private:
    std::uint32_t port_ = 0;
    std::uint32_t burst_ = 32;
};

/** TX endpoint marker. Args: PORT n. */
class ToDPDKDevice : public Element {
  public:
    const char *class_name() const override { return "ToDPDKDevice"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;

    std::uint32_t port() const { return port_; }

  private:
    std::uint32_t port_ = 0;
};

/** Swap source and destination Ethernet addresses. */
class EtherMirror : public Element {
  public:
    const char *class_name() const override { return "EtherMirror"; }
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;
};

/** Rewrite Ethernet addresses. Args: SRC mac, DST mac. */
class EtherRewrite : public Element {
  public:
    const char *class_name() const override { return "EtherRewrite"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

  private:
    MacAddr src_{};
    MacAddr dst_{};
};

/**
 * Pattern classifier (simplified): each positional argument is one
 * output port's pattern: "ARP", "IP", or "-" (match anything).
 */
class Classifier : public Element {
  public:
    const char *class_name() const override { return "Classifier"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    std::uint32_t
    num_outputs() const override
    {
        return static_cast<std::uint32_t>(patterns_.size());
    }
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

    /// @name Profile-guided specialization (paper §5 FAQ: "Why should
    /// I use PacketMill instead of PGO?" — PacketMill can be extended
    /// to exploit profiles). Patterns are matched sequentially; the
    /// mill reorders the *match order* hot-first from observed hit
    /// counts, without changing output-port semantics.
    /// @{
    /** Current match order (pattern indices, first tried first). */
    const std::vector<std::uint32_t> &match_order() const
    {
        return order_;
    }

    // Generic rule hooks (mill::PlanSearch drives these).
    std::size_t num_rules() const override { return patterns_.size(); }
    std::vector<std::uint64_t> rule_hits() const override { return hits_; }
    void reset_rule_hits() override;
    bool apply_rule_order(const std::vector<std::uint32_t> &order) override;
    /// @}

  private:
    enum class Pattern { kArp, kIp, kAny };
    /** True when some packet matches both patterns (kAny overlaps
     * everything; kArp/kIp are disjoint). Reordering overlapping
     * patterns changes which one wins under first-match semantics. */
    static bool patterns_overlap(Pattern a, Pattern b);
    std::vector<Pattern> patterns_;
    std::vector<std::uint32_t> order_;  ///< match order (indices)
    std::vector<std::uint64_t> hits_;   ///< per-pattern hit counts
};

/** Turn ARP requests into replies in place. Args: IP, MAC. */
class ARPResponder : public Element {
  public:
    const char *class_name() const override { return "ARPResponder"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;

  private:
    Ipv4Addr ip_{};
    MacAddr mac_{};
};

/** Validate the IPv4 header (RFC 1812 checks + checksum). */
class CheckIPHeader : public Element {
  public:
    const char *class_name() const override { return "CheckIPHeader"; }
    bool configure(const std::vector<std::string> &,
                   std::string *) override
    {
        return true;  // CheckIPHeader(14) offset arg tolerated/ignored
    }
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

    std::uint64_t dropped() const { return dropped_; }

  private:
    std::uint64_t dropped_ = 0;
};

/** Decrement TTL with incremental checksum update; drop expired. */
class DecIPTTL : public Element {
  public:
    const char *class_name() const override { return "DecIPTTL"; }
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;
};

/**
 * Longest-prefix-match routing over a DIR-24-8 table.
 * Args: one or more "a.b.c.d/len port" rules.
 */
class IPLookup : public Element {
  public:
    const char *class_name() const override { return "IPLookup"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    bool initialize(SimMemory &mem, std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    std::uint32_t num_outputs() const override { return max_port_ + 1; }
    std::uint32_t state_bytes() const override { return 128; }
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

    /// @name Profile-guided rule hooks.
    ///
    /// DIR-24-8 lookup cost does not depend on rule insertion order,
    /// so "reordering" LPM rules means promoting the hottest route to
    /// a register-resident fast path (a prefix compare before the
    /// table access — the table-flattening trick surveyed in the data
    /// plane optimization literature). The promotion is only applied
    /// when no more-specific configured route overlaps the candidate,
    /// which makes the fast path exact.
    /// @{
    std::size_t num_rules() const override { return routes_.size(); }
    std::vector<std::uint64_t> rule_hits() const override { return hits_; }
    void reset_rule_hits() override;
    bool apply_rule_order(const std::vector<std::uint32_t> &order) override;
    void set_rule_profiling(bool on) override { profiling_ = on; }

    /** Promoted hot-route index, or -1 when none. */
    int hot_route() const { return hot_route_; }

    /** True when promoting @p idx keeps lookups exact (no overlap by
     * a more-specific configured route). */
    bool hot_route_safe(std::size_t idx) const;
    /// @}

  private:
    std::vector<Route> routes_;
    std::vector<std::uint64_t> hits_;  ///< per-route match counts
    std::unique_ptr<Dir24_8> table_;
    std::uint32_t max_port_ = 0;
    bool profiling_ = false;  ///< count per-route hits (capture mode)
    int hot_route_ = -1;      ///< fast-path route, -1 = table only
};

/**
 * IDS header-correctness checks for TCP/UDP/ICMP (the paper's IDS
 * supplement, §A.3): length consistency, header sanity; bad packets
 * are dropped and counted.
 *
 * Optionally stateful: `IdsCheck(CONNTRACK n [, IDLE_TIMEOUT_MS t])`
 * tracks TCP connections in a bounded cuckoo table (SYN -> half-open,
 * ACK -> established, FIN/RST -> forgotten) with timer-wheel aging —
 * a SYN flood shows up as half-open occupancy and eviction churn
 * rather than unbounded state.
 */
class IdsCheck : public Element {
  public:
    const char *class_name() const override { return "IdsCheck"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    bool initialize(SimMemory &mem, std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;
    bool flow_table_stats(FlowTableStats *out) const override;

    std::uint64_t flagged() const { return flagged_; }
    std::uint64_t half_open() const { return half_open_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    /// Connection-table value: low 2 bits state, last-seen us above.
    enum CtState : std::uint64_t { kCtHalfOpen = 1, kCtEstablished = 2 };

    void track_tcp(const FiveTuple &key, std::uint8_t flags, TimeNs now,
                   ExecContext &ctx);
    void age(TimeNs now, ExecContext &ctx);

    std::uint64_t flagged_ = 0;
    /// @name Stateful connection tracking (CONNTRACK capacity > 0).
    /// @{
    std::uint32_t conntrack_capacity_ = 0;
    double idle_timeout_ms_ = 1.0;
    std::unique_ptr<CuckooHash<FiveTuple, std::uint64_t>> conns_;
    std::unique_ptr<TimerWheel<FiveTuple>> wheel_;
    std::uint64_t half_open_ = 0;
    std::uint64_t evictions_ = 0;
    /// @}
};

/** Encapsulate in an 802.1Q VLAN header. Args: VLAN_ID n. */
class VlanEncap : public Element {
  public:
    const char *class_name() const override { return "VLANEncap"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

  private:
    std::uint16_t tci_ = 1;
};

/**
 * Stateful NAPT rewriting source address/port of outgoing packets,
 * keyed on the 5-tuple in a cuckoo hash table (DPDK-style, as the
 * paper's NAT uses). Args: SRCIP a.b.c.d [, CAPACITY n]
 * [, IDLE_TIMEOUT_MS t].
 *
 * With IDLE_TIMEOUT_MS > 0 the table ages: each mapping's value
 * carries its last-seen time and a timer wheel evicts mappings idle
 * longer than the timeout, so a bounded table survives million-flow
 * workloads (new flows are dropped only while the table is full of
 * *live* mappings).
 */
class Napt : public Element {
  public:
    const char *class_name() const override { return "Napt"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    bool initialize(SimMemory &mem, std::string *err) override;
    void process(PacketBatch &, ExecContext &) override;
    std::uint32_t state_bytes() const override { return 128; }
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;
    bool flow_table_stats(FlowTableStats *out) const override;

    std::uint64_t active_mappings() const;
    std::uint64_t evictions() const { return evictions_; }

  private:
    void age(TimeNs now, ExecContext &ctx);

    /// Mapping value: low 16 bits NAT port, last-seen us above.
    static std::uint64_t
    pack_value(std::uint16_t port, TimeNs now)
    {
        const std::uint64_t us =
            static_cast<std::uint64_t>(now / 1000.0);
        return (us << 16) | port;
    }

    Ipv4Addr nat_ip_{};
    std::uint32_t capacity_ = 65536;
    double idle_timeout_ms_ = 0;  ///< 0 = no aging
    std::uint16_t next_port_ = 1024;
    std::unique_ptr<CuckooHash<FiveTuple, std::uint64_t>> table_;
    std::unique_ptr<TimerWheel<FiveTuple>> wheel_;
    std::uint64_t evictions_ = 0;
};

/**
 * Synthetic memory-/compute-intensive element (§A.4): per packet,
 * N pseudo-random reads into an S-MiB scratch region and W rounds of
 * PRNG work. Args: S mb, N n, W w.
 */
class WorkPackage : public Element {
  public:
    const char *class_name() const override { return "WorkPackage"; }
    bool configure(const std::vector<std::string> &args,
                   std::string *err) override;
    bool initialize(SimMemory &mem, std::string *err) override;
    void warm_caches(CacheHierarchy &caches) override;
    void process(PacketBatch &, ExecContext &) override;
    std::uint32_t state_bytes() const override { return 128; }

    std::uint64_t checksum() const { return checksum_; }

  private:
    std::uint32_t s_mb_ = 1;
    std::uint32_t n_accesses_ = 1;
    std::uint32_t w_rounds_ = 0;
    MemHandle scratch_;
    Xorshift64 rng_{0xACCE55ull};
    std::uint64_t checksum_ = 0;
};

/**
 * Software flow steering (PFQ-style): consult the fabric's shared
 * flow table on each packet's RSS hash; packets whose home core is
 * this core pass through, the rest are copied into the home core's
 * handoff ring and released locally. The engine binds each core's
 * instance to the shared SteerFabric after the pipeline is built, and
 * the destination core lands each staged frame on its own queue the
 * fabric's latency after it was staged.
 *
 * Unbound (e.g. in a verification build without an engine) the
 * element is a transparent no-op.
 */
class FlowSteer : public Element {
  public:
    const char *class_name() const override { return "FlowSteer"; }
    bool
    configure(const std::vector<std::string> &, std::string *) override
    {
        return true;
    }
    void process(PacketBatch &, ExecContext &) override;
    std::uint32_t state_bytes() const override { return 64; }
    void access_profile(std::vector<Field> &reads,
                        std::vector<Field> &writes) const override;

    /** Attach the shared fabric and this pipeline's core index. */
    void
    bind(SteerFabric *fabric, std::uint32_t core)
    {
        fabric_ = fabric;
        core_ = core;
    }

    bool bound() const { return fabric_ != nullptr; }

    /**
     * Packets handed off (or dropped at a full handoff ring) by the
     * last process() calls. Their frames are already copied/released
     * fabric-side; the engine returns the handles through the owning
     * datapath's drop path so mbufs go back to the source core's
     * pools. Cleared by the caller.
     */
    std::vector<PacketHandle> &release_list() { return release_; }

  private:
    SteerFabric *fabric_ = nullptr;
    std::uint32_t core_ = 0;
    std::vector<PacketHandle> release_;
};

/** Count packets and bytes. */
class Counter : public Element {
  public:
    const char *class_name() const override { return "Counter"; }
    void process(PacketBatch &, ExecContext &) override;

    std::uint64_t packets() const { return packets_; }
    std::uint64_t bytes() const { return bytes_; }

  private:
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
};

/** Drop everything. */
class Discard : public Element {
  public:
    const char *class_name() const override { return "Discard"; }
    void process(PacketBatch &, ExecContext &) override;
};

} // namespace pmill

#endif // PMILL_ELEMENTS_ELEMENTS_HH
