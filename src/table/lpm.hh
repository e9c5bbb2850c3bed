/**
 * @file
 * Longest-prefix-match route tables.
 *
 * Dir24_8 is the DIR-24-8-BASIC scheme used by DPDK's rte_lpm (and in
 * spirit by Click's radix lookup): a 2^24-entry first-level table
 * indexed by the top 24 bits of the address, spilling into 256-entry
 * second-level tables for longer prefixes. A lookup is one memory
 * access for prefixes up to /24 and two for /25../32 — which is why
 * the paper's router loads the whole IP header and performs a single
 * table access per packet on its one-rule-per-port table.
 *
 * The /0 route is one fallback entry outside the tables, returned for
 * any slot that no longer route covers. Adding it writes no slot, so
 * the sparse tbl24 backing commits host memory only for the slots of
 * the other routes.
 *
 * NaiveLpm is a deliberately simple linear-scan reference
 * implementation used by the property tests as ground truth.
 */

#ifndef PMILL_TABLE_LPM_HH
#define PMILL_TABLE_LPM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/access_sink.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/headers.hh"

namespace pmill {

/** One route: prefix/len -> next-hop id (e.g.\ output port). */
struct Route {
    Ipv4Addr prefix;
    std::uint8_t prefix_len = 0;  // 0..32
    std::uint16_t next_hop = 0;   // 0..0x7FFF
};

/** Reference LPM: longest matching prefix by linear scan. */
class NaiveLpm {
  public:
    /** Add a route (later duplicates of the same prefix override). */
    void add(const Route &r);

    /**
     * Longest-prefix lookup; nullopt when no route matches. When
     * @p matched_depth is non-null it receives the winning prefix
     * length, as Dir24_8::lookup reports it.
     */
    std::optional<std::uint16_t>
    lookup(Ipv4Addr a, std::uint8_t *matched_depth = nullptr) const;

  private:
    std::vector<Route> routes_;
};

/** DPDK-style DIR-24-8 LPM with SimMemory-backed tables. */
class Dir24_8 {
  public:
    /**
     * @param mem Simulated memory for the tbl24/tbl8 arrays.
     * @param max_tbl8_groups Number of 256-entry spill tables.
     */
    explicit Dir24_8(SimMemory &mem, std::uint32_t max_tbl8_groups = 256);

    /**
     * Add a route. Routes may be added in any order; more-specific
     * prefixes correctly override less-specific ones. A /0 route
     * replaces the fallback entry and writes no table slot.
     * @return false when tbl8 groups are exhausted.
     */
    bool add(const Route &r);

    /**
     * Longest-prefix lookup, reporting 1 or 2 table accesses to
     * @p sink (a /0 hit costs the same accesses as the slot it falls
     * back from). When @p matched_depth is non-null it receives the
     * prefix length of the winning route (profile capture joins it
     * back to the configured rule). @return next hop, or nullopt when
     * no route matches.
     */
    std::optional<std::uint16_t>
    lookup(Ipv4Addr a, AccessSink *sink = nullptr,
           std::uint8_t *matched_depth = nullptr) const;

    /** Bytes of simulated memory used by the tables. */
    std::uint64_t memory_bytes() const;

  private:
    // Entry encoding (16 bits): valid(1) | is_tbl8(1) | depth(6) | value(8+)
    // We use a wider struct for clarity instead of bit-packing value
    // and depth into 16 bits; the *accounted* entry size stays 2 B to
    // match rte_lpm's cache behaviour.
    struct Entry {
        std::uint16_t next_hop = 0;
        std::uint8_t depth = 0;     // prefix length that wrote this entry
        std::uint8_t flags = 0;     // bit0 valid, bit1 points-to-tbl8
    };
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kGroup = 2;
    /// Accounted bytes per entry (rte_lpm packs entries into 16 bits).
    static constexpr std::uint32_t kAccountedEntryBytes = 2;

    Entry *tbl24() const { return reinterpret_cast<Entry *>(tbl24_.host); }
    Entry *tbl8() const { return reinterpret_cast<Entry *>(tbl8_.host); }

    std::uint32_t alloc_tbl8_group();

    MemHandle tbl24_;
    MemHandle tbl8_;
    Entry default_route_;  ///< the /0 route; invalid until added
    std::uint32_t max_groups_;
    std::uint32_t next_group_ = 0;
};

} // namespace pmill

#endif // PMILL_TABLE_LPM_HH
