/**
 * @file
 * Cycle accounting: a per-core "top-down" ledger that decomposes every
 * simulated core cycle into an exhaustive, mutually exclusive bucket
 * hierarchy — element compute (per element), L1/L2 access time,
 * LLC/DRAM/TLB stall, mempool alloc/free, PMD RX/TX, metadata-model
 * conversion, framework glue, and idle/poll-backoff.
 *
 * Conservation is the design center: every charge adds the *same*
 * 44.20 fixed-point integer to exactly one bucket and to the running
 * total, so the bucket sum equals the total bit-exactly by
 * construction (integer addition is associative; no summation-order
 * hazards). A second, epsilon-checked tie anchors the ledger total to
 * the core clock: total_cycles ~= (clock_end - clock_start) * freq.
 * Both invariants surface as bench columns — `eq_acct_sum` must be 0
 * and `eq_acct_residual` is a deterministic integer — so any engine
 * change that leaks or double-counts time fails CI.
 *
 * Charges are attributed to the *current scope* of the AccessSink the
 * work flows through; RAII AcctScope guards retag sections (element
 * dispatch, driver bursts, pool operations) and restore the previous
 * scope on exit, so nested attribution (mempool refill inside an RX
 * burst) lands in the innermost bucket.
 *
 * The whole subsystem compiles to nothing under -DPMILL_ACCT_DISABLED
 * (CMake -DPMILL_ACCT=OFF): charge() and the guards become empty
 * inline bodies and the ledger holds no storage.
 */

#ifndef PMILL_ACCOUNTING_CYCLE_ACCOUNT_HH
#define PMILL_ACCOUNTING_CYCLE_ACCOUNT_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/log.hh"
#include "src/mem/access_sink.hh"

namespace pmill {

/// @name Accounting scopes (who the cycles were spent for).
/// Element scopes follow the fixed ones: scope kAcctElementBase + i is
/// pipeline element index i.
/// @{
enum : std::uint16_t {
    kAcctFramework = 0, ///< per-packet/per-burst framework glue; also
                        ///< the default scope, so untagged DUT work is
                        ///< attributed to the framework catch-all
    kAcctIdle,          ///< empty polls, poll backoff, CQE fast-forward
    kAcctDriverRx,      ///< PMD rx_burst internals (CQE, mbuf fill, ring)
    kAcctDriverTx,      ///< PMD tx_burst internals (descriptors, cleanup)
    kAcctMempool,       ///< mempool alloc/free (also when nested in RX)
    kAcctMetadata,      ///< metadata-model conversion (mbuf<->Packet,
                        ///< overlay annotations, X-Change writes)
    kAcctElementBase,   ///< + element index: that element's dispatch,
                        ///< state access, and processing
};
/// @}

/// @name Bucket components (what kind of time, within a scope).
/// @{
enum : std::uint32_t {
    kAcctCompute = 0,   ///< ALU cycles (core-clocked)
    kAcctAccess,        ///< L1/L2 access cycles (core-clocked)
    kAcctLlcStall,      ///< LLC-hit latency after MLP overlap
    kAcctDramStall,     ///< DRAM latency after MLP overlap
    kAcctTlbStall,      ///< TLB-walk latency after MLP overlap
    kAcctNumComponents,
};
/// @}

/** Fixed scope count (element scopes come on top). */
inline constexpr std::uint32_t kAcctNumFixedScopes = kAcctElementBase;

/** Human name of a fixed scope (element scopes are named by caller). */
const char *acct_scope_name(std::uint16_t scope);

/** Human name of a component. */
const char *acct_component_name(std::uint32_t component);

#ifndef PMILL_ACCT_DISABLED

/**
 * The per-core ledger. Charges are 44.20 signed fixed point: 2^43
 * cycles (~64 min of simulated time at 2.3 GHz) before overflow,
 * <= 2^-21 cycles rounding error per charge.
 */
class CycleAccount {
  public:
    using Fixed = std::int64_t;
    static constexpr int kScaleBits = 20;
    static constexpr double kScale =
        static_cast<double>(std::int64_t(1) << kScaleBits);

    static constexpr bool kCompiledIn = true;

    /** Cumulative ledger state (also usable as a baseline snapshot). */
    struct Snapshot {
        std::vector<Fixed> buckets;  ///< scope-major x kAcctNumComponents
        Fixed total = 0;

        /** Bucket sum minus total: 0 iff conservation holds. */
        Fixed sum_minus_total() const;

        /** this - base, element-wise (shorter vector = zeros). */
        Snapshot delta_since(const Snapshot &base) const;

        Fixed bucket(std::uint16_t scope, std::uint32_t component) const
        {
            const std::size_t i =
                std::size_t(scope) * kAcctNumComponents + component;
            return i < buckets.size() ? buckets[i] : 0;
        }

        /** All components of @p scope summed. */
        Fixed scope_total(std::uint16_t scope) const;

        /** @p component summed over every scope. */
        Fixed component_total(std::uint32_t component) const;

        std::uint32_t
        num_scopes() const
        {
            return static_cast<std::uint32_t>(buckets.size() /
                                              kAcctNumComponents);
        }
    };

    /** Convert a fixed-point amount to cycles. */
    static double cycles(Fixed f) { return static_cast<double>(f) / kScale; }

    /** Convert cycles to the nearest fixed-point amount. */
    static Fixed
    to_fixed(double cycles)
    {
        return static_cast<Fixed>(std::llrint(cycles * kScale));
    }

    /**
     * Charge @p cycles to bucket (scope, component) and to the total.
     * The grow-on-first-touch branch is the only conditional on the
     * path and is never taken after the first burst of a run.
     */
    void
    charge(std::uint16_t scope, std::uint32_t component, double cycles)
    {
        const Fixed f = to_fixed(cycles);
        const std::size_t i =
            std::size_t(scope) * kAcctNumComponents + component;
        if (PMILL_UNLIKELY(i >= buckets_.size()))
            grow(i);
        buckets_[i] += f;
        total_ += f;
    }

    /** Charge @p ns of core time at @p freq_ghz. */
    void
    charge_ns(std::uint16_t scope, std::uint32_t component, double ns,
              double freq_ghz)
    {
        charge(scope, component, ns * freq_ghz);
    }

    Fixed total_fixed() const { return total_; }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.buckets = buckets_;
        s.total = total_;
        return s;
    }

    /** Bucket sum minus total on the live ledger (0 = conserved). */
    Fixed sum_minus_total() const;

    /** All components of @p scope summed, on the live ledger. */
    Fixed scope_total(std::uint16_t scope) const;

    /** @p component summed over every scope, on the live ledger. */
    Fixed component_total(std::uint32_t component) const;

  private:
    void grow(std::size_t index);

    std::vector<Fixed> buckets_;
    Fixed total_ = 0;
};

/**
 * RAII scope retag on an AccessSink; restores the previous scope on
 * destruction. Null-tolerant (no-op on a null sink), so instrumented
 * structures keep working un-sinked in unit tests.
 */
class AcctScope {
  public:
    AcctScope(AccessSink *sink, std::uint16_t scope) : sink_(sink)
    {
        if (sink_) {
            prev_ = sink_->acct_scope();
            sink_->acct_set_scope(scope);
        }
    }

    AcctScope(AccessSink &sink, std::uint16_t scope)
        : AcctScope(&sink, scope)
    {}

    ~AcctScope()
    {
        if (sink_)
            sink_->acct_set_scope(prev_);
    }

    AcctScope(const AcctScope &) = delete;
    AcctScope &operator=(const AcctScope &) = delete;

  private:
    AccessSink *sink_;
    std::uint16_t prev_ = 0;
};

#else // PMILL_ACCT_DISABLED

/** Compiled-out ledger: every operation is an empty inline body. */
class CycleAccount {
  public:
    using Fixed = std::int64_t;
    static constexpr int kScaleBits = 20;
    static constexpr double kScale =
        static_cast<double>(std::int64_t(1) << kScaleBits);

    static constexpr bool kCompiledIn = false;

    struct Snapshot {
        std::vector<Fixed> buckets;
        Fixed total = 0;

        Fixed sum_minus_total() const { return 0; }
        Snapshot delta_since(const Snapshot &) const { return Snapshot{}; }
        Fixed bucket(std::uint16_t, std::uint32_t) const { return 0; }
        Fixed scope_total(std::uint16_t) const { return 0; }
        Fixed component_total(std::uint32_t) const { return 0; }
        std::uint32_t num_scopes() const { return 0; }
    };

    static double cycles(Fixed f) { return static_cast<double>(f) / kScale; }
    static Fixed
    to_fixed(double cycles)
    {
        return static_cast<Fixed>(std::llrint(cycles * kScale));
    }

    void charge(std::uint16_t, std::uint32_t, double) {}
    void charge_ns(std::uint16_t, std::uint32_t, double, double) {}
    Fixed total_fixed() const { return 0; }
    Snapshot snapshot() const { return Snapshot{}; }
    Fixed sum_minus_total() const { return 0; }
    Fixed scope_total(std::uint16_t) const { return 0; }
    Fixed component_total(std::uint32_t) const { return 0; }
};

class AcctScope {
  public:
    AcctScope(AccessSink *, std::uint16_t) {}
    AcctScope(AccessSink &, std::uint16_t) {}
    AcctScope(const AcctScope &) = delete;
    AcctScope &operator=(const AcctScope &) = delete;
};

#endif // PMILL_ACCT_DISABLED

} // namespace pmill

#endif // PMILL_ACCOUNTING_CYCLE_ACCOUNT_HH
