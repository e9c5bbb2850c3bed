/**
 * @file
 * Execution context: the accounting boundary between functional code
 * (drivers, elements, tables) and the simulated machine (cache
 * hierarchy + cost model).
 *
 * Every memory access and compute step performed on behalf of the
 * DUT core flows through one ExecContext, which accumulates the
 * core-clocked and wall-clock (uncore) time components plus retired
 * instructions for the IPC model.
 */

#ifndef PMILL_FRAMEWORK_EXEC_CONTEXT_HH
#define PMILL_FRAMEWORK_EXEC_CONTEXT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/common/types.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/cache.hh"
#include "src/mem/payload_park.hh"
#include "src/mem/sim_memory.hh"
#include "src/runtime/cost_model.hh"

namespace pmill {

/** Metadata-management model selector (§2.2 / §3.1 of the paper). */
enum class MetadataModel : std::uint8_t {
    kCopying,     ///< FastClick default: mbuf -> Packet copy
    kOverlaying,  ///< BESS-style: cast the mbuf, annotations appended
    kXchange,     ///< PacketMill: PMD writes custom metadata directly
    kParking,     ///< X-Change line + payload parked at RX, rejoined at TX
};

/** Human-readable model name. */
const char *metadata_model_name(MetadataModel m);

/** Which PacketMill optimizations are applied to a pipeline. */
struct PipelineOpts {
    MetadataModel model = MetadataModel::kCopying;
    bool devirtualize = false;   ///< click-devirtualize: direct calls
    bool constants = false;      ///< constant embedding / folding
    bool static_graph = false;   ///< static element placement + full
                                 ///< devirtualization (inlining)
    bool lto = false;            ///< link-time optimization
    bool reorder = false;        ///< metadata field reordering pass
    /// Parking model: frames longer than this keep only the first
    /// park_split_bytes in the data buffer; the rest is parked. The
    /// default covers L2-L4 headers plus slack; frames at or under
    /// the split (e.g. 64-B minimum frames) are never parked.
    std::uint32_t park_split_bytes = 96;
    /// Hot-first element placement order for the static arena
    /// (instance names; empty = configuration order). Produced by
    /// mill::PlanSearch so the hottest elements' state packs
    /// contiguously at the front of the arena.
    std::vector<std::string> state_order;

    /// @name Framework-personality knobs (§4.6 comparisons).
    /// @{
    /// Scale on the per-packet framework overhead (1.0 = FastClick;
    /// BESS/VPP are leaner; a raw DPDK app is near zero).
    double framework_scale = 1.0;
    /// FastClick links batches through a per-packet next pointer.
    bool batch_link = true;
    /// VPP-style hybrid: overlay the mbuf but also copy fields into
    /// the framework's own buffer metadata (vlib_buffer_t).
    bool overlay_field_copy = false;
    /// @}

    /** The paper's full "PacketMill" configuration. */
    static PipelineOpts
    packetmill()
    {
        PipelineOpts o;
        o.model = MetadataModel::kXchange;
        o.devirtualize = true;
        o.constants = true;
        o.static_graph = true;
        o.lto = true;
        return o;
    }

    /** The paper's "Vanilla" baseline (FastClick, Copying). */
    static PipelineOpts
    vanilla()
    {
        return PipelineOpts{};
    }
};

/** Accumulated execution counters for a measurement interval. */
struct ExecCounters {
    double compute_cycles = 0;   ///< ALU work (core-clocked)
    double access_cycles = 0;    ///< L1/L2 access time (core-clocked)
    double wall_ns = 0;          ///< uncore time after MLP overlap
    double instructions = 0;     ///< retired-instruction model
    std::uint64_t accesses = 0;

    /** Total core cycles including memory stalls at @p freq_ghz. */
    double
    total_cycles(double freq_ghz) const
    {
        return compute_cycles + access_cycles + wall_ns * freq_ghz;
    }

    /** Modeled IPC at @p freq_ghz. */
    double
    ipc(double freq_ghz) const
    {
        const double c = total_cycles(freq_ghz);
        return c > 0 ? instructions / c : 0.0;
    }
};

/**
 * The DUT core's accounting context.
 *
 * `final` so that code holding a concrete `ExecContext &` (the
 * pipeline, datapaths, and drivers all do) gets direct, inlinable
 * calls into the CacheHierarchy header fast path instead of a vtable
 * dispatch per simulated access; only callers that genuinely hold an
 * `AccessSink *` (tables, PacketView behind a sink pointer) still pay
 * the virtual hop.
 */
class ExecContext final : public AccessSink {
  public:
    ExecContext(CacheHierarchy &caches, const CostModel &cost,
                const PipelineOpts &opts, double freq_ghz)
        : caches_(caches), cost_(cost), opts_(opts), freq_ghz_(freq_ghz)
    {
        // Per-event stall costs in cycles, pre-scaled by the MLP
        // overlap so the ledger charge mirrors the wall_ns accrual
        // exactly (count * per-event ns * overlap * freq).
        const CacheConfig &cc = caches_.config();
        acct_tlb_cycles_ = cc.tlb_miss_ns * cost_.mem_overlap * freq_ghz_;
        acct_llc_cycles_ = cc.llc_ns * cost_.mem_overlap * freq_ghz_;
        acct_dram_cycles_ = cc.dram_ns * cost_.mem_overlap * freq_ghz_;
        acct_numa_cycles_ = cc.numa_remote_ns * cost_.mem_overlap * freq_ghz_;
    }

    // --- AccessSink ---
    void
    on_access(Addr addr, std::uint32_t size, AccessType type) override
    {
        AccessResult r = caches_.access(addr, size, type);
        c_.access_cycles += r.core_cycles;
        c_.wall_ns += r.wall_ns * cost_.mem_overlap;
        c_.instructions += cost_.instr_per_access;
        ++c_.accesses;
        // Cycle accounting: same quantities, attributed to the current
        // scope. The component guards are host-only fast-outs (the
        // counts are almost always zero); a skipped zero charge equals
        // an applied zero charge, so the ledger is unaffected.
        acct_.charge(acct_scope_, kAcctAccess, r.core_cycles);
        if (r.llc_trips != 0)
            acct_.charge(acct_scope_, kAcctLlcStall,
                         r.llc_trips * acct_llc_cycles_);
        if (r.dram_fills != 0)
            acct_.charge(acct_scope_, kAcctDramStall,
                         r.dram_fills * acct_dram_cycles_);
        if (r.remote_fills != 0)
            acct_.charge(acct_scope_, kAcctDramStall,
                         r.remote_fills * acct_numa_cycles_);
        if (r.tlb_misses != 0)
            acct_.charge(acct_scope_, kAcctTlbStall,
                         r.tlb_misses * acct_tlb_cycles_);
    }

    void
    on_compute(Cycles cycles, double instructions) override
    {
        if (opts_.lto)
            cycles *= cost_.lto_compute_scale;
        c_.compute_cycles += cycles;
        c_.instructions += instructions;
        acct_.charge(acct_scope_, kAcctCompute, cycles);
    }

    /// @name Convenience wrappers used by elements.
    /// @{
    void load(Addr a, std::uint32_t sz) { on_access(a, sz, AccessType::kLoad); }
    void store(Addr a, std::uint32_t sz)
    {
        on_access(a, sz, AccessType::kStore);
    }

    /**
     * Charge the per-packet element-boundary dispatch cost according
     * to the optimization level.
     */
    void
    dispatch(std::uint32_t num_packets)
    {
        double cyc = cost_.vcall_cycles;
        if (opts_.static_graph)
            cyc = cost_.inlined_call_cycles;
        else if (opts_.devirtualize)
            cyc = cost_.direct_call_cycles;
        on_compute(cyc * num_packets, 3.0 * num_packets);
    }

    /**
     * Parking model: pull a parked payload back to the core. Parked
     * lines were written DRAM-direct at RX, so this charges the full
     * cache-miss cost of streaming them in — the explicit price an
     * element pays for genuinely needing payload bytes. Copies the
     * payload to @p dst when both pointers are given (host-side
     * functional copy; the simulated cost is the charged loads).
     */
    void
    materialize_payload(const ParkRef &park, std::uint8_t *dst)
    {
        if (park.len == 0)
            return;
        for (std::uint32_t off = 0; off < park.len; off += kCacheLineBytes) {
            load(park.addr + off,
                 std::min<std::uint32_t>(kCacheLineBytes, park.len - off));
        }
        if (park.host != nullptr && dst != nullptr)
            std::memcpy(dst, park.host, park.len);
    }

    /**
     * Read one element parameter: a state load normally, or a folded
     * constant when constant embedding is on.
     */
    void
    param_load(const MemHandle &state, std::uint32_t param_index)
    {
        if (opts_.constants) {
            on_compute(cost_.const_param_cycles, 0.5);
        } else {
            load(state.addr + 8ull * param_index, 8);
        }
    }
    /// @}

    const PipelineOpts &opts() const { return opts_; }

    /**
     * The RX burst: FromDPDKDevice's BURST, set when the engine is
     * built and retuned mid-run by the mill's plan or the controller.
     * The datapaths read it on every poll.
     */
    std::uint32_t burst() const { return burst_; }
    void set_burst(std::uint32_t burst) { burst_ = burst; }

    const CostModel &cost() const { return cost_; }
    CacheHierarchy &caches() { return caches_; }
    double freq_ghz() const { return freq_ghz_; }

    /** Elapsed DUT time for the accumulated counters. */
    TimeNs
    elapsed_ns() const
    {
        return (c_.compute_cycles + c_.access_cycles) / freq_ghz_ +
               c_.wall_ns;
    }

    /**
     * Simulated time now: the time base plus elapsed_ns(). The engine
     * sets the base before each poll step, so elements can stamp what
     * they hand to other cores (FlowSteer) and trace records.
     */
    TimeNs now_ns() const { return time_base_ + elapsed_ns(); }
    void set_time_base(TimeNs base) { time_base_ = base; }

    const ExecCounters &counters() const { return c_; }

    /** Zero the counters (cache state stays warm). */
    void reset() { c_ = ExecCounters{}; }

    /// @name Cycle-accounting ledger (src/accounting/).
    /// The ledger is cumulative for the context's lifetime; the engine
    /// snapshots it at measurement start and reads deltas, so reset()
    /// intentionally leaves it alone.
    /// @{
    CycleAccount &account() { return acct_; }
    const CycleAccount &account() const { return acct_; }
    /// @}

  private:
    CacheHierarchy &caches_;
    CostModel cost_;
    PipelineOpts opts_;
    double freq_ghz_;
    std::uint32_t burst_ = 32;
    TimeNs time_base_ = 0;
    ExecCounters c_;
    CycleAccount acct_;
    double acct_tlb_cycles_ = 0;
    double acct_llc_cycles_ = 0;
    double acct_dram_cycles_ = 0;
    double acct_numa_cycles_ = 0;
};

} // namespace pmill

#endif // PMILL_FRAMEWORK_EXEC_CONTEXT_HH
