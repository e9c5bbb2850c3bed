/**
 * @file
 * Software flow-steering fabric: per-core handoff rings plus a shared
 * reprogrammable flow table, the software analogue of the NIC's RSS
 * indirection table (PFQ-style packet steering between cores).
 *
 * The fabric sits between the FlowSteer element (which consults the
 * table on each core and stages frames whose home core differs) and
 * the destination cores, which land each handoff on their NIC queue
 * a fixed latency after it was staged. The engine takes the staged
 * handoffs at each epoch edge and lands them from the destinations'
 * inboxes (src/runtime/engine.cc).
 *
 * Concurrency contract (mirrors the epoch scheduler's): during the
 * parallel phase a source core touches only its own outbox, its own
 * in-flight records, its own stats shard and its own per-bucket load
 * shard, and a destination core only its own stats shard; the shared
 * table is read-only. Taking the outboxes and reprogramming the table
 * happen at serial points, and every handoff is due at least one
 * latency after it was staged, so results are bit-identical for every
 * host thread count and every epoch up to that latency.
 */

#ifndef PMILL_NET_STEERING_HH
#define PMILL_NET_STEERING_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/log.hh"
#include "src/common/types.hh"
#include "src/mem/sim_memory.hh"

namespace pmill {

/** Fabric counters (summed over per-core shards on read). */
struct SteerStats {
    std::uint64_t steered = 0;     ///< frames handed off by FlowSteer
    std::uint64_t passed = 0;      ///< frames already on their home core
    std::uint64_t delivered = 0;   ///< frames landed on the target queue
    std::uint64_t stage_drops = 0; ///< handoff ring full at the source
    std::uint64_t ring_drops = 0;  ///< target queue refused the frame
    /// Staged frames not yet landed or refused at their destination
    /// (steered - delivered - ring_drops). Engine::run asserts after
    /// every run that exactly this many wait in the destinations'
    /// inboxes, each due at or after the run's end.
    std::uint64_t in_flight = 0;
};

/** One handoff frame (host-side copy; the source's buffer is released
 * as soon as the frame is staged). */
struct Handoff {
    std::vector<std::uint8_t> bytes;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    TimeNs arrival_ns = 0;  ///< original wire arrival (latency keeps
                            ///< charging from the wire, so handoff
                            ///< queueing delay stays visible in p99)
    TimeNs due_ns = 0;      ///< staging time + the fabric's latency
};

class SteerFabric {
  public:
    /** Accounted bytes of one handoff-ring slot (max frame + slack). */
    static constexpr std::uint32_t kSlotBytes = 2048;

    /**
     * @param table_size power-of-two bucket count (like the NIC RETA).
     * @param ring_capacity per-(src,dst) bound on handoffs in flight
     *        (staged and not yet due); overflow is a deterministic
     *        steer drop, like a full hardware ring.
     * @param latency_ns delay from staging to landing on the
     *        destination's queue.
     * @param ring_sockets optional per-core NUMA homes: destination
     *        core c's handoff ring is allocated with home socket
     *        ring_sockets[c], so a cross-socket handoff's stores pay
     *        the remote-fill penalty. Null = allocator default.
     * Simulated backings (the shared table and one handoff-ring
     * region per destination core) are placed in @p mem so steering
     * costs flow through the cache model.
     */
    SteerFabric(std::uint32_t num_cores, std::uint32_t table_size,
                std::uint32_t ring_capacity, TimeNs latency_ns,
                SimMemory &mem,
                const std::vector<std::uint32_t> *ring_sockets = nullptr);

    std::uint32_t num_cores() const { return num_cores_; }
    std::uint32_t
    table_size() const
    {
        return static_cast<std::uint32_t>(table_.size());
    }

    std::uint32_t index_of(std::uint32_t hash) const { return hash & mask_; }

    std::uint32_t
    entry(std::uint32_t idx) const
    {
        PMILL_ASSERT(idx < table_.size(), "bad steer table index");
        return table_[idx];
    }

    /** Reprogram one bucket (serial points only). */
    void
    set_entry(std::uint32_t idx, std::uint32_t core)
    {
        PMILL_ASSERT(idx < table_.size(), "bad steer table index");
        PMILL_ASSERT(core < num_cores_, "bad steer table core");
        table_[idx] = core;
    }

    /** Home core of @p hash under the current table. */
    std::uint32_t target_of(std::uint32_t hash) const
    {
        return table_[hash & mask_];
    }

    /** Sim address of bucket @p idx (element-side lookup charge). */
    Addr table_addr(std::uint32_t idx) const
    {
        return table_mem_.at(std::uint64_t(idx) * 4);
    }

    /**
     * Sim address of the next slot of @p dst 's handoff ring as seen
     * from @p src, advancing src's private cursor. Each source keeps
     * its own cursor (per-core state, race-free in the parallel
     * phase); the per-core cache hierarchies are private, so two
     * sources charging stores against the same ring region model
     * their own cache traffic without interacting.
     */
    Addr
    ring_slot_addr(std::uint32_t src, std::uint32_t dst)
    {
        std::uint32_t &cur = cursors_[src * num_cores_ + dst];
        const Addr a = ring_mem_[dst].at(std::uint64_t(cur) * kSlotBytes);
        cur = (cur + 1) % ring_capacity_;
        return a;
    }

    /// @name Parallel phase, source-core-private operations.
    /// @{

    /**
     * Stage a frame from @p src for @p dst at simulated time @p now_ns;
     * it lands on dst at now_ns + the fabric latency. @return false
     * when ring_capacity handoffs from src to dst are still in flight
     * at now_ns (counted as a stage drop; the caller still releases
     * the packet).
     */
    bool stage(std::uint32_t src, std::uint32_t dst,
               const std::uint8_t *frame, std::uint32_t len,
               TimeNs arrival_ns, TimeNs now_ns);

    void note_pass(std::uint32_t core) { ++shards_[core].passed; }

    /** Record one frame of bucket @p idx processed on @p core. */
    void
    note_entry_load(std::uint32_t core, std::uint32_t idx)
    {
        ++load_shards_[core][idx];
    }
    /// @}

    /** Count @p dst 's landing of a handoff: @p delivered, or refused
     * by its queue (a ring drop). Destination-core-private. */
    void
    note_landing(std::uint32_t dst, bool delivered)
    {
        if (delivered)
            ++shards_[dst].delivered;
        else
            ++shards_[dst].ring_drops;
    }

    /// @name Serial-point operations (conductor / controller).
    /// @{

    /**
     * Pass every staged handoff to @p take, sources in ascending core
     * order and each source's in staging order, and empty the outboxes.
     */
    template <typename Fn>
    void
    take_staged(Fn &&take)
    {
        for (std::vector<Handoff> &out : outbox_) {
            for (Handoff &h : out)
                take(std::move(h));
            out.clear();
        }
    }

    /** Total frames of bucket @p idx (summed over core shards). */
    std::uint64_t entry_load(std::uint32_t idx) const;

    void reset_entry_loads();

    SteerStats stats() const;
    /// @}

  private:
    std::uint32_t num_cores_;
    std::uint32_t mask_;
    std::uint32_t ring_capacity_;
    TimeNs latency_ns_;
    std::vector<std::uint32_t> table_;
    MemHandle table_mem_;
    std::vector<MemHandle> ring_mem_;        ///< one region per dst
    std::vector<std::uint32_t> cursors_;     ///< per (src,dst) slot cursor
    /// Per (src,dst): due times of the handoffs src staged for dst,
    /// in staging order, trimmed to those still in flight.
    std::vector<std::deque<TimeNs>> in_flight_;
    std::vector<std::vector<Handoff>> outbox_;   ///< per src, staged
    std::vector<SteerStats> shards_;         ///< per core
    std::vector<std::vector<std::uint64_t>> load_shards_;  ///< per core
};

} // namespace pmill

#endif // PMILL_NET_STEERING_HH
