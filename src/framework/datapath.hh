/**
 * @file
 * Datapaths: the application side of each metadata-management model.
 *
 * A Datapath binds a NIC queue to a metadata model, turning received
 * frames into PacketHandles and transmitting processed batches. The
 * four models come in two families:
 *
 *  - The mbuf family (§2.2): a standard PMD fills generic mbufs from
 *    a mempool, and the application converts. Copying (FastClick
 *    default) allocates a separate Packet object per packet from its
 *    own pool and copies the useful fields, two conversions per
 *    direction; Overlaying (BESS / FastClick-light) casts the mbuf and
 *    keeps its annotations in the area following the struct.
 *  - The X-Change family (§3.1): the X-Change PMD writes metadata
 *    straight into the application's compact objects and exchanges
 *    data buffers at the descriptor ring; a burst-sized metadata
 *    working set stays cache-resident and the mempool is bypassed.
 *    Parking is X-Change with a park dock: the NIC splits each frame
 *    at a header/payload boundary, DMAs only the header prefix into a
 *    header-sized buffer and parks the payload in the datapath's
 *    PayloadPark with a DRAM-direct fill (no DDIO/LLC allocation). The
 *    pipeline runs header-only; at TX the NIC gathers header + payload
 *    back together.
 */

#ifndef PMILL_FRAMEWORK_DATAPATH_HH
#define PMILL_FRAMEWORK_DATAPATH_HH

#include <memory>
#include <vector>

#include "src/common/ring.hh"
#include "src/driver/mempool.hh"
#include "src/driver/pmd.hh"
#include "src/driver/xchg.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/mem/payload_park.hh"
#include "src/nic/nic_device.hh"

namespace pmill {

class Tracer;

/** Abstract application datapath over one NIC queue. */
class Datapath {
  public:
    virtual ~Datapath() = default;

    /** Post initial RX buffers (call once before the run). */
    virtual void setup() = 0;

    /**
     * Receive up to ctx.burst() packets completed by @p now into
     * @p batch (handles fully populated).
     */
    virtual std::uint32_t rx(TimeNs now, PacketBatch &batch,
                             ExecContext &ctx) = 0;

    /** Transmit the non-dropped packets of @p batch. */
    virtual void tx(PacketBatch &batch, TimeNs now, ExecContext &ctx) = 0;

    /** Engine callback: a frame finished on the TX wire. */
    virtual void on_tx_complete(const TxCompletion &c) = 0;

    /**
     * Register this queue's ring/pool gauges (via the owned PMD and
     * pools) under @p prefix.
     */
    virtual void register_metrics(MetricsRegistry &reg,
                                  const std::string &prefix) = 0;

    /**
     * Occupancy in [0,1] of the buffer pool backing this datapath
     * (mempool for Copying/Overlaying, the application's exchanged
     * buffer set for X-Change).
     */
    virtual double pool_occupancy() const = 0;

    /**
     * Attach @p t (nullptr detaches) to the owned PMD and pools,
     * interning spans under @p label (e.g. "q0").
     */
    virtual void set_tracer(Tracer *t, const std::string &label) = 0;

    /**
     * With a park dock (Parking model): fill @p out with the queue's
     * ticket-lifecycle counters and return true. Without one, return
     * false. The engine asserts ticket conservation (parked ==
     * rejoined + dropped + outstanding) after every run.
     */
    virtual bool
    park_stats(PayloadPark::Stats *out) const
    {
        (void)out;
        return false;
    }
};

/**
 * Create the datapath for @p model on @p queue of @p nic. @p layout
 * must outlive the datapath (the caller owns it so the mill can swap
 * in a reordered one). @p park_split_bytes is the Parking model's
 * header/payload split (nonzero); the other models ignore it.
 */
std::unique_ptr<Datapath> make_datapath(MetadataModel model, NicDevice &nic,
                                        SimMemory &mem,
                                        const MetadataLayout &layout,
                                        std::uint32_t queue,
                                        std::uint32_t park_split_bytes);

} // namespace pmill

#endif // PMILL_FRAMEWORK_DATAPATH_HH
