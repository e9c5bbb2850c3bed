/**
 * @file
 * Datapaths: the application side of each metadata-management model.
 *
 * A Datapath binds a NIC queue to a metadata model, turning received
 * frames into PacketHandles and transmitting processed batches:
 *
 *  - CopyingDatapath  (§2.2 "Copying", FastClick default): standard
 *    PMD fills generic mbufs; the application allocates a separate
 *    Packet object per packet from its own pool and copies the useful
 *    fields — two conversions per direction.
 *  - OverlayDatapath  (§2.2 "Overlaying", BESS / FastClick-light):
 *    standard PMD fills mbufs; the application casts the mbuf and
 *    keeps its annotations in the area following the struct.
 *  - XchgDatapath     (§3.1 "X-Change"): the X-Change PMD writes
 *    metadata straight into the application's compact objects and
 *    exchanges data buffers at the descriptor ring; a burst-sized
 *    metadata working set stays cache-resident and the mempool is
 *    bypassed entirely.
 *  - ParkingDatapath  (header-only hot path): X-Change plus a payload
 *    park — the NIC splits each frame at a configurable header/payload
 *    boundary, DMAs only the header prefix into the packet buffer, and
 *    parks the payload in a per-core PayloadPark arena with a
 *    DRAM-direct fill (no DDIO/LLC allocation). The pipeline runs
 *    header-only; at TX the NIC gathers header + payload back together.
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

    /** The metadata layout packets of this datapath use. */
    virtual const MetadataLayout &layout() const = 0;

    virtual MetadataModel model() const = 0;

    /**
     * Register this queue's ring/pool gauges (via the owned PMD and
     * pools) under @p prefix. Default: nothing.
     */
    virtual void
    register_metrics(MetricsRegistry &, const std::string &)
    {}

    /**
     * Occupancy in [0,1] of the buffer pool backing this datapath
     * (mempool for Copying/Overlaying, the application's exchanged
     * buffer set for X-Change).
     */
    virtual double pool_occupancy() const { return 0.0; }

    /**
     * Attach @p t (nullptr detaches) to the owned PMD and pools,
     * interning spans under @p label (e.g. "q0"). Default: nothing.
     */
    virtual void set_tracer(Tracer *, const std::string &) {}

    /**
     * Parking model: fill @p out with the queue's ticket-lifecycle
     * counters and return true. Other models return false. The engine
     * asserts ticket conservation (parked == rejoined + dropped, no
     * outstanding tickets) after every run.
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
 * header/payload split; the other models ignore it.
 */
std::unique_ptr<Datapath> make_datapath(MetadataModel model, NicDevice &nic,
                                        SimMemory &mem,
                                        const MetadataLayout &layout,
                                        std::uint32_t queue,
                                        std::uint32_t park_split_bytes);

} // namespace pmill

#endif // PMILL_FRAMEWORK_DATAPATH_HH
