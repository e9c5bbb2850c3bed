/**
 * @file
 * Poll-mode drivers.
 *
 * PmdStandard reproduces the stock DPDK RX/TX flow: the NIC's CQE is
 * converted into a generic rte_mbuf, the descriptor ring is
 * replenished from the mempool, and transmitted mbufs return to the
 * pool at the next tx_burst (free threshold behaviour).
 *
 * PmdXchg reproduces the paper's X-Change driver: metadata is written
 * through the application's conversion functions directly into the
 * application's representation, and data buffers are exchanged at the
 * ring, bypassing both the rte_mbuf and the mempool.
 */

#ifndef PMILL_DRIVER_PMD_HH
#define PMILL_DRIVER_PMD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/mbuf.hh"
#include "src/driver/mempool.hh"
#include "src/driver/xchg.hh"
#include "src/mem/access_sink.hh"
#include "src/nic/nic_device.hh"

namespace pmill {

class MetricsRegistry;
class Tracer;

/** Stock DPDK-style PMD over generic mbufs. */
class PmdStandard {
  public:
    /**
     * @param queue Queue index of @p nic this PMD instance serves.
     */
    PmdStandard(NicDevice &nic, Mempool &pool, std::uint32_t queue);

    /**
     * Fill the RX ring with pool buffers (call once at startup).
     * @return number of descriptors posted.
     */
    std::uint32_t setup_rx(AccessSink *sink = nullptr);

    /**
     * Receive up to @p max packets completed by time @p now:
     * loads each CQE, converts it into the mbuf's metadata, and
     * replenishes the descriptor ring from the mempool.
     */
    std::uint32_t rx_burst(TimeNs now, MbufRef *out, std::uint32_t max,
                           AccessSink *sink);

    /**
     * Transmit @p n mbufs: frees previously completed TX mbufs back
     * to the pool (free-threshold behaviour), then posts descriptors.
     * @return packets actually queued (ring-full drops the rest and
     *         counts them in the device's tx_drops).
     */
    std::uint32_t tx_burst(MbufRef *pkts, std::uint32_t n, TimeNs now,
                           AccessSink *sink);

    /**
     * Engine callback: the completion of a frame that left the wire
     * takes effect. The descriptor slot is reclaimed at once; the
     * buffer returns to the pool at the next tx_burst.
     */
    void on_tx_complete(const TxCompletion &c);

    /**
     * Register this queue's ring gauge and the backing pool's gauges
     * under @p prefix.
     */
    void register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const;

    /**
     * Attach @p t (nullptr detaches); RX bursts are recorded under
     * span @p span and the tracer's burst clock follows rx/tx polls.
     */
    void
    set_tracer(Tracer *t, std::uint16_t span)
    {
        tracer_ = t;
        trace_span_ = span;
    }

  private:
    MbufRef mbuf_of_buffer(Addr buf_addr, std::uint8_t *buf_host) const;

    NicDevice &nic_;
    Mempool &pool_;
    std::uint32_t queue_;
    std::vector<MbufRef> to_free_;  ///< completed, waiting for free
    Tracer *tracer_ = nullptr;
    std::uint16_t trace_span_ = 0;
};

/** X-Change PMD writing metadata through application conversions. */
class PmdXchg {
  public:
    PmdXchg(NicDevice &nic, XchgAdapter &adapter, std::uint32_t queue);

    /**
     * Post @p count application-provided buffers to the RX ring
     * (call once at startup). The adapter supplies the buffers.
     */
    std::uint32_t setup_rx(std::uint32_t count, AccessSink *sink = nullptr);

    /**
     * Receive up to @p max packets: each CQE is converted directly
     * into the application object supplied by the adapter, and the
     * adapter's spare buffer is exchanged onto the descriptor ring.
     * @p out receives the opaque application packets.
     */
    std::uint32_t rx_burst(TimeNs now, void **out, std::uint32_t max,
                           AccessSink *sink);

    /**
     * Transmit @p n application packets; previously completed
     * buffers are recycled to the application first.
     */
    std::uint32_t tx_burst(void **pkts, std::uint32_t n, TimeNs now,
                           AccessSink *sink);

    /**
     * Engine callback: the completion of a frame that left the wire
     * takes effect. The descriptor slot is reclaimed at once; the
     * buffer returns to the application at the next tx_burst.
     */
    void on_tx_complete(const TxCompletion &c);

    /** Register this queue's RX-ring occupancy gauge under @p prefix. */
    void register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const;

    /** Same contract as PmdStandard::set_tracer. */
    void
    set_tracer(Tracer *t, std::uint16_t span)
    {
        tracer_ = t;
        trace_span_ = span;
    }

  private:
    NicDevice &nic_;
    XchgAdapter &adapter_;
    std::uint32_t queue_;
    std::vector<TxCompletion> to_recycle_;
    Tracer *tracer_ = nullptr;
    std::uint16_t trace_span_ = 0;
};

} // namespace pmill

#endif // PMILL_DRIVER_PMD_HH
