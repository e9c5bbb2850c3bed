/**
 * @file
 * The X-Change API (the paper's §3.1).
 *
 * Instead of the PMD writing RX metadata into a generic rte_mbuf and
 * the application copying or casting it afterwards, the application
 * implements a set of *conversion functions* through which the PMD
 * writes metadata directly into the application's own packet
 * representation, and hands the PMD its own buffers so used and free
 * buffers are *exchanged* at the descriptor ring (no mempool
 * round-trips).
 *
 * In the paper these conversion functions are free functions inlined
 * into the driver by LTO. Here they are virtual members of an
 * adapter object: the *simulated* cost of each call is what the
 * accounting reports (stores into the application's metadata lines),
 * so host-level dispatch does not skew results; the real,
 * host-measured benefit of inlining the conversion layer is shown
 * separately by bench/micro_dispatch.
 */

#ifndef PMILL_DRIVER_XCHG_HH
#define PMILL_DRIVER_XCHG_HH

#include <cstdint>

#include "src/common/types.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/payload_park.hh"

namespace pmill {

/**
 * Application side of the X-Change contract. "void *pkt" is the
 * application's opaque packet representation (struct xchg* in the
 * paper's listings).
 */
class XchgAdapter {
  public:
    /** A metadata slot plus a spare buffer offered for exchange. */
    struct RxSlot {
        void *pkt = nullptr;          ///< application metadata object
        Addr spare_buf_addr = 0;      ///< free buffer to post to the NIC
        std::uint8_t *spare_buf_host = nullptr;
    };

    virtual ~XchgAdapter() = default;

    /**
     * Provide the metadata object for the next received packet along
     * with a spare data buffer the PMD will post to the RX ring.
     * @return false when the application has no buffers (PMD stops
     * the burst early).
     */
    virtual bool next_rx_slot(RxSlot &slot, AccessSink *sink) = 0;

    /// @name RX conversion functions (paper Listing 1/2)
    /// @{
    virtual void set_buffer(void *pkt, Addr buf_addr, std::uint8_t *host,
                            AccessSink *sink) = 0;
    virtual void set_len(void *pkt, std::uint32_t len, AccessSink *sink) = 0;
    virtual void set_vlan_tci(void *pkt, std::uint16_t tci,
                              AccessSink *sink) = 0;
    virtual void set_rss_hash(void *pkt, std::uint32_t hash,
                              AccessSink *sink) = 0;
    virtual void set_timestamp(void *pkt, TimeNs t, AccessSink *sink) = 0;
    virtual void set_packet_type(void *pkt, std::uint32_t flags,
                                 AccessSink *sink) = 0;
    /// @}

    /// @name TX-side accessors
    /// @{
    virtual Addr tx_buffer_addr(void *pkt, AccessSink *sink) = 0;
    virtual std::uint8_t *tx_buffer_host(void *pkt) = 0;
    virtual std::uint32_t tx_len(void *pkt, AccessSink *sink) = 0;
    virtual TimeNs tx_arrival(void *pkt) = 0;
    /// @}

    /**
     * A transmitted buffer's ownership returned to the application
     * (it becomes a spare for a future exchange).
     */
    virtual void recycle_buffer(Addr buf_addr, std::uint8_t *host,
                                AccessSink *sink) = 0;

    /// @name Parking-model hooks. Only a queue with a park dock bound
    /// parks payloads; on any other queue every ParkRef stays zero.
    /// @{
    /** RX: the NIC parked @p len payload bytes under @p ticket. */
    virtual void set_park(void *pkt, std::uint32_t ticket, std::uint32_t len,
                          AccessSink *sink) = 0;
    /** TX: the packet's parked payload (zero when nothing is parked). */
    virtual ParkRef tx_park(void *pkt) = 0;
    /**
     * Release the packet's parked payload on a driver-side drop (TX
     * ring full), so its ticket does not leak.
     */
    virtual void release_parked(void *pkt) = 0;
    /// @}
};

} // namespace pmill

#endif // PMILL_DRIVER_XCHG_HH
