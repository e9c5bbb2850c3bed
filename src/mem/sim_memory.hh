/**
 * @file
 * Simulated physical memory.
 *
 * Every data structure whose cache behaviour matters — mbufs, packet
 * data buffers, metadata pools, NIC descriptor rings, element state,
 * lookup tables — is allocated from a SimMemory instance. Each
 * allocation receives a *simulated* address (fed to the cache
 * hierarchy model) and host backing storage (so the packet-processing
 * logic operates on real bytes). Host pages go only to bytes the host
 * writes: an allocation the host writes in full is committed up
 * front, and one it writes in part, or only uses as an address range,
 * gets a sparse backing (DESIGN.md §3, "Host backing").
 *
 * Two allocation disciplines model the paper's §3.2.1 distinction:
 *  - contiguous (static arena / pools): densely packed, naturally
 *    cache- and TLB-friendly;
 *  - scattered (dynamic heap): each allocation lands on a fresh page
 *    with a pseudo-random intra-page offset, emulating the fragmented
 *    layout of config-time heap allocation in modular frameworks.
 */

#ifndef PMILL_MEM_SIM_MEMORY_HH
#define PMILL_MEM_SIM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.hh"
#include "src/common/types.hh"

namespace pmill {

/** Classification of an allocation, for statistics and debugging. */
enum class Region : std::uint8_t {
    kStaticArena,   ///< Statically placed element state (PacketMill).
    kHeap,          ///< Dynamically allocated element state (vanilla).
    kMbufPool,      ///< DPDK-style mbuf metadata pool.
    kMetadataPool,  ///< Application packet-metadata pool.
    kPacketData,    ///< Raw packet data buffers (headroom + data).
    kDeviceRing,    ///< NIC descriptor / completion rings.
    kTable,         ///< Lookup tables (LPM, cuckoo hash).
    kScratch,       ///< Synthetic working sets (WorkPackage).
    kPayloadPark,   ///< Parked-payload arena (Parking model).
};

/**
 * Handle to one simulated allocation: the simulated base address used
 * for cache accounting and the host pointer used for real data access.
 */
struct MemHandle {
    Addr addr = 0;            ///< Simulated base address.
    std::uint8_t *host = nullptr;  ///< Host backing storage.
    std::uint64_t size = 0;   ///< Allocation size in bytes.

    /** Simulated address of byte @p off within the allocation. */
    Addr at(std::uint64_t off) const { return addr + off; }

    /** True if the handle refers to a real allocation. */
    explicit operator bool() const { return host != nullptr; }
};

/**
 * A flat simulated physical address space with host-backed
 * allocations.
 */
class SimMemory {
  public:
    SimMemory();

    SimMemory(const SimMemory &) = delete;
    SimMemory &operator=(const SimMemory &) = delete;

    /**
     * Allocate @p size bytes aligned to @p align (power of two),
     * contiguously after the previous allocation. The host backing is
     * zeroed and committed before return, so a run never takes a
     * first-touch page fault on it.
     */
    MemHandle alloc(std::uint64_t size, std::uint64_t align, Region r);

    /**
     * alloc() for memory the host writes only in part, or never: a
     * simulated address range (the heap chase, NIC rings), a table
     * setup fills in part (LPM), or a pool whose LIFO reuse touches a
     * few elements (mbufs). The host backing reads as zeros and
     * commits a page only when it is first written, so a first write
     * during a run takes a page fault there. The simulated address
     * and accounting are exactly those of alloc().
     */
    MemHandle alloc_sparse(std::uint64_t size, std::uint64_t align,
                           Region r);

    /**
     * Allocate with heap-like scatter: the allocation starts on a
     * fresh page plus a pseudo-random cache-line offset, and pages are
     * spread with pseudo-random gaps, emulating allocator
     * fragmentation at config-parse time.
     */
    MemHandle alloc_scattered(std::uint64_t size, Region r);

    /** Total simulated bytes allocated per region. */
    std::uint64_t allocated_bytes(Region r) const;

    /**
     * Look up the host pointer backing simulated address @p a, or
     * nullptr when @p a was never allocated. O(log n); prefer keeping
     * the MemHandle instead.
     */
    std::uint8_t *host_ptr(Addr a);

    /**
     * NUMA home socket for every *subsequent* allocation. The engine
     * sets this before building each core's pools so per-core memory
     * is tagged with the owning core's socket.
     */
    void set_home_socket(std::uint32_t socket) { home_socket_ = socket; }

    std::uint32_t home_socket() const { return home_socket_; }

    /**
     * Home socket of simulated address @p a (socket the backing
     * allocation was tagged with; 0 when unmapped). O(log n) — used
     * by the cache model's NUMA probe, which fires only on DRAM
     * fills, not on every access.
     */
    std::uint32_t socket_of(Addr a) const;

  private:
    /**
     * Frees a host backing: unmaps a sparse one, else free().
     * unique_ptr value-initializes it, so mapped_bytes starts at 0.
     */
    struct HostRelease {
        std::uint64_t mapped_bytes;  ///< length of a sparse mapping, or 0
        void operator()(std::uint8_t *p) const;
    };
    using HostBytes = std::unique_ptr<std::uint8_t[], HostRelease>;

    struct Alloc {
        Addr base;
        std::uint64_t size;
        HostBytes host;
        std::uint32_t socket;
    };

    MemHandle place(std::uint64_t size, std::uint64_t align, Region r,
                    bool sparse);

    std::vector<Alloc> allocs_;  // sorted by base
    std::uint64_t region_bytes_[9] = {};
    Addr next_;
    Xorshift64 scatter_rng_;
    std::uint32_t home_socket_ = 0;
};

} // namespace pmill

#endif // PMILL_MEM_SIM_MEMORY_HH
