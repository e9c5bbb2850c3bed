/**
 * @file
 * Workload synthesis subsystem: streaming traffic generation.
 *
 * Unlike the Trace arena (which precomputes every frame up front and
 * caps experiments at a few hundred thousand packets of variety), a
 * WorkloadSource synthesizes each frame lazily from O(flows) state —
 * a few bytes per concurrent flow — so million-flow universes and
 * arbitrarily long runs cost nothing but the per-flow slot table.
 *
 * A WorkloadSpec describes the traffic model:
 *   - popularity: uniform or Zipf(s) over up to 2^26 five-tuples
 *   - liveness:   immortal flows, or churn (flows born / emit a
 *                 geometric number of packets / die with FIN)
 *   - arrivals:   smooth, or MMPP-style on/off bursts
 *   - hostility:  SYN floods (spoofed sources, one victim) and port
 *                 scans (one attacker sweeping ports) that never
 *                 complete handshakes — the traffic that stresses
 *                 flow-state aging in NAT / IDS elements
 *
 * Generation is fully determined by (spec.seed, stream): identical
 * specs produce bit-identical frame streams on any host, which is
 * what lets the workload benches pin `eq_` columns.
 */

#ifndef PMILL_WORKLOAD_WORKLOAD_HH
#define PMILL_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/net/headers.hh"
#include "src/trace/trace.hh"
#include "src/workload/samplers.hh"

namespace pmill {

/** Parsed description of a synthetic workload. */
struct WorkloadSpec {
    enum Kind : std::uint8_t {
        kUniform,   ///< uniform popularity over the flow universe
        kZipf,      ///< Zipf(s) popularity (hot-head traffic)
        kChurn,     ///< Zipf popularity + flows born/die continuously
        kSynFlood,  ///< spoofed-source SYNs at one victim
        kPortScan,  ///< one attacker sweeping destination ports
    };

    Kind kind = kUniform;
    std::uint64_t flows = 65536;  ///< flow-universe size (<= 2^26)
    double skew = 0.0;            ///< Zipf exponent (0 = uniform)
    std::uint64_t flow_pkts = 0;  ///< mean packets per flow (0 = immortal)
    std::uint32_t frame_len = 0;  ///< fixed data-frame bytes (0 = campus mix)
    double udp_frac = 0.0;        ///< fraction of flows that are UDP
    double burst = 1.0;           ///< peak-to-mean arrival ratio (1 = smooth)
    double phase_pkts = 256.0;    ///< mean packets per on+off burst cycle
    std::uint64_t seed = 1;       ///< master seed
    Ipv4Addr victim = Ipv4Addr::make(20, 0, 0, 99);  ///< flood/scan target
    std::uint16_t victim_port = 80;

    /**
     * Parse "kind:key=value,key=value,..." (e.g.
     * "zipf:flows=1000000,skew=1.1,burst=8"). Keys: flows, skew,
     * pkts, len, udp, burst, phase, seed, victim, vport; "kind=X" is
     * also accepted as a pair. Unknown keys, out-of-range values,
     * integers above 2^64 - 1 and non-finite numbers fail.
     */
    bool parse(const std::string &text, std::string *error);

    /** Canonical description; parse() reads it back exactly. */
    std::string to_string() const;

    static const char *kind_name(Kind k);
};

/**
 * Load a workload spec from @p arg: if it names a readable file, the
 * file's non-comment lines are joined with ',' and parsed (so specs
 * can live one-key-per-line under configs/workloads/); otherwise
 * @p arg itself is parsed as an inline spec.
 */
bool load_workload_spec(const std::string &arg, WorkloadSpec *spec,
                        std::string *error);

/** Counters a WorkloadSource keeps while generating. */
struct WorkloadStats {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;       ///< wire bytes (excluding preamble/IFG)
    std::uint64_t flows_born = 0;
    std::uint64_t flows_died = 0;
    std::uint64_t syn_frames = 0;
    std::uint64_t fin_frames = 0;
};

/**
 * Streaming frame generator: the FrameSource that synthesizes traffic
 * from a WorkloadSpec. One instance per NIC; @p stream decorrelates
 * multiple instances sharing a spec.
 *
 * draw() makes every random choice (flow, birth and death, TCP flags,
 * size, burst gap) and updates the per-flow state and the stats; the
 * frame it returns is fully described by its tuple, length, TCP
 * sequence number and flags. write() builds those into the bytes and
 * checksums and touches nothing else, so a frame the NIC refuses costs
 * only its draw.
 */
class WorkloadSource : public FrameSource {
  public:
    WorkloadSource(const WorkloadSpec &spec, std::uint32_t stream = 0);

    /** @p gap_scale receives the burst-modulation factor for the gap
     * before the *next* frame (1.0 when bursts are off). */
    FrameDraw draw(double *gap_scale) override;

    /** Build @p d 's frame into @p buf. */
    const std::uint8_t *write(const FrameDraw &d,
                              std::uint8_t *buf) const override;

    const WorkloadStats &stats() const { return stats_; }
    const WorkloadSpec &spec() const { return spec_; }

    /** Host bytes of per-flow generator state (the slot table). */
    std::uint64_t state_bytes() const
    {
        return slots_.size() * sizeof(Slot);
    }

  private:
    /// Per-flow generator state: which incarnation of the slot's
    /// 5-tuple is live and how many frames it has left. 8 bytes per
    /// flow keeps a 1.5M-flow universe at ~12 MB of host memory.
    struct Slot {
        std::uint32_t epoch = 0;
        std::uint16_t remaining = 0;  ///< 0 = dead, kImmortal = no FIN
        std::uint16_t pad = 0;
    };
    static constexpr std::uint16_t kImmortal = 0xFFFF;

    std::uint64_t flow_id(std::uint64_t slot, std::uint32_t epoch) const;
    std::uint32_t data_frame_len();
    /// Draw the next frame of each kind into @p d (all but the gap).
    void normal_draw(FrameDraw &d);
    void synflood_draw(FrameDraw &d);
    void portscan_draw(FrameDraw &d);

    WorkloadSpec spec_;
    std::uint64_t tuple_salt_;  ///< folds seed + stream into flow ids
    Xorshift64 rng_;
    ZipfSampler zipf_;
    BurstModulator bursts_;
    std::vector<Slot> slots_;
    std::uint64_t probe_idx_ = 0;  ///< synflood/portscan sequence number
    WorkloadStats stats_;
};

} // namespace pmill

#endif // PMILL_WORKLOAD_WORKLOAD_HH
