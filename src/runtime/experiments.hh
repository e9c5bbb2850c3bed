/**
 * @file
 * Canonical experiment definitions shared by the benchmark binaries
 * and examples: the paper's five NF configurations (Appendix A), the
 * named optimization variants of §4, and a measurement wrapper that
 * builds the engine, runs PacketMill's passes, and executes a run.
 */

#ifndef PMILL_RUNTIME_EXPERIMENTS_HH
#define PMILL_RUNTIME_EXPERIMENTS_HH

#include <cstdint>
#include <string>

#include "src/mill/packet_mill.hh"
#include "src/runtime/engine.hh"
#include "src/trace/trace.hh"

namespace pmill {

/// @name The paper's NF configurations (Appendix A).
/// @{

/** §A.1 simple forwarder (EtherMirror). */
std::string forwarder_config(std::uint32_t burst = 32);

/** §A.2 standard router (classifier, ARP, check, LPM, TTL, rewrite). */
std::string router_config(std::uint32_t burst = 32);

/** §A.3 IDS + VLAN supplement on top of the router. */
std::string ids_router_config(std::uint32_t burst = 32);

/** §A.3 NAT (router + stateful NAPT over a cuckoo table). */
std::string nat_config(std::uint32_t burst = 32);

/**
 * NAT with a bounded flow table and idle-timeout aging — the
 * million-flow / hostile-workload variant of nat_config().
 */
std::string nat_aging_config(std::uint32_t burst, std::uint32_t capacity,
                             double idle_timeout_ms);

/**
 * IDS router tracking TCP connection state (half-open vs
 * established) in a bounded, aged conntrack table.
 */
std::string ids_conntrack_config(std::uint32_t burst,
                                 std::uint32_t capacity,
                                 double idle_timeout_ms);

/** §A.4 WorkPackage(S MiB, N accesses, W PRNG rounds) + forwarder. */
std::string workpackage_config(std::uint32_t s_mb, std::uint32_t n,
                               std::uint32_t w,
                               std::uint32_t burst = 32);

/**
 * router_config() with a FlowSteer stage ahead of the classifier.
 * On a single-core engine the element stays unbound and transparent;
 * on a multicore engine it consults the shared SteerFabric table and
 * re-steers flows whose bucket maps to another core through the
 * per-core handoff rings (the software analogue of reprogramming the
 * NIC's RSS indirection table).
 */
std::string steered_router_config(std::uint32_t burst = 32);
/// @}

/// @name Named optimization variants (§4.1 / §4.2).
/// @{
PipelineOpts opts_vanilla();           ///< FastClick, Copying
PipelineOpts opts_devirtualize();      ///< + click-devirtualize
PipelineOpts opts_constants();         ///< + constant embedding
PipelineOpts opts_static_graph();      ///< + static graph (full devirt)
PipelineOpts opts_source_all();        ///< all source-code passes
PipelineOpts opts_lto_reorder();       ///< Copying + LTO + reorder pass
PipelineOpts opts_model(MetadataModel model);  ///< model comparison, LTO on
PipelineOpts opts_packetmill();        ///< X-Change + all passes
/// @}

/// @name Framework personalities for the §4.6 comparison.
/// @{
PipelineOpts opts_l2fwd();        ///< raw DPDK sample app (mbuf direct)
PipelineOpts opts_l2fwd_xchg();   ///< the paper's l2fwd-xchg sample
PipelineOpts opts_bess();         ///< BESS-like (overlay, lean core)
PipelineOpts opts_vpp();          ///< VPP-like (overlay + field copy)
PipelineOpts opts_fastclick_light();  ///< FastClick w/ Overlaying
/// @}

/** Run lengths of one measurement (fixed, so results are golden). */
struct Quality {
    double warmup_us = 1200;
    double duration_us = 2500;
};

/** One measurement: build engine, grind, run. */
struct ExperimentSpec {
    std::string config;
    PipelineOpts opts;
    double freq_ghz = 2.3;
    double offered_gbps = 100.0;
    std::uint32_t num_cores = 1;
    std::uint32_t num_nics = 1;
    Quality quality;
};

/** Execute @p spec against @p trace. */
RunResult measure(const ExperimentSpec &spec, const Trace &trace);

/** The default campus-like trace used across experiments. */
Trace default_campus_trace();

} // namespace pmill

#endif // PMILL_RUNTIME_EXPERIMENTS_HH
