/**
 * @file
 * The testbed engine: a discrete-event simulation of the paper's
 * experimental setup — a packet generator driving a Device Under
 * Test over 100-Gbps link(s), with the DUT running an element
 * pipeline on one or more cores.
 *
 * Topologies covered:
 *  - 1 NIC / 1 core (most figures),
 *  - 2 NICs / 1 core (Fig. 5b, the >100 Gbps X-Change result),
 *  - 1 NIC / k cores with RSS (Fig. 10, multicore NAT).
 */

#ifndef PMILL_RUNTIME_ENGINE_HH
#define PMILL_RUNTIME_ENGINE_HH

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/common/histogram.hh"
#include "src/common/log.hh"
#include "src/control/actuator.hh"
#include "src/framework/datapath.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/pipeline.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/steering.hh"
#include "src/nic/nic_device.hh"
#include "src/runtime/cost_model.hh"
#include "src/telemetry/metrics.hh"
#include "src/telemetry/sampler.hh"
#include "src/trace/trace.hh"
#include "src/tracing/lifecycle.hh"
#include "src/tracing/tracer.hh"
#include "src/workload/workload.hh"

namespace pmill {

/// Most simulated cores pmill_run builds (--cores), and so the highest
/// core index + 1 that an acct JSONL line may name.
inline constexpr std::uint32_t kMaxCores = 64;

/** Static parameters of the simulated machine. */
struct MachineConfig {
    double freq_ghz = 2.3;   ///< DUT core frequency (the paper sweeps it)
    CacheConfig cache;       ///< per-socket hierarchy (DDIO ways = 8)
    CostModel cost;
    NicConfig nic;
    std::uint32_t num_cores = 1;
    std::uint32_t num_nics = 1;
    /**
     * NUMA sockets. Cores are split across sockets in contiguous
     * blocks (core c lives on socket c * num_sockets / num_cores) and
     * each core's pipeline state and mempools are homed on its own
     * socket; DRAM fills from a remote socket pay
     * CacheConfig::numa_remote_ns. 1 (the default) keeps the flat
     * machine every legacy result was produced on.
     */
    std::uint32_t num_sockets = 1;
};

/** Parameters of one measurement run. */
struct RunConfig {
    double offered_gbps = 100.0;  ///< offered load per NIC (wire rate)
    double warmup_us = 1500.0;    ///< cache/pool warm-up interval
    double duration_us = 4000.0;  ///< measured interval
    /// Stop generating new arrivals this long after the warm-up ends
    /// (0 = never): lets the DUT drain completely so runs over the
    /// same trace emit exactly the same frames (verification mode).
    double generator_stop_us = 0.0;
    /// Telemetry snapshot period within the measured window (the
    /// scaling stand-in for the paper's 100-ms perf windows); 0
    /// disables in-run sampling.
    double sample_interval_us = 100.0;
    /// @name Load step (adaptive-control experiments).
    /// At load_step_us after measurement start the offered rate
    /// switches to load_step_gbps (0 in either field = no step).
    /// @{
    double load_step_us = 0.0;
    double load_step_gbps = 0.0;
    /// @}
    /// @name Parallel host execution.
    /// @{
    /// Host threads advancing simulated cores on the epoch schedule
    /// (DESIGN.md section 9). Results are bit-identical for every
    /// value; 0 (the default) and 1 are the same thing — every core
    /// runs on the calling thread. Must not exceed the simulated core
    /// count.
    std::uint32_t host_threads = 0;
    /// Epoch length (simulated us); 0 (the default) runs at the
    /// lookahead, Engine::lookahead_ns(). Every epoch up to the
    /// lookahead gives bit-identical results, and a longer one is
    /// refused (DESIGN.md section 9): the length only trades barrier
    /// count against how far cores may run apart.
    double epoch_us = 0.0;
    /// @}
};

/**
 * Kinds of effect in a core's inbox (DESIGN.md section 9), in their
 * order at equal due times: a completion frees a slot before a handoff
 * or an arrival takes one, and a handoff's frame reached the wire
 * before any arrival due with it.
 */
enum class InboxKind : std::uint8_t { kCompletion, kHandoff, kArrival };

/**
 * The entry a core applies next, given the due time at the head of each
 * of its three due-ordered lists (+inf when empty): the earliest, ties
 * in InboxKind order. @p due receives its due time.
 */
inline InboxKind
inbox_next(TimeNs completion, TimeNs handoff, TimeNs arrival, TimeNs *due)
{
    if (completion <= handoff && completion <= arrival) {
        *due = completion;
        return InboxKind::kCompletion;
    }
    if (handoff <= arrival) {
        *due = handoff;
        return InboxKind::kHandoff;
    }
    *due = arrival;
    return InboxKind::kArrival;
}

/**
 * Order of handoffs in a destination's inbox: by due time, ties to the
 * lower source core. Merged stably, a source's own handoffs keep their
 * staging order.
 */
inline bool
handoff_earlier(const Handoff &a, const Handoff &b)
{
    return a.due_ns < b.due_ns || (a.due_ns == b.due_ns && a.src < b.src);
}

/**
 * Keep one of a core's inbox lists in due order as the conductor
 * appends to it at an edge: the entries from @p first_new on are
 * sorted by @p earlier, stably so equal ones keep their append order,
 * and merged behind the earlier entries, which go first on ties.
 * Appends already in order (the common case) cost one scan.
 */
template <typename T, typename Earlier>
void
inbox_merge(std::vector<T> &list, std::size_t first_new, Earlier earlier)
{
    const auto mid = list.begin() + static_cast<std::ptrdiff_t>(first_new);
    if (mid == list.end())
        return;
    if (!std::is_sorted(mid, list.end(), earlier))
        std::stable_sort(mid, list.end(), earlier);
    if (mid != list.begin() && earlier(*mid, *(mid - 1)))
        std::inplace_merge(list.begin(), mid, list.end(), earlier);
}

/** Results of one run (the quantities the paper's figures report). */
struct RunResult {
    double throughput_gbps = 0;  ///< TX wire rate (incl. framing)
    double goodput_gbps = 0;     ///< TX frame bytes only
    double mpps = 0;
    double mean_latency_us = 0;
    double median_latency_us = 0;
    double p99_latency_us = 0;
    std::uint64_t tx_pkts = 0;
    std::uint64_t rx_drops = 0;  ///< refused at RX (no descriptor, PCIe)
    std::uint64_t tx_drops = 0;  ///< refused at post by a full TX ring
    double duration_ns = 0;

    // perf-style microarchitectural metrics over the measured window
    MemStats mem;      ///< summed over cores
    ExecCounters exec; ///< summed over cores
    double ipc = 0;
    double llc_kloads_per_100ms = 0;
    double llc_kmisses_per_100ms = 0;
};

class Controller;
class FlowSteer;
class SteerFabric;

/** One experiment: machine + NF configuration + traffic. */
class Engine : public Actuator {
  public:
    /**
     * @param config_text Click configuration of the NF.
     * @param opts Optimization/model selection.
     * @param trace Traffic replayed cyclically into every NIC (one
     *        TraceReplay per NIC).
     */
    Engine(const MachineConfig &machine, const std::string &config_text,
           const PipelineOpts &opts, Trace trace);

    /**
     * Streaming-workload variant: every NIC owns a WorkloadSource
     * (stream = NIC index) synthesizing frames lazily — million-flow
     * universes with only per-flow slot state.
     */
    Engine(const MachineConfig &machine, const std::string &config_text,
           const PipelineOpts &opts, const WorkloadSpec &workload);

    ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Execute one run (warm-up + measurement). */
    RunResult run(const RunConfig &rc);

    /**
     * The schedule's lookahead: the shortest modeled delay of an
     * effect one core's work has on another's state — a TX completion
     * (kTxCompletionLatencyNs) and, when the config steers, a
     * FlowSteer handoff. The longest epoch run() accepts.
     */
    TimeNs lookahead_ns() const;

    /**
     * Install a hook receiving every transmitted frame's bytes at
     * wire-departure time (used by the equivalence verifier). Called
     * for completions inside the measurement window only.
     */
    void
    set_tx_capture(std::function<void(const std::uint8_t *, std::uint32_t)>
                       hook)
    {
        tx_capture_ = std::move(hook);
    }

    /** Pipeline of core @p core (for inspection / the mill). */
    Pipeline &
    pipeline(std::uint32_t core = 0)
    {
        PMILL_ASSERT(core < cores_.size(),
                     "core index %u out of range (engine has %zu cores)",
                     core, cores_.size());
        return *cores_[core]->pipe;
    }

    /** Number of DUT cores in this engine. */
    std::uint32_t
    num_cores() const override
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /** Simulated memory (for diagnostics). */
    SimMemory &memory() { return *mem_; }

    /** Cache hierarchy of @p core (diagnostics / miss attribution). */
    CacheHierarchy &
    caches(std::uint32_t core = 0)
    {
        PMILL_ASSERT(core < cores_.size(),
                     "core index %u out of range (engine has %zu cores)",
                     core, cores_.size());
        return *cores_[core]->caches;
    }

    NicDevice &
    nic(std::uint32_t i = 0)
    {
        PMILL_ASSERT(i < nics_.size(),
                     "NIC index %u out of range (engine has %zu NICs)", i,
                     nics_.size());
        return *nics_[i];
    }

    /// @name Actuation surface (closed-loop control).
    /// All setters assert the bounds hard — the Controller clamps to
    /// its ActuationLimits before calling, so an out-of-range value
    /// here is a bug, not a policy overreach.
    /// @{
    std::uint32_t rx_burst(std::uint32_t core) const override;
    void set_rx_burst(std::uint32_t core, std::uint32_t burst) override;
    double poll_backoff_ns(std::uint32_t core) const override;
    void set_poll_backoff_ns(std::uint32_t core, double ns) override;

    /**
     * @name Steering table actuation.
     * Routed to the software steering fabric when the pipeline carries
     * a FlowSteer element. Without one, rss_table_size() is 0 and the
     * rest of the group must not be called.
     * @{
     */
    std::uint32_t rss_table_size() const override;
    std::uint32_t rss_table_entry(std::uint32_t idx) const override;
    void set_rss_table_entry(std::uint32_t idx,
                             std::uint32_t queue) override;
    std::uint64_t rss_entry_load(std::uint32_t idx) const override;
    void reset_rss_entry_loads() override;
    /// @}

    /**
     * Attach (or detach, with nullptr) a controller. Non-owning; the
     * engine calls on_run_start() when run() begins and observe()
     * after every sampler advance inside the measured window.
     */
    void set_controller(Controller *c) { controller_ = c; }
    /// @}

    /** The telemetry registry (aggregate + per-queue metrics). */
    MetricsRegistry &metrics() { return metrics_; }

    /**
     * The software flow-steering fabric, or nullptr when the pipeline
     * has no FlowSteer element.
     */
    SteerFabric *steering() { return steer_.get(); }
    const SteerFabric *steering() const { return steer_.get(); }

    /**
     * Workload source feeding NIC @p nic, or nullptr when this engine
     * replays a Trace instead.
     */
    WorkloadSource *
    workload(std::uint32_t nic = 0)
    {
        return nic < gens_.size()
                   ? dynamic_cast<WorkloadSource *>(gens_[nic].source.get())
                   : nullptr;
    }

    /**
     * Sampled time-series of the most recent run (empty before the
     * first run or when RunConfig::sample_interval_us is 0).
     */
    const Timeline &timeline() const;

    /**
     * Per-element execution counters of the most recent run's
     * measured window, summed over cores (config order): the
     * pipelines' packet and batch counts, and each element scope's
     * ledger buckets from acct_breakdown() — compute + access as
     * cycles, the stall components as nanoseconds.
     */
    std::vector<ElementStats> element_stats() const;

    /// @name Event tracing (off unless enable_tracing() is called).
    /// @{
    /**
     * Create the tracer and attach it to every instrumented
     * component (pipelines, PMDs, mempools, NICs). The ring is
     * cleared when measurement starts, so after run() it holds the
     * measured window's events.
     */
    void enable_tracing(const TracerConfig &cfg = TracerConfig{});

    /** The tracer, or nullptr when tracing was never enabled. */
    Tracer *tracer() { return tracer_.get(); }
    const Tracer *tracer() const { return tracer_.get(); }

    /**
     * Profile-capture mode: tracing on (created at defaults when
     * never enabled) plus per-rule hit counting in every element that
     * exposes rules. A subsequent run() leaves everything
     * build_profile() distills from.
     */
    void set_profile_capture(bool on);

    /** DUT core frequency (GHz). */
    double freq_ghz() const { return machine_.freq_ghz; }

    /// @name Cycle accounting (src/accounting/).
    /// @{
    /** Measured-window ledger breakdown of one core. */
    struct AcctCoreBreakdown {
        CycleAccount::Snapshot delta;  ///< ledger delta over the window
        /// Core-clock advance over the same window, in cycles:
        /// (clock_end - clock_start) * freq_ghz.
        double clock_cycles = 0;
        /// Ledger total minus the clock advance, in fixed point — the
        /// deterministic floating-point rounding residual of the
        /// second conservation tie (epsilon-asserted in run()).
        CycleAccount::Fixed residual = 0;
    };

    /**
     * Per-core measured-window breakdowns of the most recent run
     * (empty before the first run). Bucket sums equal totals exactly;
     * run() asserts it. pmill_explain's report and element_stats()
     * read these; the sampled acct_* columns, the controller's idle
     * signal among them, read the same ledgers live.
     */
    const std::vector<AcctCoreBreakdown> &
    acct_breakdown() const
    {
        return acct_measured_;
    }

    /**
     * Human labels aligned with ledger scope indices: the fixed
     * scopes, then one label per pipeline element (instance name, or
     * class name when unnamed).
     */
    std::vector<std::string> acct_scope_labels() const;
    /// @}

    /**
     * Tail-latency attribution over the traced window. A negative
     * @p threshold_us means "use the most recent run's p99". Empty
     * when tracing is not enabled.
     */
    TailAttribution tail_attribution(double threshold_us = -1.0) const;
    /// @}

  private:
    struct BoundQueue {
        std::uint32_t nic = 0;
        std::uint32_t queue = 0;
        std::unique_ptr<Datapath> dp;
    };

    struct Core {
        std::unique_ptr<CacheHierarchy> caches;
        std::unique_ptr<ExecContext> ctx;
        std::unique_ptr<Pipeline> pipe;
        /// NIC queues this core polls round-robin, one burst each.
        std::vector<BoundQueue> dps;
        TimeNs clock = 0;
        TimeNs last_elapsed = 0;
        std::uint32_t rr_cursor = 0;
        std::uint8_t index = 0;  ///< stamped on trace records
        /// Actuated knob (closed-loop control): Metronome-style sleep
        /// when this core's queues are dry (0 = classic busy-poll
        /// skipping to the next completion).
        TimeNs poll_backoff_ns = 0;
        /// FlowSteer instances of this core's pipeline (bound to the
        /// shared fabric; empty when the config has none). Their
        /// release lists are flushed through the owning datapath
        /// after every process() call.
        std::vector<FlowSteer *> steer_elems;
    };

    /// One core's inbox of effects due at modeled times (engine.cc).
    struct Inbox;

    /// One traffic generator per NIC: its frame source, the emission
    /// time of its next frame, and the frames emitted so far (the
    /// generated side of the per-NIC frame ledger).
    struct Generator {
        std::unique_ptr<FrameSource> source;
        TimeNs next_start = 0;
        std::uint64_t frames = 0;
    };

    /** The constructor body: one frame source per NIC. */
    Engine(const MachineConfig &machine, const std::string &config_text,
           const PipelineOpts &opts,
           std::vector<std::unique_ptr<FrameSource>> sources);

    /** Advance @p core by one poll iteration; returns its new clock. */
    void step_core(Core &core);

    /**
     * Replay @p core 's empty polls until its clock reaches @p until.
     * Performs exactly the per-poll state updates of step_core on a
     * dry queue — the same on_compute accumulation in the same order,
     * the same clock arithmetic, the same round-robin advance — so the
     * core's counters and clock are bit-identical to having stepped
     * through each spin. Valid only while the core's queues hold no
     * completion and no inbox entry falls due before @p until.
     */
    void idle_spin(Core &core, TimeNs until);

    /** Register the engine-level aggregate metrics (ctor helper). */
    void register_telemetry();

    /** NicStats summed over the devices. */
    NicStats nic_totals() const;

    /// @name run() helpers.
    /// @{
    /**
     * Flip into the measured window: snapshot per-core baselines (in
     * config core order), reset window counters/element stats, start
     * the sampler at @p warm_end, clear the trace ring.
     */
    void begin_measuring(std::vector<ExecCounters> &exec_base,
                         std::vector<MemStats> &mem_base,
                         NicStats *nic_base, TimeNs warm_end);

    /** Assemble the RunResult + conservation asserts. */
    RunResult finish_run(const std::vector<ExecCounters> &exec_base,
                         const std::vector<MemStats> &mem_base,
                         const NicStats &nic_base, TimeNs warm_end,
                         TimeNs end);
    /// @}

    MachineConfig machine_;
    PipelineOpts opts_;
    double offered_gbps_ = 100.0;
    /// @name Load step (set per run; gated on load_step_gbps_ > 0).
    /// @{
    TimeNs load_step_at_ = 0;
    double load_step_gbps_ = 0;
    /// @}
    Controller *controller_ = nullptr;  ///< non-owning; may be null

    std::unique_ptr<SimMemory> mem_;
    /// Flow-steering fabric (only when the config has FlowSteer).
    std::unique_ptr<SteerFabric> steer_;
    std::vector<std::unique_ptr<NicDevice>> nics_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Generator> gens_;
    /// Per-core inboxes, filled by the conductor at edges and consumed
    /// by the owning core inside epochs. Effects due after a run's end
    /// stay here, so a later run() still applies them.
    std::vector<Inbox> inboxes_;
    /// Map (nic, queue) -> datapath for TX-completion routing.
    std::vector<std::vector<Datapath *>> queue_dp_;

    std::unique_ptr<Histogram> latency_;
    std::function<void(const std::uint8_t *, std::uint32_t)> tx_capture_;
    /// Hand @p c 's frame bytes to tx_capture_. A parked completion's
    /// buffer holds only the header, so the frame is gathered
    /// (buffer, park slot) into cap_buf_ first — host-side only, the
    /// simulated cost is the NIC's kParkRead gather.
    void capture_tx(const TxCompletion &c);
    std::array<std::uint8_t, kMaxFrameLen> cap_buf_{};
    bool measuring_ = false;
    std::uint64_t tx_pkts_ = 0;
    std::uint64_t tx_wire_bits_ = 0;
    std::uint64_t tx_frame_bits_ = 0;

    /// @name Telemetry.
    /// @{
    MetricsRegistry metrics_;
    std::unique_ptr<Sampler> sampler_;  ///< lives across run() calls
    CounterHandle m_tx_pkts_;  ///< hot-path slot counters
    CounterHandle m_tx_wire_bits_;
    Histogram *lat_interval_ = nullptr;  ///< per-interval latency
    /// @}

    /// @name Cycle accounting (measured-window baselines + results).
    /// @{
    std::vector<CycleAccount::Snapshot> acct_base_;
    std::vector<TimeNs> acct_clock_base_;
    std::vector<AcctCoreBreakdown> acct_measured_;
    /// @}

    /// @name Tracing.
    /// @{
    std::unique_ptr<Tracer> tracer_;
    /// Sampled packets between RX and TX, keyed by the arrival-time
    /// bit pattern (the one field that survives into TxCompletion).
    std::unordered_map<std::uint64_t, std::uint64_t> inflight_;
    double last_p99_us_ = 0;
    /// @}
};

/**
 * Convenience: build an engine and run once.
 */
RunResult run_experiment(const MachineConfig &machine,
                         const std::string &config_text,
                         const PipelineOpts &opts, const Trace &trace,
                         const RunConfig &rc);

} // namespace pmill

#endif // PMILL_RUNTIME_ENGINE_HH
