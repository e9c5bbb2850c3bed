#include "src/runtime/engine.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "src/common/log.hh"
#include "src/control/controller.hh"
#include "src/elements/elements.hh"
#include "src/net/steering.hh"

namespace pmill {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flow-steering fabric geometry, used only when the pipeline contains
/// a FlowSteer element: power-of-two bucket count of the shared
/// steering table, and the per-(src,dst) bound on handoffs in flight.
constexpr std::uint32_t kSteerTableSize = 256;
constexpr std::uint32_t kSteerRingCapacity = 512;
/// Modeled delay (ns) from FlowSteer staging a frame to the frame
/// landing on its home core's queue: the enqueue into a shared-memory
/// ring, the destination's next poll of it, and the copy engine's
/// write. It bounds the epoch of every run that steers (section 9 of
/// DESIGN.md).
constexpr TimeNs kSteerLatencyNs = 1000.0;

/// Range (us) of the per-run latency histogram.
constexpr double kLatencyRangeUs = 4000.0;

ExecCounters
counters_delta(const ExecCounters &a, const ExecCounters &b)
{
    ExecCounters d;
    d.compute_cycles = a.compute_cycles - b.compute_cycles;
    d.access_cycles = a.access_cycles - b.access_cycles;
    d.wall_ns = a.wall_ns - b.wall_ns;
    d.instructions = a.instructions - b.instructions;
    d.accesses = a.accesses - b.accesses;
    return d;
}

void
mem_stats_add(MemStats &into, const MemStats &s)
{
    into.loads += s.loads;
    into.stores += s.stores;
    into.l1_load_misses += s.l1_load_misses;
    into.l2_load_misses += s.l2_load_misses;
    into.llc_load_misses += s.llc_load_misses;
    into.l1_store_misses += s.l1_store_misses;
    into.l2_store_misses += s.l2_store_misses;
    into.llc_store_misses += s.llc_store_misses;
    into.dev_writes += s.dev_writes;
    into.dev_reads += s.dev_reads;
    into.dev_reads_dram += s.dev_reads_dram;
    into.tlb_misses += s.tlb_misses;
    into.prefetches += s.prefetches;
    into.numa_remote_fills += s.numa_remote_fills;
    into.park_fills += s.park_fills;
    into.park_gathers += s.park_gathers;
}

void
exec_add(ExecCounters &into, const ExecCounters &s)
{
    into.compute_cycles += s.compute_cycles;
    into.access_cycles += s.access_cycles;
    into.wall_ns += s.wall_ns;
    into.instructions += s.instructions;
    into.accesses += s.accesses;
}

/** Bit pattern of an arrival timestamp (inflight-map key). */
std::uint64_t
arrival_key(TimeNs t)
{
    std::uint64_t k;
    static_assert(sizeof(k) == sizeof(t));
    std::memcpy(&k, &t, sizeof(k));
    return k;
}

/**
 * One drawn wire arrival, RSS-routed to its core's inbox by the
 * conductor and consumed by the owning core's worker thread, which
 * writes the frame's bytes only if its NIC queue accepts it.
 */
struct PendingArrival {
    TimeNs start = 0;       ///< generator emission time (its due time)
    FrameDraw draw;         ///< length, tuple and what write() needs
    std::uint32_t nic = 0;  ///< ingress device
};

/** One TX completion, routed to the core that owns its queue. */
struct PendingTx {
    std::uint32_t nic = 0;  ///< completing device
    TxCompletion c;

    TimeNs due() const { return c.departure_ns + kTxCompletionLatencyNs; }
};


/** One cyclic replay of @p trace per NIC, all sharing the frames. */
std::vector<std::unique_ptr<FrameSource>>
replay_sources(Trace trace, std::uint32_t nics)
{
    auto shared = std::make_shared<const Trace>(std::move(trace));
    std::vector<std::unique_ptr<FrameSource>> v;
    for (std::uint32_t n = 0; n < nics; ++n)
        v.push_back(std::make_unique<TraceReplay>(shared));
    return v;
}

/**
 * One WorkloadSource per NIC; the stream index decorrelates their
 * frame sequences while keeping the whole setup a pure function of the
 * spec seed.
 */
std::vector<std::unique_ptr<FrameSource>>
workload_sources(const WorkloadSpec &spec, std::uint32_t nics)
{
    std::vector<std::unique_ptr<FrameSource>> v;
    for (std::uint32_t n = 0; n < nics; ++n)
        v.push_back(std::make_unique<WorkloadSource>(spec, n));
    return v;
}

/** CacheHierarchy::NumaProbe over the allocator's placement map. */
std::uint32_t
numa_home_socket(void *ctx, Addr line_addr)
{
    return static_cast<SimMemory *>(ctx)->socket_of(line_addr);
}

/** Pause-then-yield backoff for the epoch barrier spin loops. */
inline void
barrier_relax(unsigned &spins)
{
    if (++spins >= 16) {
        spins = 0;
        std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
    }
}

} // namespace

/**
 * What the conductor hands one core: its drawn arrivals (this epoch's
 * only), its TX completions and the steering handoffs for it, each
 * list in due order. The core applies the three merged by due time,
 * ties in InboxKind order.
 */
struct Engine::Inbox {
    std::vector<PendingArrival> arrivals;
    std::size_t next_arrival = 0;
    std::vector<PendingTx> completions;
    std::size_t next_completion = 0;
    std::vector<Handoff> handoffs;
    std::size_t next_handoff = 0;
};

Engine::Engine(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts, Trace trace)
    : Engine(machine, config_text, opts,
             replay_sources(std::move(trace), machine.num_nics))
{
}

Engine::Engine(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts, const WorkloadSpec &workload)
    : Engine(machine, config_text, opts,
             workload_sources(workload, machine.num_nics))
{
}

Engine::Engine(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts,
               std::vector<std::unique_ptr<FrameSource>> sources)
    : machine_(machine), opts_(opts)
{
    PMILL_ASSERT(machine.num_cores >= 1 && machine.num_nics >= 1,
                 "need at least one core and one NIC");
    PMILL_ASSERT(machine.num_sockets >= 1 &&
                     machine.num_sockets <= machine.num_cores,
                 "num_sockets %u outside [1, num_cores=%u]",
                 machine.num_sockets, machine.num_cores);

    mem_ = std::make_unique<SimMemory>();

    // NUMA block mapping (contiguous: low cores on socket 0). With
    // one socket every home is 0 — the allocator default — so the
    // flat machine is byte-identical to the pre-NUMA layout.
    auto core_socket = [&machine](std::uint32_t c) {
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(c) * machine.num_sockets /
            machine.num_cores);
    };

    // Cores: private hierarchy (LLC statically partitioned — see
    // DESIGN.md), private ExecContext, private pipeline instance
    // (thread-local elements, flows partitioned by RSS). Each core's
    // pipeline state is homed on its own socket.
    for (std::uint32_t c = 0; c < machine.num_cores; ++c) {
        mem_->set_home_socket(core_socket(c));
        auto core = std::make_unique<Core>();
        core->index = static_cast<std::uint8_t>(c);
        core->caches = std::make_unique<CacheHierarchy>(machine.cache);
        core->ctx = std::make_unique<ExecContext>(
            *core->caches, machine.cost, opts, machine.freq_ghz);
        std::string err;
        core->pipe = Pipeline::build(config_text, *mem_, opts, &err);
        if (!core->pipe)
            fatal("pipeline build failed: %s", err.c_str());
        core->ctx->set_burst(core->pipe->burst());
        for (Element *e : core->pipe->elements())
            if (std::strcmp(e->class_name(), "FlowSteer") == 0)
                core->steer_elems.push_back(static_cast<FlowSteer *>(e));
        cores_.push_back(std::move(core));
    }

    // NICs: every device fans out over one RX queue per core, so core
    // c polls queue c of every NIC (the paper's single-NIC RSS fan-out
    // and 2-NICs-on-1-core setups are the edge cases of this grid).
    // Device structures (rings, CQs) live on socket 0.
    mem_->set_home_socket(0);
    NicConfig nc = machine.nic;
    nc.num_queues = machine.num_cores;
    queue_dp_.resize(machine.num_nics);
    for (std::uint32_t n = 0; n < machine.num_nics; ++n) {
        nics_.push_back(std::make_unique<NicDevice>(
            nc, *cores_[0]->caches, *mem_));
        queue_dp_[n].resize(nc.num_queues, nullptr);
    }

    // Datapaths (and their mempools) are per (core, NIC) and homed on
    // the polling core's socket — the "per-socket mempools" half of
    // the NUMA model; the steering fabric's rings are the other half.
    for (std::uint32_t c = 0; c < machine.num_cores; ++c) {
        Core &core = *cores_[c];
        mem_->set_home_socket(core_socket(c));
        for (std::uint32_t n = 0; n < machine.num_nics; ++n) {
            nics_[n]->bind_queue_cache(c, core.caches.get());
            BoundQueue bq;
            bq.nic = n;
            bq.queue = c;
            bq.dp = make_datapath(opts.model, *nics_[n], *mem_,
                                  core.pipe->layout(), c,
                                  opts.park_split_bytes);
            queue_dp_[n][c] = bq.dp.get();
            core.dps.push_back(std::move(bq));
        }
    }
    mem_->set_home_socket(0);

    for (auto &core : cores_)
        for (auto &bq : core->dps)
            bq.dp->setup();

    // Remote-fill detection: with multiple sockets each hierarchy
    // learns its own socket and asks the allocator where a line lives
    // on every DRAM fill. Flat machines keep the null probe (and its
    // byte-identical legacy behavior).
    if (machine.num_sockets > 1)
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            cores_[c]->caches->set_numa_probe(&numa_home_socket,
                                              mem_.get(), core_socket(c));

    // Flow-steering fabric, only when the config steers: shared
    // table + per-destination handoff rings (each ring homed on its
    // destination core's socket).
    if (!cores_[0]->steer_elems.empty()) {
        std::vector<std::uint32_t> ring_sockets(machine.num_cores);
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            ring_sockets[c] = core_socket(c);
        steer_ = std::make_unique<SteerFabric>(
            machine.num_cores, kSteerTableSize, kSteerRingCapacity,
            kSteerLatencyNs, *mem_, &ring_sockets);
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            for (FlowSteer *fs : cores_[c]->steer_elems)
                fs->bind(steer_.get(), c);
    }

    // Let elements with large data structures reach steady-state
    // residency before timing starts.
    for (auto &core : cores_)
        for (Element *e : core->pipe->elements())
            e->warm_caches(*core->caches);

    gens_.resize(machine.num_nics);
    for (std::uint32_t n = 0; n < machine.num_nics; ++n)
        gens_[n].source = std::move(sources[n]);
    inboxes_.resize(machine.num_cores);

    register_telemetry();
}

void
Engine::register_telemetry()
{
    // Aggregate microarchitectural counters (perf-style, summed over
    // cores); the sampler turns them into per-interval series.
    metrics_.add_probe_counter("llc_loads", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += static_cast<double>(core->caches->stats().llc_loads());
        return v;
    });
    metrics_.add_probe_counter("llc_misses", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += static_cast<double>(core->caches->stats().llc_load_misses);
        return v;
    });
    metrics_.add_probe_counter("instructions", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += core->ctx->counters().instructions;
        return v;
    });
    metrics_.add_probe_counter("cycles", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += core->ctx->counters().total_cycles(machine_.freq_ghz);
        return v;
    });
    metrics_.add_ratio("ipc", "instructions", "cycles");

    // Traffic counters: slot-backed (one add per completion in the
    // engine's TX-drain hot path) plus derived rates.
    m_tx_pkts_ = metrics_.add_counter("tx_pkts");
    m_tx_wire_bits_ = metrics_.add_counter("tx_wire_bits");
    metrics_.add_rate("throughput_gbps", "tx_wire_bits", 1e-9);
    metrics_.add_rate("mpps", "tx_pkts", 1e-6);

    metrics_.add_probe_counter("rx_drops", [this] {
        double v = 0;
        for (const auto &nic : nics_)
            v += static_cast<double>(nic->stats().rx_drops_no_desc +
                                     nic->stats().rx_drops_pcie);
        return v;
    });
    metrics_.add_probe_counter("pipeline_drops", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += static_cast<double>(core->pipe->dropped());
        return v;
    });

    // Occupancy gauges aggregated across devices/queues.
    metrics_.add_gauge("ring_occupancy", [this] {
        double v = 0;
        for (const auto &nic : nics_)
            v += nic->rx_ring_occupancy();
        return v / static_cast<double>(nics_.size());
    });
    metrics_.add_gauge("mempool_occupancy", [this] {
        double v = 0;
        std::size_t n = 0;
        for (const auto &core : cores_)
            for (const auto &bq : core->dps) {
                v += bq.dp->pool_occupancy();
                ++n;
            }
        return n ? v / static_cast<double>(n) : 0.0;
    });

    // Per-interval latency distribution (p50_/p99_latency_us columns).
    lat_interval_ = metrics_.add_histogram("latency_us", 4000.0, 16384);

    // Per-device and per-queue breakdowns.
    for (std::uint32_t n = 0; n < nics_.size(); ++n)
        nics_[n]->register_metrics(metrics_, strprintf("nic%u_", n));
    for (const auto &core : cores_)
        for (const auto &bq : core->dps)
            bq.dp->register_metrics(
                metrics_, strprintf("nic%u_q%u_", bq.nic, bq.queue));

    // Actuated knob state (mean over cores), so a controlled run's
    // timeline shows the knob trajectory next to what it caused.
    metrics_.add_gauge("rx_burst", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += core->ctx->burst();
        return v / static_cast<double>(cores_.size());
    });
    metrics_.add_gauge("poll_backoff_ns", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += core->poll_backoff_ns;
        return v / static_cast<double>(cores_.size());
    });
    metrics_.add_probe_counter("poll_wait_cycles", [this] {
        double v = 0;
        for (const auto &core : cores_)
            v += core->poll_wait_cycles;
        return v;
    });

    // Cycle-accounting bucket columns (summed over cores, cumulative
    // cycles; the sampler turns them into per-interval shares). One
    // column per fixed scope, one per pipeline element, plus the
    // cross-scope stall components and the ledger total.
    if (CycleAccount::kCompiledIn) {
        auto sum_scope = [this](std::uint16_t scope) {
            double v = 0;
            for (const auto &core : cores_)
                v += CycleAccount::cycles(
                    core->ctx->account().scope_total(scope));
            return v;
        };
        for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s) {
            metrics_.add_probe_counter(
                strprintf("acct_%s_cycles", acct_scope_name(s)),
                [sum_scope, s] { return sum_scope(s); });
        }
        const auto acct_elems = cores_[0]->pipe->elements();
        for (std::size_t ei = 0; ei < acct_elems.size(); ++ei) {
            std::string label = acct_elems[ei]->name().empty()
                                    ? acct_elems[ei]->class_name()
                                    : acct_elems[ei]->name();
            for (char &c : label)
                if (!std::isalnum(static_cast<unsigned char>(c)))
                    c = '_';
            const std::uint16_t scope = static_cast<std::uint16_t>(
                kAcctElementBase + ei);
            metrics_.add_probe_counter(
                strprintf("acct_el_%s_cycles", label.c_str()),
                [sum_scope, scope] { return sum_scope(scope); });
        }
        auto sum_component = [this](std::uint32_t comp) {
            double v = 0;
            for (const auto &core : cores_)
                v += CycleAccount::cycles(
                    core->ctx->account().component_total(comp));
            return v;
        };
        metrics_.add_probe_counter("acct_llc_stall_cycles", [sum_component] {
            return sum_component(kAcctLlcStall);
        });
        metrics_.add_probe_counter("acct_dram_stall_cycles",
                                   [sum_component] {
                                       return sum_component(kAcctDramStall);
                                   });
        metrics_.add_probe_counter("acct_tlb_stall_cycles", [sum_component] {
            return sum_component(kAcctTlbStall);
        });
        metrics_.add_probe_counter("acct_total_cycles", [this] {
            double v = 0;
            for (const auto &core : cores_)
                v += CycleAccount::cycles(
                    core->ctx->account().total_fixed());
            return v;
        });
    }

    // Flow-table state (NAT/conntrack): one prefixed group per
    // stateful element, summed/aggregated over per-core instances.
    const auto elems = cores_[0]->pipe->elements();
    for (std::size_t ei = 0; ei < elems.size(); ++ei) {
        FlowTableStats probe;
        if (!elems[ei]->flow_table_stats(&probe))
            continue;
        std::string label = elems[ei]->name().empty()
                                ? elems[ei]->class_name()
                                : elems[ei]->name();
        for (char &c : label)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        const std::string prefix = "tbl_" + label + "_";
        // Snapshot of every core's instance of element ei, summed.
        auto sum_stat = [this, ei](auto field) {
            double v = 0;
            for (const auto &core : cores_) {
                FlowTableStats st;
                if (core->pipe->elements()[ei]->flow_table_stats(&st))
                    v += static_cast<double>(field(st));
            }
            return v;
        };
        metrics_.add_gauge(prefix + "occupancy", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.occupancy;
            });
        });
        metrics_.add_gauge(prefix + "half_open", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.half_open;
            });
        });
        metrics_.add_probe_counter(prefix + "inserts", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.inserts;
            });
        });
        metrics_.add_probe_counter(prefix + "failed_inserts", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.failed_inserts;
            });
        });
        metrics_.add_probe_counter(prefix + "displacements", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.displacements;
            });
        });
        metrics_.add_probe_counter(prefix + "evictions", [sum_stat] {
            return sum_stat([](const FlowTableStats &s) {
                return s.evictions;
            });
        });
    }

    // Workload-generator counters, summed over the NICs' synthesizing
    // sources (a trace replay keeps none).
    if (workload() != nullptr) {
        auto sum_wl = [this](auto field) {
            return [this, field] {
                double v = 0;
                for (std::uint32_t n = 0; n < gens_.size(); ++n)
                    v += static_cast<double>(field(workload(n)->stats()));
                return v;
            };
        };
        metrics_.add_probe_counter(
            "wl_frames", sum_wl([](const WorkloadStats &s) {
                return s.frames;
            }));
        metrics_.add_probe_counter(
            "wl_flows_born", sum_wl([](const WorkloadStats &s) {
                return s.flows_born;
            }));
        metrics_.add_probe_counter(
            "wl_flows_died", sum_wl([](const WorkloadStats &s) {
                return s.flows_died;
            }));
        metrics_.add_probe_counter(
            "wl_syns", sum_wl([](const WorkloadStats &s) {
                return s.syn_frames;
            }));
    }

    // Steering-fabric counters — registered only when the config has
    // a FlowSteer element, so legacy timelines keep their exact
    // column set.
    if (steer_) {
        auto steer_counter = [this](const char *name, auto field) {
            metrics_.add_probe_counter(name, [this, field] {
                return static_cast<double>(field(steer_->stats()));
            });
        };
        steer_counter("steer_handoffs", [](const SteerStats &s) {
            return s.steered;
        });
        steer_counter("steer_passed", [](const SteerStats &s) {
            return s.passed;
        });
        steer_counter("steer_delivered", [](const SteerStats &s) {
            return s.delivered;
        });
        steer_counter("steer_stage_drops", [](const SteerStats &s) {
            return s.stage_drops;
        });
        steer_counter("steer_ring_drops", [](const SteerStats &s) {
            return s.ring_drops;
        });
    }

    // NUMA remote-fill counter — likewise gated on a multi-socket
    // machine.
    if (machine_.num_sockets > 1) {
        metrics_.add_probe_counter("numa_remote_fills", [this] {
            double v = 0;
            for (const auto &core : cores_)
                v += static_cast<double>(
                    core->caches->stats().numa_remote_fills);
            return v;
        });
    }

    // Parking-model counters — gated on the model so every other
    // model's timeline keeps its exact column set.
    if (opts_.model == MetadataModel::kParking) {
        metrics_.add_probe_counter("park_fills", [this] {
            double v = 0;
            for (const auto &core : cores_)
                v += static_cast<double>(core->caches->stats().park_fills);
            return v;
        });
        metrics_.add_probe_counter("park_gathers", [this] {
            double v = 0;
            for (const auto &core : cores_)
                v += static_cast<double>(core->caches->stats().park_gathers);
            return v;
        });
        auto sum_park = [this](auto field) {
            double v = 0;
            for (const auto &core : cores_)
                for (const auto &bq : core->dps) {
                    PayloadPark::Stats st;
                    if (bq.dp->park_stats(&st))
                        v += static_cast<double>(field(st));
                }
            return v;
        };
        metrics_.add_probe_counter("park_parked", [sum_park] {
            return sum_park(
                [](const PayloadPark::Stats &s) { return s.parked; });
        });
        metrics_.add_probe_counter("park_rejoined", [sum_park] {
            return sum_park(
                [](const PayloadPark::Stats &s) { return s.rejoined; });
        });
        metrics_.add_probe_counter("park_dropped", [sum_park] {
            return sum_park(
                [](const PayloadPark::Stats &s) { return s.dropped; });
        });
        metrics_.add_gauge("park_outstanding", [sum_park] {
            return sum_park(
                [](const PayloadPark::Stats &s) { return s.outstanding; });
        });
    }
}

Engine::~Engine() = default;

std::uint32_t
Engine::rx_burst(std::uint32_t core) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    return cores_[core]->ctx->burst();
}

void
Engine::set_rx_burst(std::uint32_t core, std::uint32_t burst)
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(burst >= 1 && burst <= kMaxBurst,
                 "rx burst %u outside [1, %u]", burst, kMaxBurst);
    cores_[core]->ctx->set_burst(burst);
}

double
Engine::poll_backoff_ns(std::uint32_t core) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    return cores_[core]->poll_backoff_ns;
}

void
Engine::set_poll_backoff_ns(std::uint32_t core, double ns)
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(ns >= 0 && ns <= 1e6, "poll backoff %g ns outside [0, 1e6]",
                 ns);
    cores_[core]->poll_backoff_ns = ns;
}

std::uint32_t
Engine::rss_table_size() const
{
    return steer_ ? steer_->table_size() : 0;
}

std::uint32_t
Engine::rss_table_entry(std::uint32_t idx) const
{
    PMILL_ASSERT(steer_ != nullptr,
                 "no indirection table (rss_table_size() is 0)");
    return steer_->entry(idx);
}

void
Engine::set_rss_table_entry(std::uint32_t idx, std::uint32_t queue)
{
    PMILL_ASSERT(queue < cores_.size(),
                 "indirection target %u out of range (engine has %zu "
                 "cores)",
                 queue, cores_.size());
    PMILL_ASSERT(steer_ != nullptr,
                 "no indirection table (rss_table_size() is 0)");
    steer_->set_entry(idx, queue);
}

std::uint64_t
Engine::rss_entry_load(std::uint32_t idx) const
{
    PMILL_ASSERT(steer_ != nullptr,
                 "no indirection table (rss_table_size() is 0)");
    return steer_->entry_load(idx);
}

void
Engine::reset_rss_entry_loads()
{
    if (steer_)
        steer_->reset_entry_loads();
}

void
Engine::enable_tracing(const TracerConfig &cfg)
{
    tracer_ = std::make_unique<Tracer>(cfg);
    inflight_.clear();
    for (auto &core : cores_) {
        core->pipe->set_tracer(tracer_.get());
        for (auto &bq : core->dps)
            bq.dp->set_tracer(tracer_.get(),
                              strprintf("nic%u.q%u", bq.nic, bq.queue));
    }
    for (std::size_t n = 0; n < nics_.size(); ++n)
        nics_[n]->set_tracer(
            tracer_.get(),
            tracer_->intern(strprintf("nic%zu", n)));
}

void
Engine::set_profile_capture(bool on)
{
    if (on && !tracer_)
        enable_tracing();
    for (auto &core : cores_)
        core->pipe->set_rule_profiling(on);
}

TailAttribution
Engine::tail_attribution(double threshold_us) const
{
    if (!tracer_)
        return TailAttribution{};
    if (threshold_us < 0)
        threshold_us = last_p99_us_;
    return attribute_tail(*tracer_, threshold_us);
}

void
Engine::step_core(Core &core)
{
    ExecContext &ctx = *core.ctx;
    bool any = false;

    // Time inside the step is base + ctx.elapsed_ns(); at step entry
    // elapsed == last_elapsed and sim time == clock.
    ctx.set_time_base(core.clock - core.last_elapsed);
    const bool tron = PMILL_TRACE_ON(tracer_.get());
    if (tron) {
        tracer_->set_core(core.index);
        tracer_->set_now(core.clock);
    }

    for (std::size_t k = 0; k < core.dps.size(); ++k) {
        const std::size_t slot = (core.rr_cursor + k) % core.dps.size();
        BoundQueue &bq = core.dps[slot];
        PacketBatch batch;
        const std::uint32_t n = bq.dp->rx(core.clock, batch, ctx);
        if (n == 0)
            continue;
        any = true;
        if (tron) {
            // Head-sample lifecycles: a sampled packet carries its
            // id through the pipeline and into the inflight map so
            // the TX completion can be joined back.
            for (std::uint32_t i = 0; i < batch.count; ++i) {
                if (!tracer_->sample_packet())
                    continue;
                PacketHandle &h = batch[i];
                h.trace_id = tracer_->next_packet_id();
                tracer_->record(TraceEventKind::kRxPacket,
                                h.arrival_ns, h.trace_id, 0, 0, h.len);
                inflight_[arrival_key(h.arrival_ns)] = h.trace_id;
            }
        }
        ctx.on_compute(ctx.cost().per_burst_cycles, 20);
        core.pipe->process(batch, ctx);
        // Post time includes the processing just performed.
        const TimeNs post = core.clock + (ctx.elapsed_ns() - core.last_elapsed);
        bq.dp->tx(batch, post, ctx);
        // Packets FlowSteer handed off were compacted out of the
        // batch; return their handles through this datapath's
        // drop path so the mbufs go back to this core's own pools
        // (the frame bytes are already copied fabric-side).
        for (FlowSteer *fs : core.steer_elems) {
            std::vector<PacketHandle> &rel = fs->release_list();
            if (rel.empty())
                continue;
            std::size_t i = 0;
            while (i < rel.size()) {
                PacketBatch rb;
                while (i < rel.size() && rb.count < kMaxBurst) {
                    rb.pkts[rb.count] = rel[i];
                    rb.pkts[rb.count].dropped = true;
                    ++rb.count;
                    ++i;
                }
                const TimeNs rt =
                    core.clock +
                    (ctx.elapsed_ns() - core.last_elapsed);
                bq.dp->tx(rb, rt, ctx);
            }
            rel.clear();
        }
    }
    core.rr_cursor = (core.rr_cursor + 1) %
                     static_cast<std::uint32_t>(core.dps.size());

    if (!any) {
        // Dry poll: the poll cost is idle time in the ledger.
        AcctScope idle_scope(ctx, kAcctIdle);
        ctx.on_compute(ctx.cost().poll_empty_cycles, 10);
    }

    const TimeNs elapsed = ctx.elapsed_ns();
    const TimeNs dt = elapsed - core.last_elapsed;
    core.last_elapsed = elapsed;
    PMILL_ASSERT(dt > 0, "core made no progress");
    core.clock += dt;

    if (!any) {
        if (core.poll_backoff_ns > 0) {
            // Metronome-style backoff: the core parks for the sleep
            // interval instead of spinning; packets that arrive
            // meanwhile wait in the ring until the next poll. The
            // slept time counts as idle cycles like a dry busy-poll.
            core.poll_wait_cycles +=
                core.poll_backoff_ns * machine_.freq_ghz;
            core.clock += core.poll_backoff_ns;
            // The sleep advances the clock outside the ExecContext, so
            // it is charged to the ledger directly (same ns * freq).
            ctx.account().charge_ns(kAcctIdle, kAcctCompute,
                                    core.poll_backoff_ns,
                                    machine_.freq_ghz);
        } else {
            // Skip ahead to the next completion if the queues are dry
            // (busy-polling consumes no simulated events we care
            // about); account the burned cycles for the telemetry.
            TimeNs next = kInf;
            for (auto &bq : core.dps)
                next = std::min(next,
                                nics_[bq.nic]->next_cqe_time(bq.queue));
            if (next > core.clock && next < kInf) {
                core.poll_wait_cycles +=
                    (next - core.clock) * machine_.freq_ghz;
                ctx.account().charge_ns(kAcctIdle, kAcctCompute,
                                        next - core.clock,
                                        machine_.freq_ghz);
                core.clock = next;
            }
        }
    }
}

void
Engine::idle_spin(Core &core, TimeNs until)
{
    ExecContext &ctx = *core.ctx;
    // The whole stretch — empty polls and backoff sleeps alike — is
    // idle time in the ledger.
    AcctScope idle_scope(ctx, kAcctIdle);
    const double empty_cycles = ctx.cost().poll_empty_cycles;
    const std::uint32_t ndp =
        static_cast<std::uint32_t>(core.dps.size());
    // Each iteration is one empty step_core pass: the dry rx() calls
    // it omits touch no simulated state, and the skip-to-CQE scan is a
    // no-op because the core's queues hold no completion.
    while (core.clock < until) {
        ctx.on_compute(empty_cycles, 10);
        const TimeNs elapsed = ctx.elapsed_ns();
        const TimeNs dt = elapsed - core.last_elapsed;
        core.last_elapsed = elapsed;
        PMILL_ASSERT(dt > 0, "core made no progress");
        core.clock += dt;
        core.rr_cursor = (core.rr_cursor + 1) % ndp;
        if (core.poll_backoff_ns > 0) {
            core.poll_wait_cycles +=
                core.poll_backoff_ns * machine_.freq_ghz;
            core.clock += core.poll_backoff_ns;
            ctx.account().charge_ns(kAcctIdle, kAcctCompute,
                                    core.poll_backoff_ns,
                                    machine_.freq_ghz);
        }
    }
}

void
Engine::capture_tx(const TxCompletion &c)
{
    if (c.park.len == 0) {
        tx_capture_(c.buf_host, c.len);
        return;
    }
    const std::uint32_t hdr = c.len - c.park.len;
    std::memcpy(cap_buf_.data(), c.buf_host, hdr);
    std::memcpy(cap_buf_.data() + hdr, c.park.host, c.park.len);
    tx_capture_(cap_buf_.data(), c.len);
}

TimeNs
Engine::lookahead_ns() const
{
    return steer_ ? std::min(kTxCompletionLatencyNs, kSteerLatencyNs)
                  : kTxCompletionLatencyNs;
}

NicStats
Engine::nic_totals() const
{
    NicStats t;
    for (const auto &nic : nics_) {
        const NicStats s = nic->stats();
        t.rx_frames += s.rx_frames;
        t.rx_bytes += s.rx_bytes;
        t.rx_drops_no_desc += s.rx_drops_no_desc;
        t.rx_drops_pcie += s.rx_drops_pcie;
        t.tx_frames += s.tx_frames;
        t.tx_bytes += s.tx_bytes;
        t.tx_drops += s.tx_drops;
    }
    return t;
}

void
Engine::begin_measuring(std::vector<ExecCounters> &exec_base,
                        std::vector<MemStats> &mem_base,
                        NicStats *nic_base, TimeNs warm_end)
{
    measuring_ = true;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        exec_base[c] = cores_[c]->ctx->counters();
        mem_base[c] = cores_[c]->caches->stats();
        acct_base_[c] = cores_[c]->ctx->account().snapshot();
        acct_clock_base_[c] = cores_[c]->clock;
    }
    *nic_base = nic_totals();
    latency_->clear();
    tx_pkts_ = 0;
    tx_wire_bits_ = tx_frame_bits_ = 0;
    // Align telemetry with the measured window: element counters
    // restart and the sampler baselines every counter at the
    // nominal window start (sample boundaries at warm_end + k*T).
    for (auto &core : cores_)
        core->pipe->reset_element_stats();
    if (sampler_)
        sampler_->start(warm_end);
    // Restart the trace ring so it holds the measured window.
    if (tracer_) {
        tracer_->clear();
        inflight_.clear();
    }
}

RunResult
Engine::run(const RunConfig &rc)
{
    PMILL_ASSERT(rc.host_threads <= cores_.size(),
                 "host_threads %u exceeds the %zu simulated cores",
                 rc.host_threads, cores_.size());

    offered_gbps_ =
        std::min(rc.offered_gbps, machine_.nic.link_gbps);
    PMILL_ASSERT(offered_gbps_ > 0, "offered load must be positive");

    latency_ = std::make_unique<Histogram>(kLatencyRangeUs, 262144);
    const TimeNs warm_end = rc.warmup_us * 1000.0;
    const TimeNs end = warm_end + rc.duration_us * 1000.0;
    const std::uint32_t ncores =
        static_cast<std::uint32_t>(cores_.size());

    measuring_ = false;
    tx_pkts_ = 0;
    tx_wire_bits_ = tx_frame_bits_ = 0;

    load_step_at_ = warm_end + rc.load_step_us * 1000.0;
    load_step_gbps_ = rc.load_step_us > 0
                          ? std::min(rc.load_step_gbps,
                                     machine_.nic.link_gbps)
                          : 0.0;

    sampler_ = rc.sample_interval_us > 0
                   ? std::make_unique<Sampler>(metrics_,
                                               rc.sample_interval_us)
                   : nullptr;

    if (controller_)
        controller_->on_run_start(*this);

    // Epoch schedule (DESIGN.md section 9). On every NIC queue q is
    // bound to core q, so each queue's rings, RX pipe and cache
    // hierarchy are private to exactly one core. 0 and 1 host threads
    // both run every core on the calling thread.
    std::uint32_t nthreads = std::max<std::uint32_t>(rc.host_threads, 1);
    if (PMILL_TRACE_ON(tracer_.get()) && nthreads > 1) {
        warn("tracing serializes host execution: running %u simulated "
             "cores on 1 host thread (asked for %u)",
             ncores, nthreads);
        nthreads = 1;
    }

    // Every effect one core has on another's state falls due at least
    // one lookahead after its cause, so an epoch no longer than the
    // lookahead hands each effect over before any core can need it.
    const TimeNs lookahead = lookahead_ns();
    PMILL_ASSERT(rc.epoch_us == 0 ||
                     (rc.epoch_us >= 0.001 &&
                      rc.epoch_us * 1000.0 <= lookahead),
                 "epoch_us %g outside [0.001, %g], the run's lookahead "
                 "(0 runs at the lookahead)",
                 rc.epoch_us, lookahead / 1000.0);
    const double epoch_ns = rc.epoch_us > 0 ? rc.epoch_us * 1000.0
                                            : lookahead;

    // Edge grid: every instant the conductor must own all shared
    // state — the epoch multiples, the measuring flip, each sampler
    // boundary (reproduced bit-for-bit from the sampler's own integer
    // arithmetic), and the run end. Duplicates collapse, so an edge
    // landing exactly on an epoch multiple yields one edge, not a
    // zero-length epoch.
    std::vector<TimeNs> edges;
    for (std::uint64_t k = 1; static_cast<double>(k) * epoch_ns < end; ++k)
        edges.push_back(static_cast<double>(k) * epoch_ns);
    if (warm_end > 0 && warm_end < end)
        edges.push_back(warm_end);
    if (sampler_) {
        const std::uint64_t ivns = sampler_->interval_ns();
        for (std::uint64_t k = 1;; ++k) {
            const TimeNs b = warm_end + static_cast<double>(k * ivns);
            if (b >= end)
                break;
            edges.push_back(b);
        }
    }
    edges.push_back(end);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    std::vector<ExecCounters> exec_base(cores_.size());
    std::vector<MemStats> mem_base(cores_.size());
    NicStats nic_base;
    acct_base_.assign(cores_.size(), CycleAccount::Snapshot{});
    acct_clock_base_.assign(cores_.size(), 0.0);

    const TimeNs gen_stop = rc.generator_stop_us > 0
                                ? warm_end + rc.generator_stop_us * 1000.0
                                : kInf;

    std::vector<TxCompletion> drained;
    std::vector<std::size_t> first_new(cores_.size());

    // Draw every arrival in [gen.next_start, hi), merging the per-NIC
    // generators by emission time (ties resolve to the lower NIC
    // index), and route each by its drawn tuple. Exact: the
    // generators' pacing (next_start advance, load-step switch, burst
    // gap scale) never depends on delivery outcomes, so drawing ahead
    // of the cores yields the same frame/time sequence as generating
    // one arrival at a time. The bytes are written later, by the
    // owning core, and only for frames its queue accepts.
    auto pregen = [&](TimeNs hi) {
        for (Inbox &in : inboxes_) {
            PMILL_ASSERT(in.next_arrival == in.arrivals.size(),
                         "arrival left undelivered across an epoch edge");
            in.arrivals.clear();
            in.next_arrival = 0;
        }
        for (;;) {
            std::uint32_t gi = 0;
            TimeNs best = kInf;
            for (std::uint32_t n = 0;
                 n < static_cast<std::uint32_t>(gens_.size()); ++n) {
                if (gens_[n].next_start < best) {
                    best = gens_[n].next_start;
                    gi = n;
                }
            }
            if (!(best < hi) || best >= gen_stop)
                break;
            Generator &gen = gens_[gi];
            double gap_scale = 1.0;
            const PendingArrival pa{gen.next_start,
                                    gen.source->draw(&gap_scale), gi};
            ++gen.frames;
            inboxes_[nics_[gi]->rss_queue(pa.draw.tuple)]
                .arrivals.push_back(pa);
            const double offered =
                (load_step_gbps_ > 0 && gen.next_start >= load_step_at_)
                    ? load_step_gbps_
                    : offered_gbps_;
            const double wire_bits =
                static_cast<double>((pa.draw.len + kWireOverheadBytes) * 8);
            gen.next_start += wire_bits / offered * gap_scale;
        }
    };

    // Due times at the heads of a core's three inbox lists (+inf when
    // a list is empty).
    auto completion_head = [&](const Inbox &in) {
        return in.next_completion < in.completions.size()
                   ? in.completions[in.next_completion].due()
                   : kInf;
    };
    auto handoff_head = [&](const Inbox &in) {
        return in.next_handoff < in.handoffs.size()
                   ? in.handoffs[in.next_handoff].due_ns
                   : kInf;
    };
    auto arrival_head = [&](const Inbox &in) {
        return in.next_arrival < in.arrivals.size()
                   ? in.arrivals[in.next_arrival].start
                   : kInf;
    };

    // Apply core @p ci 's inbox entries due before @p limit (also at
    // it when @p inclusive), in due order. Touches only the core's own
    // inbox, hierarchy, datapaths, queues and steering stats shard.
    auto apply_due = [&](std::uint32_t ci, TimeNs limit, bool inclusive) {
        Inbox &in = inboxes_[ci];
        CacheHierarchy &qc = *cores_[ci]->caches;
        std::uint8_t frame_buf[kMaxFrameLen];
        auto is_due = [&](TimeNs t) {
            return t < limit || (inclusive && t == limit);
        };
        for (;;) {
            const TimeNs tc = completion_head(in);
            const TimeNs th = handoff_head(in);
            TimeNs due;
            const InboxKind kind =
                inbox_next(tc, th, arrival_head(in), &due);
            if (!is_due(due))
                return;
            if (kind == InboxKind::kCompletion) {
                // The device reads the descriptor, then the frame
                // (Parking: the header prefix from the buffer and the
                // payload from the park arena); the driver reclaims.
                const PendingTx &p = in.completions[in.next_completion++];
                const TxCompletion &c = p.c;
                qc.dma(c.desc_addr, NicDevice::kDescBytes,
                       AccessType::kDevRead);
                qc.dma(c.buf_addr, c.len - c.park.len, AccessType::kDevRead);
                if (c.park.len != 0)
                    qc.dma(c.park.addr, c.park.len, AccessType::kParkRead);
                queue_dp_[p.nic][c.queue]->on_tx_complete(c);
            } else if (kind == InboxKind::kHandoff) {
                // The frame is already host-side: it lands on NIC 0's
                // queue for this core past the wire and the PCIe pipe,
                // keeping its wire arrival so p99 sees the handoff.
                const Handoff &h = in.handoffs[in.next_handoff++];
                steer_->note_landing(
                    ci, nics_[0]->deliver_handoff(
                            ci, h.bytes.data(),
                            static_cast<std::uint32_t>(h.bytes.size()),
                            h.arrival_ns));
            } else {
                // Arrivals are most of the inbox: deliver the run of
                // them due strictly before the completion and handoff
                // heads (which win ties and which an arrival cannot
                // move), with one comparison against each bound.
                const TimeNs other = std::min(tc, th);
                for (;;) {
                    const PendingArrival &pa =
                        in.arrivals[in.next_arrival++];
                    NicDevice &nic = *nics_[pa.nic];
                    const FrameSource &src = *gens_[pa.nic].source;
                    nic.deliver(ci, pa.draw.len,
                                pa.start + nic.wire_time_ns(pa.draw.len),
                                [&] {
                                    return src.write(pa.draw, frame_buf);
                                });
                    if (in.next_arrival == in.arrivals.size())
                        break;
                    const TimeNs next = in.arrivals[in.next_arrival].start;
                    if (!(next < other) || !is_due(next))
                        break;
                }
            }
        }
    };

    // Advance core @p ci to (at least) @p t1. Before each step the
    // core applies every inbox entry due by its clock; before it
    // leaves, every entry due before t1, so the state at the edge
    // holds each effect before the edge and none after it. Touches
    // only the core's own state — safe to run concurrently with other
    // cores' segments.
    auto run_core_epoch = [&](std::uint32_t ci, TimeNs t1) {
        Core &core = *cores_[ci];
        const bool tron = PMILL_TRACE_ON(tracer_.get());
        for (;;) {
            if (core.clock >= t1) {
                apply_due(ci, t1, false);
                return;
            }
            apply_due(ci, core.clock, true);
            // Idle fast-forward (bit-identical spin replay) to the next
            // inbox entry whenever this core's queues are dry.
            bool can_ff = !tron;
            if (can_ff) {
                for (const auto &bq : core.dps) {
                    if (nics_[bq.nic]->next_cqe_time(bq.queue) < kInf) {
                        can_ff = false;
                        break;
                    }
                }
            }
            if (can_ff) {
                const Inbox &in = inboxes_[ci];
                TimeNs due;
                inbox_next(completion_head(in), handoff_head(in),
                           arrival_head(in), &due);
                idle_spin(core, std::min(t1, due));
            } else {
                step_core(core);
            }
        }
    };

    // Worker j owns cores {c : c % nthreads == j}, processed in
    // ascending core order. The partition cannot affect results: each
    // core's segment reads/writes only its own state.
    auto run_share = [&](std::uint32_t share, TimeNs t1) {
        for (std::uint32_t ci = share; ci < ncores; ci += nthreads)
            run_core_epoch(ci, t1);
    };

    // Epoch barrier: the conductor publishes the epoch target then
    // bumps `go` (release); workers acquire it, run their share, and
    // bump `done`. All cross-thread data passed through the inboxes
    // and the steering fabric is ordered by these two edges.
    std::atomic<std::uint64_t> go{0};
    std::atomic<std::uint32_t> done{0};
    std::atomic<bool> quit{false};
    TimeNs epoch_t1 = 0;
    std::vector<std::thread> pool;
    if (nthreads > 1) {
        pool.reserve(nthreads - 1);
        for (std::uint32_t j = 1; j < nthreads; ++j) {
            pool.emplace_back([&, j] {
                std::uint64_t seen = 0;
                unsigned spins = 0;
                for (;;) {
                    while (go.load(std::memory_order_acquire) == seen) {
                        if (quit.load(std::memory_order_acquire))
                            return;
                        barrier_relax(spins);
                    }
                    ++seen;
                    run_share(j, epoch_t1);
                    done.fetch_add(1, std::memory_order_release);
                }
            });
        }
    }
    auto parallel_epoch = [&](TimeNs t1) {
        if (nthreads <= 1) {
            for (std::uint32_t ci = 0; ci < ncores; ++ci)
                run_core_epoch(ci, t1);
            return;
        }
        epoch_t1 = t1;
        done.store(0, std::memory_order_relaxed);
        go.fetch_add(1, std::memory_order_release);
        run_share(0, t1);
        unsigned spins = 0;
        while (done.load(std::memory_order_acquire) != nthreads - 1)
            barrier_relax(spins);
    };

    // Drop the applied prefix of an inbox list; return where the
    // conductor's new entries will start.
    auto trim = [](auto &list, std::size_t &next) {
        list.erase(list.begin(),
                   list.begin() + static_cast<std::ptrdiff_t>(next));
        next = 0;
        return list.size();
    };

    // Conductor-side edge work: drain the wire up to @p now, routing
    // each completion to the inbox of the core that owns its queue
    // and folding the telemetry. NIC index order, completion order
    // within the drain. Telemetry counters are summed locally and
    // published once per drain: integer sums are order-independent,
    // so this equals per-completion increments.
    auto drain_edge = [&](TimeNs now) {
        const bool tron = PMILL_TRACE_ON(tracer_.get());
        for (std::size_t ci = 0; ci < inboxes_.size(); ++ci)
            first_new[ci] = trim(inboxes_[ci].completions,
                                 inboxes_[ci].next_completion);
        for (std::uint32_t n = 0;
             n < static_cast<std::uint32_t>(nics_.size()); ++n) {
            drained.clear();
            nics_[n]->drain_tx(now, drained);
            if (drained.empty())
                continue;
            std::uint64_t pkts = 0;
            std::uint64_t wire_bits = 0;
            std::uint64_t frame_bits = 0;
            for (const TxCompletion &c : drained) {
                inboxes_[c.queue].completions.push_back(PendingTx{n, c});
                if (PMILL_UNLIKELY(tron) && !inflight_.empty()) {
                    auto it = inflight_.find(arrival_key(c.arrival_ns));
                    if (it != inflight_.end()) {
                        tracer_->record(TraceEventKind::kTx,
                                        c.departure_ns, it->second, 0, 0,
                                        c.len);
                        inflight_.erase(it);
                    }
                }
                ++pkts;
                wire_bits += (c.len + kWireOverheadBytes) * 8ull;
                lat_interval_->record((c.departure_ns - c.arrival_ns) /
                                      1000.0);
                if (measuring_) {
                    frame_bits += c.len * 8ull;
                    latency_->record((c.departure_ns - c.arrival_ns) /
                                     1000.0);
                    // The completion takes effect later, on the
                    // owning core, so a parked payload's ticket is
                    // still held here.
                    if (tx_capture_)
                        capture_tx(c);
                }
            }
            m_tx_pkts_.add(pkts);
            m_tx_wire_bits_.add(wire_bits);
            if (measuring_) {
                tx_pkts_ += pkts;
                tx_wire_bits_ += wire_bits;
                tx_frame_bits_ += frame_bits;
            }
        }
        // Each device drains in departure order; with several devices
        // a core's new completions merge by due time (ties to the
        // lower device).
        for (std::size_t ci = 0; ci < inboxes_.size(); ++ci)
            inbox_merge(inboxes_[ci].completions, first_new[ci],
                        [](const PendingTx &a, const PendingTx &b) {
                            return a.due() < b.due();
                        });
    };

    // Conductor-side handoff routing: move every staged handoff into
    // its destination's inbox. A source that overshot the edge may
    // have staged handoffs due after ones staged next epoch, so the
    // new ones merge with those still waiting.
    auto route_handoffs = [&] {
        for (std::size_t ci = 0; ci < inboxes_.size(); ++ci)
            first_new[ci] = trim(inboxes_[ci].handoffs,
                                 inboxes_[ci].next_handoff);
        steer_->take_staged([&](Handoff &&h) {
            inboxes_[h.dst].handoffs.push_back(std::move(h));
        });
        for (std::size_t ci = 0; ci < inboxes_.size(); ++ci)
            inbox_merge(inboxes_[ci].handoffs, first_new[ci],
                        handoff_earlier);
    };

    // Zero warm-up: the window opens at t=0, before the first epoch.
    if (!measuring_ && warm_end <= 0)
        begin_measuring(exec_base, mem_base, &nic_base, warm_end);

    for (std::size_t i = 0; i < edges.size(); ++i) {
        const TimeNs t1 = edges[i];
        const bool last = i + 1 == edges.size();
        // 1) Synthesize this epoch's arrivals (conductor; exact).
        pregen(t1);
        // 2) Cores advance to t1 in parallel.
        parallel_epoch(t1);
        // 3) Serial edge phase, fixed order: wire drain (pre-flip at
        //    the warm_end edge, so the measured window is departures
        //    in (warm_end, end] for every thread count), then the
        //    handoff routing, then the measuring flip, then
        //    sampling + control. Effects due at or after the end stay
        //    in flight.
        drain_edge(t1);
        if (steer_)
            route_handoffs();
        if (!measuring_ && t1 >= warm_end)
            begin_measuring(exec_base, mem_base, &nic_base, warm_end);
        if (sampler_ && measuring_) {
            if (last)
                sampler_->finish(end);
            else
                sampler_->advance(t1);
            if (controller_)
                controller_->observe(sampler_->timeline(), *this);
        }
    }

    if (nthreads > 1) {
        quit.store(true, std::memory_order_release);
        for (std::thread &t : pool)
            t.join();
    }

    return finish_run(exec_base, mem_base, nic_base, warm_end, end);
}

RunResult
Engine::finish_run(const std::vector<ExecCounters> &exec_base,
                   const std::vector<MemStats> &mem_base,
                   const NicStats &nic_base, TimeNs warm_end, TimeNs end)
{
    RunResult r;
    r.duration_ns = end - warm_end;
    r.tx_pkts = tx_pkts_;
    r.throughput_gbps = static_cast<double>(tx_wire_bits_) / r.duration_ns;
    r.goodput_gbps = static_cast<double>(tx_frame_bits_) / r.duration_ns;
    r.mpps = static_cast<double>(tx_pkts_) / r.duration_ns * 1000.0;
    r.mean_latency_us = latency_->mean();
    r.median_latency_us = latency_->percentile(0.5);
    r.p99_latency_us = latency_->percentile(0.99);
    last_p99_us_ = r.p99_latency_us;

    // Frame ledger, per NIC: every frame its generator emitted was
    // delivered to a queue within its epoch and either accepted or
    // refused there (no descriptor / CQ full).
    for (std::uint32_t n = 0; n < nics_.size(); ++n) {
        const NicStats s = nics_[n]->stats();
        PMILL_ASSERT(gens_[n].frames ==
                         s.rx_frames + s.rx_drops_no_desc + s.rx_drops_pcie,
                     "frame ledger violated on nic%u: generated=%llu "
                     "rx_frames=%llu drops_no_desc=%llu drops_pcie=%llu",
                     n, static_cast<unsigned long long>(gens_[n].frames),
                     static_cast<unsigned long long>(s.rx_frames),
                     static_cast<unsigned long long>(s.rx_drops_no_desc),
                     static_cast<unsigned long long>(s.rx_drops_pcie));
    }
    // Every effect left in an inbox falls due at or after the end: an
    // epoch within the lookahead hands each one over before its core
    // can need it (DESIGN.md section 9), so an earlier one was lost.
    // The handoffs waiting are exactly the fabric's in-flight count.
    std::uint64_t handoffs_waiting = 0;
    for (std::size_t c = 0; c < inboxes_.size(); ++c) {
        const Inbox &in = inboxes_[c];
        for (std::size_t i = in.next_completion; i < in.completions.size();
             ++i)
            PMILL_ASSERT(in.completions[i].due() >= end,
                         "TX completion due at %.17g ns left unapplied on "
                         "core %zu (run end %.17g ns)",
                         in.completions[i].due(), c, end);
        for (std::size_t i = in.next_handoff; i < in.handoffs.size(); ++i)
            PMILL_ASSERT(in.handoffs[i].due_ns >= end,
                         "handoff due at %.17g ns left unlanded on core "
                         "%zu (run end %.17g ns)",
                         in.handoffs[i].due_ns, c, end);
        handoffs_waiting += in.handoffs.size() - in.next_handoff;
    }
    if (steer_) {
        const SteerStats st = steer_->stats();
        PMILL_ASSERT(st.in_flight == handoffs_waiting,
                     "steering ledger violated: %llu handoffs in flight, "
                     "%llu waiting in inboxes",
                     static_cast<unsigned long long>(st.in_flight),
                     static_cast<unsigned long long>(handoffs_waiting));
    }

    const NicStats nic = nic_totals();
    r.rx_drops = (nic.rx_drops_no_desc + nic.rx_drops_pcie) -
                 (nic_base.rx_drops_no_desc + nic_base.rx_drops_pcie);
    r.tx_drops = nic.tx_drops - nic_base.tx_drops;

    // Parking-model ticket conservation, checked after every run:
    // each queue's PayloadPark::stats() hard-asserts that the
    // lifecycle counters match the free list (leak detection), and
    // every ticket handed out must be accounted as rejoined, dropped,
    // or still attached to a frame legitimately in flight at the end
    // edge (RX rings / TX rings / completions not yet due).
    for (const auto &core : cores_) {
        for (const auto &bq : core->dps) {
            PayloadPark::Stats st;
            if (!bq.dp->park_stats(&st))
                continue;
            PMILL_ASSERT(st.parked ==
                             st.rejoined + st.dropped + st.outstanding,
                         "park ticket conservation violated on nic%u q%u: "
                         "parked=%llu rejoined=%llu dropped=%llu "
                         "outstanding=%u",
                         bq.nic, bq.queue,
                         static_cast<unsigned long long>(st.parked),
                         static_cast<unsigned long long>(st.rejoined),
                         static_cast<unsigned long long>(st.dropped),
                         st.outstanding);
        }
    }

    // Cycle-accounting conservation: the bucket sum must equal the
    // ledger total bit-exactly (integer construction), and the ledger
    // total must match the core-clock advance up to floating-point
    // rounding. Both checked per core, every run.
    acct_measured_.assign(cores_.size(), AcctCoreBreakdown{});
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        AcctCoreBreakdown &b = acct_measured_[c];
        b.delta = cores_[c]->ctx->account().snapshot().delta_since(
            acct_base_[c]);
        b.clock_cycles =
            (cores_[c]->clock - acct_clock_base_[c]) * machine_.freq_ghz;
        b.residual = b.delta.total - CycleAccount::to_fixed(b.clock_cycles);
        if (CycleAccount::kCompiledIn) {
            PMILL_ASSERT(b.delta.sum_minus_total() == 0,
                         "cycle-accounting leak on core %zu: bucket sum "
                         "differs from total by %lld fixed-point units",
                         c,
                         static_cast<long long>(b.delta.sum_minus_total()));
            const double res_cycles = CycleAccount::cycles(b.residual);
            PMILL_ASSERT(
                std::fabs(res_cycles) <= 1.0 + 1e-5 * b.clock_cycles,
                "cycle-accounting residual %g cycles on core %zu "
                "(window %g cycles): a clock advance bypassed the ledger",
                res_cycles, c, b.clock_cycles);
        }
    }

    double instr = 0, cycles = 0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        ExecCounters d =
            counters_delta(cores_[c]->ctx->counters(), exec_base[c]);
        exec_add(r.exec, d);
        MemStats md = cores_[c]->caches->stats() - mem_base[c];
        mem_stats_add(r.mem, md);
        instr += d.instructions;
        cycles += d.total_cycles(machine_.freq_ghz);
    }
    r.ipc = cycles > 0 ? instr / cycles : 0;
    const double windows_100ms = r.duration_ns / 1e8;
    r.llc_kloads_per_100ms =
        static_cast<double>(r.mem.llc_loads()) / windows_100ms / 1000.0;
    r.llc_kmisses_per_100ms =
        static_cast<double>(r.mem.llc_load_misses) / windows_100ms / 1000.0;
    return r;
}

std::vector<std::string>
Engine::acct_scope_labels() const
{
    std::vector<std::string> labels;
    for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s)
        labels.push_back(acct_scope_name(s));
    for (const Element *e : cores_[0]->pipe->elements())
        labels.push_back(e->name().empty() ? e->class_name()
                                           : e->name());
    return labels;
}

const Timeline &
Engine::timeline() const
{
    static const Timeline kEmpty;
    return sampler_ ? sampler_->timeline() : kEmpty;
}

std::vector<ElementStats>
Engine::element_stats() const
{
    std::vector<ElementStats> sum;
    for (const auto &core : cores_) {
        const auto &es = core->pipe->element_stats();
        if (sum.size() < es.size())
            sum.resize(es.size());
        for (std::size_t i = 0; i < es.size(); ++i) {
            sum[i].packets += es[i].packets;
            sum[i].batches += es[i].batches;
            sum[i].cycles += es[i].cycles;
            sum[i].mem_ns += es[i].mem_ns;
        }
    }
    return sum;
}

RunResult
run_experiment(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts, const Trace &trace,
               const RunConfig &rc)
{
    Engine engine(machine, config_text, opts, trace);
    return engine.run(rc);
}

} // namespace pmill
