#include "src/framework/pipeline.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/elements/elements.hh"
#include "src/tracing/tracer.hh"

namespace pmill {

namespace {

/// Size of the fragmented-heap region the dynamic graph chases
/// through (must exceed the LLC so the chase misses in steady state).
/// The chase only loads simulated addresses, so the region has no
/// host pages.
constexpr std::uint64_t kFragRegionBytes = 30ull * 1024 * 1024;

MetadataLayout
layout_for(MetadataModel model)
{
    switch (model) {
      case MetadataModel::kCopying: return make_copying_layout();
      case MetadataModel::kOverlaying: return make_overlay_layout();
      case MetadataModel::kXchange:
      case MetadataModel::kParking: return make_xchg_layout();
    }
    panic("bad model");
}

} // namespace

std::unique_ptr<Pipeline>
Pipeline::build(const std::string &config_text, SimMemory &mem,
                const PipelineOpts &opts, std::string *err)
{
    register_standard_elements();

    auto p = std::unique_ptr<Pipeline>(new Pipeline);
    p->opts_ = opts;
    p->layout_ = layout_for(opts.model);

    if (!parse_click_config(config_text, &p->parsed_, err))
        return nullptr;
    if (p->parsed_.elements.empty()) {
        if (err)
            *err = "configuration declares no elements";
        return nullptr;
    }

    ElementRegistry &reg = ElementRegistry::instance();
    for (const auto &pe : p->parsed_.elements) {
        auto inst = reg.create(pe.class_name);
        if (!inst) {
            if (err)
                *err = "unknown element class '" + pe.class_name + "'";
            return nullptr;
        }
        inst->set_name(pe.name);
        std::string cfg_err;
        if (!inst->configure(pe.args, &cfg_err)) {
            if (err)
                *err = pe.name + ": " + cfg_err;
            return nullptr;
        }
        p->instances_.push_back(std::move(inst));
    }

    // State placement: the static graph packs all element state
    // contiguously (a .data-segment arena); the dynamic graph leaves
    // each element wherever config-time heap allocation scattered it.
    // A profile-guided opts.state_order places the named (hot)
    // elements first so their state shares the front arena lines.
    std::vector<std::size_t> placement;
    placement.reserve(p->instances_.size());
    if (opts.static_graph && !opts.state_order.empty()) {
        std::vector<bool> placed(p->instances_.size(), false);
        for (const auto &nm : opts.state_order) {
            const int i = p->parsed_.find(nm);
            if (i >= 0 && !placed[static_cast<std::size_t>(i)]) {
                placement.push_back(static_cast<std::size_t>(i));
                placed[static_cast<std::size_t>(i)] = true;
            }
        }
        for (std::size_t i = 0; i < p->instances_.size(); ++i)
            if (!placed[i])
                placement.push_back(i);
    } else {
        for (std::size_t i = 0; i < p->instances_.size(); ++i)
            placement.push_back(i);
    }
    for (std::size_t i : placement) {
        Element *inst = p->instances_[i].get();
        const std::uint32_t sz = std::max(inst->state_bytes(), 64u);
        MemHandle h =
            opts.static_graph
                ? mem.alloc(sz, kCacheLineBytes, Region::kStaticArena)
                : mem.alloc_scattered(sz, Region::kHeap);
        inst->set_state(h);
        inst->set_layout(&p->layout_);
    }

    for (auto &inst : p->instances_) {
        std::string init_err;
        if (!inst->initialize(mem, &init_err)) {
            if (err)
                *err = inst->name() + ": " + init_err;
            return nullptr;
        }
    }

    // Locate the source and its successor.
    auto sources = p->parsed_.of_class("FromDPDKDevice");
    if (sources.size() != 1) {
        if (err)
            *err = "pipeline needs exactly one FromDPDKDevice";
        return nullptr;
    }
    p->source_ = static_cast<int>(sources[0]);
    p->entry_ = p->parsed_.next_of(sources[0], 0);
    if (p->entry_ < 0) {
        if (err)
            *err = "FromDPDKDevice is not connected";
        return nullptr;
    }

    if (!opts.static_graph)
        p->frag_ =
            mem.alloc_sparse(kFragRegionBytes, kPageBytes, Region::kHeap);
    p->elem_counts_.resize(p->instances_.size());

    // Resolve the executor's dispatch tables once: terminal flags
    // (instead of a dynamic_cast per invocation) and the successor of
    // every (element, port) pair (instead of an edge-list scan).
    p->is_tx_.resize(p->instances_.size());
    p->succ_.resize(p->instances_.size());
    for (std::size_t i = 0; i < p->instances_.size(); ++i) {
        p->is_tx_[i] =
            dynamic_cast<ToDPDKDevice *>(p->instances_[i].get()) != nullptr;
        std::uint32_t nports = p->instances_[i]->num_outputs();
        for (const auto &e : p->parsed_.edges)
            if (e.from == i)
                nports = std::max(nports, e.from_port + 1);
        p->succ_[i].assign(nports, -1);
        for (std::uint32_t port = 0; port < nports; ++port)
            p->succ_[i][port] =
                p->parsed_.next_of(static_cast<std::uint32_t>(i), port);
    }
    return p;
}

void
Pipeline::reset_element_counts()
{
    elem_counts_.assign(instances_.size(), ElementCounts{});
}

void
Pipeline::set_rule_profiling(bool on)
{
    for (auto &inst : instances_) {
        inst->set_rule_profiling(on);
        if (on)
            inst->reset_rule_hits();
    }
}

void
Pipeline::set_tracer(Tracer *t)
{
    tracer_ = t;
    trace_spans_.assign(instances_.size(), 0);
    if (t == nullptr)
        return;
    for (std::size_t i = 0; i < parsed_.elements.size(); ++i)
        trace_spans_[i] = t->intern(parsed_.elements[i].name);
}

Element *
Pipeline::find(const std::string &name) const
{
    const int i = parsed_.find(name);
    return i < 0 ? nullptr : instances_[static_cast<std::size_t>(i)].get();
}

Element *
Pipeline::find_class(const std::string &class_name) const
{
    for (std::size_t i = 0; i < parsed_.elements.size(); ++i)
        if (parsed_.elements[i].class_name == class_name)
            return instances_[i].get();
    return nullptr;
}

void
Pipeline::set_layout(const MetadataLayout &l)
{
    layout_ = l;
}

std::uint32_t
Pipeline::burst() const
{
    const auto *src = dynamic_cast<const FromDPDKDevice *>(
        instances_[static_cast<std::size_t>(source_)].get());
    return src ? src->burst() : 32;
}

std::vector<Element *>
Pipeline::elements() const
{
    std::vector<Element *> out;
    out.reserve(instances_.size());
    for (const auto &i : instances_)
        out.push_back(i.get());
    return out;
}

void
Pipeline::process(PacketBatch &batch, ExecContext &ctx)
{
    if (batch.count == 0)
        return;

    // Hoisted once per pipeline invocation; run_from reads the member
    // instead of re-testing the tracer at every graph hop.
    tron_ = PMILL_TRACE_ON(tracer_);
    if (PMILL_UNLIKELY(tron_))
        trace_batch_ = tracer_->next_batch_id();

    // The graph walk's own glue — heap chase and per-packet framework
    // cost — is framework time, whatever scope the caller left set.
    AcctScope acct_scope(ctx, kAcctFramework);

    // Per-packet pointer chase through the fragmented heap (vanilla
    // dynamic graph only; the paper's static graph removes it).
    if (!opts_.static_graph && frag_) {
        const std::uint64_t lines = frag_.size / kCacheLineBytes;
        const double per_pkt =
            ctx.cost().heap_indirection_lines_per_element *
            std::max<std::size_t>(1, instances_.size() - 2);
        const std::uint64_t n = static_cast<std::uint64_t>(
            per_pkt * batch.count + 0.5);
        for (std::uint64_t i = 0; i < n; ++i) {
            ctx.load(frag_.addr + (frag_cursor_ % lines) * kCacheLineBytes,
                     8);
            ++frag_cursor_;
        }
    }

    // The static graph lets the compiler inline and specialize much
    // of the per-packet framework glue away.
    const double fw_scale =
        opts_.framework_scale * (opts_.static_graph ? 0.8 : 1.0);
    ctx.on_compute(ctx.cost().framework_per_packet_cycles * fw_scale *
                       batch.count,
                   80.0 * fw_scale * batch.count);

    PacketBatch out;
    run_from(entry_, batch, ctx, out);
    batch = out;
}

void
Pipeline::run_from(int idx, PacketBatch &batch, ExecContext &ctx,
                   PacketBatch &out)
{
    if (batch.count == 0)
        return;
    const bool tron = tron_;
    if (idx < 0) {
        // Unconnected port: Click drops here.
        dropped_ += batch.count;
        if (tron) {
            for (std::uint32_t i = 0; i < batch.count; ++i)
                if (batch[i].trace_id)
                    tracer_->record(TraceEventKind::kDrop, ctx.now_ns(),
                                    batch[i].trace_id, trace_batch_, 0,
                                    kDropPipeline);
        }
        return;
    }

    Element *e = instances_[static_cast<std::size_t>(idx)].get();
    const std::uint16_t span =
        tron ? trace_spans_[static_cast<std::size_t>(idx)] : 0;

    // Element boundary: dispatch cost + the element's state line.
    // Trace records carry the ExecContext counter deltas around the
    // invocation, so the snapshot is taken only when tracing.
    ExecCounters c0;
    if (tron) {
        c0 = ctx.counters();
        tracer_->record(TraceEventKind::kElementEnter, ctx.now_ns(), 0,
                        trace_batch_, span, batch.count);
    }
    const std::uint32_t before = batch.count;
    {
        // Dispatch, state touch, and the element's own work are the
        // element's accounting scope. Table/sink charges made by the
        // element inherit the scope through the shared ExecContext.
        AcctScope elem_scope(ctx, static_cast<std::uint16_t>(
                                      kAcctElementBase + idx));
        ctx.dispatch(batch.count);
        ctx.load(e->state().addr, 16);
        e->process(batch, ctx);
    }

    ElementCounts &ec = elem_counts_[static_cast<std::size_t>(idx)];
    ec.packets += before;
    ec.batches += 1;

    if (tron) {
        // Exit carries the batch's full cost deltas; each sampled
        // packet additionally gets its per-packet share so lifecycle
        // reconstruction needs no batch join.
        const ExecCounters &c1 = ctx.counters();
        const double dcycles = (c1.compute_cycles + c1.access_cycles) -
                               (c0.compute_cycles + c0.access_cycles);
        const TimeNs t_exit = ctx.now_ns();
        const double ddur =
            dcycles / ctx.freq_ghz() + (c1.wall_ns - c0.wall_ns);
        tracer_->record(TraceEventKind::kElementExit, t_exit, 0,
                        trace_batch_, span, before, dcycles, ddur);
        const double inv = before ? 1.0 / before : 0.0;
        for (std::uint32_t i = 0; i < batch.count; ++i)
            if (batch[i].trace_id)
                tracer_->record(TraceEventKind::kPacketElement, t_exit,
                                batch[i].trace_id, trace_batch_, span, 1,
                                dcycles * inv, ddur * inv);
    }

    // Terminal: ToDPDKDevice stamps the egress port and collects.
    if (is_tx_[static_cast<std::size_t>(idx)]) {
        for (std::uint32_t i = 0; i < batch.count; ++i) {
            if (!batch[i].dropped) {
                PMILL_ASSERT(out.count < kMaxBurst, "tx batch overflow");
                out.pkts[out.count++] = batch[i];
            } else {
                ++dropped_;
                if (tron && batch[i].trace_id)
                    tracer_->record(TraceEventKind::kDrop, ctx.now_ns(),
                                    batch[i].trace_id, trace_batch_, span,
                                    kDropPipeline);
            }
        }
        return;
    }

    const std::uint32_t before_compact = batch.count;
    if (tron) {
        for (std::uint32_t i = 0; i < batch.count; ++i)
            if (batch[i].dropped && batch[i].trace_id)
                tracer_->record(TraceEventKind::kDrop, ctx.now_ns(),
                                batch[i].trace_id, trace_batch_, span,
                                kDropPipeline);
    }
    batch.compact();
    dropped_ += before_compact - batch.count;
    if (batch.count == 0)
        return;

    const std::uint32_t nout = e->num_outputs();
    if (nout <= 1) {
        run_from(successor(idx, 0), batch, ctx, out);
        return;
    }

    // Partition by out_port and push each sub-batch downstream.
    for (std::uint32_t port = 0; port < nout; ++port) {
        PacketBatch sub;
        for (std::uint32_t i = 0; i < batch.count; ++i) {
            if (batch[i].out_port == port) {
                sub.pkts[sub.count] = batch[i];
                sub.pkts[sub.count].out_port = 0;
                ++sub.count;
            }
        }
        if (sub.count)
            run_from(successor(idx, port), sub, ctx, out);
    }
}

} // namespace pmill
