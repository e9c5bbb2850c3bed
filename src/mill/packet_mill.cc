#include "src/mill/packet_mill.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/runtime/engine.hh"

namespace pmill {

namespace {

/** Fields written by the RX conversion path (CQE -> Packet copy). */
const Field kRxWrites[] = {
    Field::kMbufPtr,   Field::kDataAddr, Field::kLen,
    Field::kTimestamp, Field::kPort,     Field::kPacketType,
    Field::kVlanTci,   Field::kRssHash,  Field::kNextPtr,
};

/** Fields read back on the TX conversion path. */
const Field kTxReads[] = {Field::kDataAddr, Field::kLen};

/** Members of the opaque 48-B user-annotation area. */
constexpr bool
in_anno_area(Field f)
{
    return f == Field::kTimestamp || f == Field::kPaint ||
           f == Field::kDstIpAnno || f == Field::kAggregate;
}

} // namespace

FieldUsage
scan_field_references(const Pipeline &pipeline, const Profile *profile)
{
    FieldUsage usage;

    // Static scan: every element (and the conversions) weigh 1.
    // Profile-weighted scan: an element's references weigh its
    // measured packet count, so a field only touched off the hot path
    // (e.g.\ by the ARP branch) sinks in the hot-first order.
    std::uint64_t conv_weight = 1;
    if (profile) {
        for (const ProfileElement &pe : profile->elements)
            conv_weight = std::max(conv_weight, pe.packets);
    }

    // Datapath conversions run once per packet.
    for (Field f : kRxWrites)
        usage.writes[static_cast<std::size_t>(f)] += conv_weight;
    for (Field f : kTxReads)
        usage.reads[static_cast<std::size_t>(f)] += conv_weight;

    // Element references (each element's declared per-packet profile).
    for (const Element *e : pipeline.elements()) {
        std::uint64_t w = 1;
        if (profile) {
            const ProfileElement *pe = profile->find(e->name());
            w = pe ? std::max<std::uint64_t>(pe->packets, 1) : 1;
        }
        std::vector<Field> reads, writes;
        e->access_profile(reads, writes);
        for (Field f : reads)
            usage.reads[static_cast<std::size_t>(f)] += w;
        for (Field f : writes)
            usage.writes[static_cast<std::size_t>(f)] += w;
    }
    return usage;
}

std::vector<Field>
hot_field_order(const FieldUsage &usage)
{
    std::vector<Field> order;
    for (std::size_t i = 0; i < kNumFields; ++i)
        order.push_back(static_cast<Field>(i));
    std::stable_sort(order.begin(), order.end(),
                     [&](Field a, Field b) {
                         return usage.total(a) > usage.total(b);
                     });
    return order;
}

MetadataLayout
reorder_packet_layout(const MetadataLayout &base, const FieldUsage &usage)
{
    const std::vector<Field> order = hot_field_order(usage);

    MetadataLayout l;
    l.name = base.name + "+reordered";
    l.total_bytes = base.total_bytes;

    // Pass 1: scalar members, hot first, naturally aligned.
    // kParkTicket is parking-only (never referenced under Copying,
    // the only model the reorder applies to) and keeps its base
    // offset so pre-parking layouts are reproduced byte-identically.
    std::uint32_t off = 0;
    l.offset[static_cast<std::size_t>(Field::kParkTicket)] =
        base.offset[static_cast<std::size_t>(Field::kParkTicket)];
    for (Field f : order) {
        if (in_anno_area(f) || f == Field::kParkTicket)
            continue;
        const std::uint32_t sz = field_size(f);
        off = static_cast<std::uint32_t>(round_up(off, std::min(sz, 8u)));
        l.offset[static_cast<std::size_t>(f)] =
            static_cast<std::uint16_t>(off);
        off += sz;
    }
    // Pass 2: the annotation area moves as one unit after the
    // scalars (a single char[48] member cannot be split).
    off = static_cast<std::uint32_t>(round_up(off, 8));
    std::uint32_t anno_off = 0;
    for (Field f : order) {
        if (!in_anno_area(f))
            continue;
        const std::uint32_t sz = field_size(f);
        anno_off =
            static_cast<std::uint32_t>(round_up(anno_off, std::min(sz, 8u)));
        l.offset[static_cast<std::size_t>(f)] =
            static_cast<std::uint16_t>(off + anno_off);
        anno_off += sz;
    }
    PMILL_ASSERT(off + anno_off <= l.total_bytes,
                 "reordered layout exceeds the Packet object size");
    return l;
}

namespace {

std::vector<Field>
rx_written_fields()
{
    return std::vector<Field>(std::begin(kRxWrites), std::end(kRxWrites));
}

MillReport
analyze_impl(Pipeline &pipeline, bool apply_reorder,
             const Profile *profile = nullptr)
{
    MillReport r;
    r.num_elements =
        static_cast<std::uint32_t>(pipeline.parsed().elements.size());
    r.num_edges = static_cast<std::uint32_t>(pipeline.parsed().edges.size());
    const PipelineOpts &o = pipeline.opts();
    r.devirtualized = o.devirtualize || o.static_graph;
    r.constants_embedded = o.constants;
    r.static_graph = o.static_graph;
    r.lto = o.lto;

    const FieldUsage usage = scan_field_references(pipeline, profile);
    r.hot_order = hot_field_order(usage);
    r.layout_lines_before =
        pipeline.layout().lines_spanned(rx_written_fields());

    if (apply_reorder && o.model == MetadataModel::kCopying) {
        MetadataLayout reordered =
            reorder_packet_layout(pipeline.layout(), usage);
        pipeline.set_layout(reordered);
        r.reordered = true;
    }
    r.layout_lines_after =
        pipeline.layout().lines_spanned(rx_written_fields());
    return r;
}

} // namespace

MillReport
PacketMill::analyze(Pipeline &pipeline, bool apply_reorder)
{
    return analyze_impl(pipeline, apply_reorder);
}

MillReport
PacketMill::grind(Engine &engine, const Profile *profile,
                  const PipelineOpts *base)
{
    MillReport report;
    Plan plan;
    // Every core runs the same config: the plan only ever shrinks
    // core 0's burst, and so every core's.
    if (profile)
        plan = PlanSearch::search(*profile,
                                  base ? *base : engine.pipeline(0).opts(),
                                  engine.rx_burst(0));
    if (plan.burst != 0)
        for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
            engine.set_rx_burst(c, plan.burst);

    // Core 0's pipeline is representative; apply to every core. An
    // element may refuse an order it cannot honour without changing
    // semantics (apply_rule_order's contract), so record each entry's
    // fate — every core runs an identical pipeline, so core 0's
    // verdict stands for all of them.
    std::vector<bool> applied(plan.rule_orders.size(), false);
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
        Pipeline *p = &engine.pipeline(c);
        const bool reorder = p->opts().reorder;
        report = analyze_impl(*p, reorder, profile);
        // The plan's in-place decisions: measured-hot-first rule
        // orders per element instance.
        for (std::size_t i = 0; i < plan.rule_orders.size(); ++i) {
            Element *e = p->find(plan.rule_orders[i].first);
            const bool ok =
                e != nullptr &&
                e->apply_rule_order(plan.rule_orders[i].second);
            if (c == 0)
                applied[i] = ok;
        }
    }
    if (profile) {
        // Keep the reported plan honest: drop refused orders from the
        // decision list and mark their rationale lines, so the
        // printout matches what actually took effect.
        std::vector<std::pair<std::string, std::vector<std::uint32_t>>>
            kept;
        for (std::size_t i = 0; i < plan.rule_orders.size(); ++i) {
            if (applied[i]) {
                kept.push_back(std::move(plan.rule_orders[i]));
                continue;
            }
            const std::string prefix =
                plan.rule_orders[i].first + ": hot-first rule order";
            for (std::string &r : plan.rationale)
                if (r.compare(0, prefix.size(), prefix) == 0)
                    r += " — refused at grind time, not applied";
        }
        plan.rule_orders = std::move(kept);
        report.profile_guided = true;
        report.rules_reordered =
            static_cast<std::uint32_t>(plan.rule_orders.size());
        report.plan = std::move(plan);
    }
    return report;
}

std::string
MillReport::to_string() const
{
    std::string s;
    s += strprintf("PacketMill report: %u elements, %u edges\n",
                   num_elements, num_edges);
    s += strprintf("  devirtualize:      %s\n",
                   devirtualized ? "yes (direct/inlined calls)" : "no");
    s += strprintf("  constant embed:    %s\n",
                   constants_embedded ? "yes" : "no");
    s += strprintf("  static graph:      %s\n",
                   static_graph ? "yes (arena-placed elements)" : "no");
    s += strprintf("  LTO:               %s\n", lto ? "yes" : "no");
    s += strprintf("  reorder pass:      %s\n", reordered ? "yes" : "no");
    s += strprintf("  RX-written fields span %u -> %u cache line(s)\n",
                   layout_lines_before, layout_lines_after);
    s += "  hot field order:  ";
    for (std::size_t i = 0; i < hot_order.size() && i < 6; ++i) {
        s += field_name(hot_order[i]);
        s += ' ';
    }
    s += "...\n";
    if (profile_guided) {
        s += strprintf("  profile-guided:    yes (%u rule order(s) "
                       "applied)\n",
                       rules_reordered);
        s += plan.to_string();
    }
    return s;
}

} // namespace pmill
