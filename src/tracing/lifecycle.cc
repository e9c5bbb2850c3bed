#include "src/tracing/lifecycle.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>

#include "src/common/log.hh"
#include "src/common/table_printer.hh"
#include "src/telemetry/export.hh"

namespace pmill {

double
PacketLifecycle::pipeline_us() const
{
    double ns = 0;
    for (const LifecycleStage &s : stages)
        ns += s.dur_ns;
    return ns / 1000.0;
}

std::vector<PacketLifecycle>
build_lifecycles(const Tracer &tracer)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::vector<PacketLifecycle> out;

    auto lifecycle_of = [&](std::uint64_t pid) -> PacketLifecycle & {
        auto it = index.find(pid);
        if (it == index.end()) {
            it = index.emplace(pid, out.size()).first;
            out.emplace_back();
            out.back().packet_id = pid;
        }
        return out[it->second];
    };

    const std::size_t n = tracer.size();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = tracer.at(i);
        if (r.packet_id == 0)
            continue;  // batch-scope record
        PacketLifecycle &lc = lifecycle_of(r.packet_id);
        switch (r.kind) {
          case TraceEventKind::kRxPacket:
            lc.rx_ns = r.t_ns;
            lc.len = r.arg;
            lc.have_rx = true;
            break;
          case TraceEventKind::kPacketElement:
            lc.stages.push_back(
                LifecycleStage{r.span, r.t_ns, r.cycles, r.dur_ns});
            break;
          case TraceEventKind::kTx:
            lc.tx_ns = r.t_ns;
            lc.complete = lc.have_rx;
            break;
          case TraceEventKind::kDrop:
            lc.dropped = true;
            break;
          default:
            break;
        }
    }

    std::sort(out.begin(), out.end(),
              [](const PacketLifecycle &a, const PacketLifecycle &b) {
                  return a.packet_id < b.packet_id;
              });
    return out;
}

TailAttribution
attribute_tail(const Tracer &tracer, double threshold_us)
{
    TailAttribution att;
    att.threshold_us = threshold_us;

    const std::vector<PacketLifecycle> lcs = build_lifecycles(tracer);

    // Per-stage accumulation: stage time per packet, split into the
    // all-sampled and the tail population. std::map keys keep span
    // ids deterministic; the synthetic queue/wire stage gets id
    // 0xFFFF so it sorts after all real elements.
    constexpr std::uint16_t kQueueWire = 0xFFFF;
    struct Acc {
        double sum_all = 0;
        double sum_tail = 0;
    };
    std::map<std::uint16_t, Acc> acc;

    for (const PacketLifecycle &lc : lcs) {
        if (!lc.complete)
            continue;
        ++att.num_complete;
        const double lat_us = lc.latency_us();
        const bool tail = lat_us > threshold_us;
        if (tail)
            ++att.num_tail;

        double stage_us_sum = 0;
        for (const LifecycleStage &s : lc.stages) {
            const double us = s.dur_ns / 1000.0;
            stage_us_sum += us;
            Acc &a = acc[s.span];
            a.sum_all += us;
            if (tail)
                a.sum_tail += us;
        }
        // Everything not spent inside an element: RX-ring wait until
        // the poll, driver conversion, TX-ring wait, wire time.
        const double queue_us = std::max(0.0, lat_us - stage_us_sum);
        Acc &q = acc[kQueueWire];
        q.sum_all += queue_us;
        if (tail)
            q.sum_tail += queue_us;
    }

    if (att.num_complete == 0)
        return att;

    double total_excess = 0;
    for (const auto &[span, a] : acc) {
        TailAttribution::Row row;
        row.stage = span == kQueueWire ? std::string("queue/wire")
                                       : tracer.span_name(span);
        row.mean_us_all =
            a.sum_all / static_cast<double>(att.num_complete);
        row.mean_us_tail =
            att.num_tail
                ? a.sum_tail / static_cast<double>(att.num_tail)
                : 0.0;
        row.excess_us = row.mean_us_tail - row.mean_us_all;
        if (row.excess_us > 0)
            total_excess += row.excess_us;
        att.rows.push_back(std::move(row));
    }
    for (TailAttribution::Row &row : att.rows)
        row.share_pct = total_excess > 0 && row.excess_us > 0
                            ? row.excess_us / total_excess * 100.0
                            : 0.0;

    std::stable_sort(att.rows.begin(), att.rows.end(),
                     [](const TailAttribution::Row &a,
                        const TailAttribution::Row &b) {
                         return a.excess_us > b.excess_us;
                     });

    for (const TailAttribution::Row &row : att.rows) {
        if (att.dominant_stage.empty())
            att.dominant_stage = row.stage;
        if (att.dominant_element.empty() && row.stage != "queue/wire")
            att.dominant_element = row.stage;
        if (!att.dominant_stage.empty() && !att.dominant_element.empty())
            break;
    }
    return att;
}

std::vector<std::uint64_t>
burst_occupancy_histogram(const Tracer &tracer, std::uint32_t max_burst)
{
    std::vector<std::uint64_t> hist(max_burst + 1, 0);
    const std::size_t n = tracer.size();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = tracer.at(i);
        if (r.kind != TraceEventKind::kRxBurst)
            continue;
        ++hist[std::min<std::uint32_t>(r.arg, max_burst)];
    }
    return hist;
}

std::string
TailAttribution::to_string() const
{
    std::string out = strprintf(
        "tail-latency attribution: %zu sampled packets, %zu above "
        "p99=%.2f us\n",
        num_complete, num_tail, threshold_us);
    if (num_complete == 0)
        return out + "  (no complete sampled lifecycles in the ring)\n";
    if (num_tail == 0)
        return out + "  (no packets above the threshold)\n";

    TablePrinter t;
    t.header({"stage", "mean us (all)", "mean us (p99+)", "excess us",
              "share"});
    for (const Row &r : rows) {
        t.row({r.stage, strprintf("%.3f", r.mean_us_all),
               strprintf("%.3f", r.mean_us_tail),
               strprintf("%+.3f", r.excess_us),
               strprintf("%.0f%%", r.share_pct)});
    }
    out += t.to_string("where the p99+ packets' extra time went");
    out += strprintf("dominant stage: %s", dominant_stage.c_str());
    if (!dominant_element.empty() && dominant_element != dominant_stage)
        out += strprintf(" (dominant element: %s)",
                         dominant_element.c_str());
    out += "\n";
    return out;
}

void
TailAttribution::write_jsonl(std::ostream &os) const
{
    JsonLine(os)
        .str("type", "tail_attribution").num("threshold_us", threshold_us)
        .uint64("num_complete", num_complete).uint64("num_tail", num_tail)
        .str("dominant_stage", dominant_stage)
        .str("dominant_element", dominant_element).end();
    for (const Row &r : rows)
        JsonLine(os)
            .str("type", "tail_stage").str("stage", r.stage)
            .num("mean_us_all", r.mean_us_all)
            .num("mean_us_tail", r.mean_us_tail)
            .num("excess_us", r.excess_us).num("share_pct", r.share_pct)
            .end();
}

} // namespace pmill
