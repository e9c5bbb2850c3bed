#include "src/tracing/trace_export.hh"

#include <map>
#include <ostream>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/common/log.hh"
#include "src/telemetry/export.hh"
#include "src/telemetry/sampler.hh"

namespace pmill {

namespace {

/** ts in microseconds of simulated time, sub-ns resolution. */
std::string
ts_us(TimeNs t_ns)
{
    return strprintf("%.4f", t_ns / 1000.0);
}

/** True for a per-scope accounting bucket column (acct_*_cycles). */
bool
is_acct_scope_column(const std::string &name)
{
    for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s)
        if (name == strprintf("acct_%s_cycles", acct_scope_name(s)))
            return true;
    // Per-element buckets.
    return name.rfind("acct_el_", 0) == 0 && name.size() > 15 &&
           name.compare(name.size() - 7, 7, "_cycles") == 0;
}

/**
 * Timeline rows as counter events: one stacked multi-series track for
 * the accounting scope buckets (they tile the core's time, so the
 * stack's envelope is the total), one track per remaining column.
 */
void
append_timeline_counters(const Timeline &tl, TimeNs t0_ns,
                         std::vector<std::string> &events)
{
    std::vector<std::size_t> acct_cols, plain_cols;
    for (std::size_t c = 0; c < tl.columns.size(); ++c) {
        if (is_acct_scope_column(tl.columns[c]))
            acct_cols.push_back(c);
        else
            plain_cols.push_back(c);
    }
    for (const TimelineRow &row : tl.rows) {
        const std::string ts = ts_us(t0_ns + row.t_us * 1000.0);
        if (!acct_cols.empty()) {
            std::string args;
            for (std::size_t c : acct_cols) {
                const std::string &name = tl.columns[c];
                // acct_<series>_cycles -> <series>
                const std::string series =
                    name.substr(5, name.size() - 5 - 7);
                if (!args.empty())
                    args += ",";
                args += strprintf("\"%s\":%s",
                                  json_escape(series).c_str(),
                                  json_number(row.values[c]).c_str());
            }
            events.push_back(strprintf(
                "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,"
                "\"name\":\"acct_cycles\",\"args\":{%s}}",
                ts.c_str(), args.c_str()));
        }
        for (std::size_t c : plain_cols)
            events.push_back(strprintf(
                "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,"
                "\"name\":\"%s\",\"args\":{\"value\":%s}}",
                ts.c_str(), json_escape(tl.columns[c]).c_str(),
                json_number(row.values[c]).c_str()));
    }
}

void
write_chrome_json(const std::vector<std::string> &events, std::ostream &os)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i)
            os << ",";
        os << "\n" << events[i];
    }
    os << "\n]}\n";
}

void
collect_trace_events(const Tracer &tracer, std::vector<std::string> &events)
{
    const std::size_t n = tracer.size();

    // Pass 1: discover cores (thread tracks) and pair up sampled
    // packets' RX/TX so the async track only carries complete pairs.
    std::map<std::uint8_t, bool> cores;
    struct PacketEnds {
        TimeNs rx_ns = 0;
        TimeNs tx_ns = 0;
        std::uint32_t len = 0;
        bool have_rx = false;
        bool have_tx = false;
    };
    std::map<std::uint64_t, PacketEnds> packets;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = tracer.at(i);
        cores[r.core] = true;
        if (r.kind == TraceEventKind::kRxPacket) {
            PacketEnds &p = packets[r.packet_id];
            p.rx_ns = r.t_ns;
            p.len = r.arg;
            p.have_rx = true;
        } else if (r.kind == TraceEventKind::kTx && r.packet_id != 0) {
            PacketEnds &p = packets[r.packet_id];
            p.tx_ns = r.t_ns;
            p.have_tx = true;
        }
    }

    for (const auto &[core, unused] : cores) {
        (void)unused;
        events.push_back(strprintf(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"core %u\"}}",
            core, core));
    }

    // Pass 2: element duration pairs via per-core stacks. An exit
    // whose enter was overwritten (empty stack) is dropped; an enter
    // whose exit fell outside the ring stays unemitted. Either way the
    // output only ever contains matched B/E pairs.
    std::map<std::uint8_t, std::vector<TraceRecord>> open;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = tracer.at(i);
        switch (r.kind) {
          case TraceEventKind::kElementEnter:
            open[r.core].push_back(r);
            break;
          case TraceEventKind::kElementExit: {
            std::vector<TraceRecord> &stack = open[r.core];
            while (!stack.empty() && stack.back().span != r.span)
                stack.pop_back();  // enter lost to overwrite
            if (stack.empty())
                break;
            const TraceRecord enter = stack.back();
            stack.pop_back();
            const std::string name = json_escape(tracer.span_name(r.span));
            events.push_back(strprintf(
                "{\"ph\":\"B\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"%s\",\"cat\":\"element\","
                "\"args\":{\"batch\":%u,\"count\":%u}}",
                enter.core, ts_us(enter.t_ns).c_str(), name.c_str(),
                enter.batch_id, enter.arg));
            events.push_back(strprintf(
                "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"%s\",\"cat\":\"element\","
                "\"args\":{\"cycles\":%s,\"dur_ns\":%s}}",
                r.core, ts_us(r.t_ns).c_str(), name.c_str(),
                json_number(r.cycles).c_str(),
                json_number(r.dur_ns).c_str()));
            break;
          }
          case TraceEventKind::kRxBurst:
            events.push_back(strprintf(
                "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"rx_burst\",\"cat\":\"driver\",\"s\":\"t\","
                "\"args\":{\"count\":%u}}",
                r.core, ts_us(r.t_ns).c_str(), r.arg));
            break;
          case TraceEventKind::kDrop:
            events.push_back(strprintf(
                "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"drop\",\"cat\":\"driver\",\"s\":\"t\","
                "\"args\":{\"reason\":%u}}",
                r.core, ts_us(r.t_ns).c_str(), r.arg));
            break;
          case TraceEventKind::kMempoolGet:
          case TraceEventKind::kMempoolPut:
            events.push_back(strprintf(
                "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                "\"name\":\"%s free\",\"args\":{\"free\":%u}}",
                r.core, ts_us(r.t_ns).c_str(),
                json_escape(tracer.span_name(r.span)).c_str(), r.arg));
            break;
          default:
            break;
        }
    }

    // Async lifecycle track: one "b"/"e" pair per completed sampled
    // packet, ids shared across cores.
    for (const auto &[pid, p] : packets) {
        if (!p.have_rx || !p.have_tx)
            continue;
        events.push_back(strprintf(
            "{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":%s,"
            "\"id\":\"%llu\",\"name\":\"packet\",\"cat\":\"lifecycle\","
            "\"args\":{\"len\":%u}}",
            ts_us(p.rx_ns).c_str(),
            static_cast<unsigned long long>(pid), p.len));
        events.push_back(strprintf(
            "{\"ph\":\"e\",\"pid\":1,\"tid\":0,\"ts\":%s,"
            "\"id\":\"%llu\",\"name\":\"packet\",\"cat\":\"lifecycle\"}",
            ts_us(p.tx_ns).c_str(),
            static_cast<unsigned long long>(pid)));
    }
}

} // namespace

void
export_chrome_trace(const Tracer &tracer, std::ostream &os)
{
    std::vector<std::string> events;
    collect_trace_events(tracer, events);
    write_chrome_json(events, os);
}

void
export_chrome_trace(const Tracer &tracer, const Timeline &tl, TimeNs t0_ns,
                    std::ostream &os)
{
    std::vector<std::string> events;
    collect_trace_events(tracer, events);
    append_timeline_counters(tl, t0_ns, events);
    write_chrome_json(events, os);
}

void
export_trace_jsonl(const Tracer &tracer, std::ostream &os)
{
    const std::size_t n = tracer.size();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = tracer.at(i);
        JsonLine line(os);
        line.str("kind", trace_event_name(r.kind)).num("t_ns", r.t_ns)
            .uint64("core", r.core).uint64("batch", r.batch_id)
            .uint64("packet", r.packet_id)
            .str("span", tracer.span_name(r.span)).uint64("arg", r.arg);
        if (r.cycles != 0 || r.dur_ns != 0)
            line.num("cycles", r.cycles).num("dur_ns", r.dur_ns);
        line.end();
    }
}

} // namespace pmill
