#include "src/mill/verify.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "src/common/log.hh"
#include "src/mill/packet_mill.hh"
#include "src/runtime/engine.hh"

namespace pmill {

namespace {

/** Multiset of emitted frames, keyed by exact bytes. */
using FrameBag = std::map<std::string, std::uint64_t>;

FrameBag
collect(const std::string &config, const PipelineOpts &opts,
        const Trace &trace, double duration_us, std::uint64_t *count,
        const std::function<void(Engine &)> &grind = {})
{
    MachineConfig machine;
    machine.freq_ghz = 3.0;  // fast DUT: neither build should drop
    Engine engine(machine, config, opts, trace);
    if (grind)
        grind(engine);
    else
        PacketMill::grind(engine);

    FrameBag bag;
    std::uint64_t n = 0;
    engine.set_tx_capture(
        [&](const std::uint8_t *data, std::uint32_t len) {
            ++bag[std::string(reinterpret_cast<const char *>(data), len)];
            ++n;
        });

    RunConfig rc;
    rc.offered_gbps = 5.0;  // far below capacity: lossless replay
    rc.warmup_us = 0.0;     // capture from the very first frame
    rc.duration_us = duration_us;
    // Stop arrivals early and let the pipeline drain so both builds
    // see exactly the same arrival set.
    rc.generator_stop_us = duration_us * 0.75;
    engine.run(rc);
    *count = n;
    return bag;
}

/** Fill @p r from the two collected bags (counts already set). */
void
compare_bags(const FrameBag &a, const FrameBag &b, EquivalenceReport *r)
{
    std::uint64_t mismatches = 0;
    std::string first;
    for (const auto &[bytes, cnt] : a) {
        auto it = b.find(bytes);
        const std::uint64_t other = it == b.end() ? 0 : it->second;
        if (other != cnt) {
            mismatches += cnt > other ? cnt - other : other - cnt;
            if (first.empty()) {
                first = strprintf(
                    "frame of %zu bytes emitted %llu times by A but "
                    "%llu times by B",
                    bytes.size(), static_cast<unsigned long long>(cnt),
                    static_cast<unsigned long long>(other));
            }
        }
    }
    for (const auto &[bytes, cnt] : b) {
        if (a.find(bytes) == a.end()) {
            mismatches += cnt;
            if (first.empty()) {
                first = strprintf(
                    "frame of %zu bytes emitted %llu times by B only",
                    bytes.size(), static_cast<unsigned long long>(cnt));
            }
        }
    }

    r->mismatches = mismatches;
    r->equivalent = mismatches == 0 && r->frames_a > 0 && r->frames_b > 0;
    r->detail =
        r->equivalent
            ? strprintf("%llu frames compared, all equal",
                        static_cast<unsigned long long>(r->frames_a))
            : first;
}

} // namespace

EquivalenceReport
verify_equivalence(const std::string &config, const PipelineOpts &opts_a,
                   const PipelineOpts &opts_b, const Trace &trace,
                   double duration_us)
{
    return verify_equivalence(config, opts_a, config, opts_b, trace,
                              duration_us);
}

EquivalenceReport
verify_equivalence(const std::string &config_a, const PipelineOpts &opts_a,
                   const std::string &config_b, const PipelineOpts &opts_b,
                   const Trace &trace, double duration_us)
{
    EquivalenceReport r;
    FrameBag a = collect(config_a, opts_a, trace, duration_us, &r.frames_a);
    FrameBag b = collect(config_b, opts_b, trace, duration_us, &r.frames_b);
    compare_bags(a, b, &r);
    return r;
}

EquivalenceReport
verify_plan(const std::string &config, const PipelineOpts &base_opts,
            const Profile &profile, const Trace &trace, double duration_us)
{
    EquivalenceReport r;
    // Reference: the configuration ground by the default static mill.
    FrameBag a = collect(config, base_opts, trace, duration_us,
                         &r.frames_a);
    // Candidate: the plan fully applied — model and placement folded
    // into the options, burst and rule orders via the guided grind,
    // which plans the burst against the engine's.
    const PipelineOpts plan_opts =
        PlanSearch::search(profile, base_opts, 0).apply_to_opts(base_opts);
    FrameBag b = collect(config, plan_opts, trace, duration_us,
                         &r.frames_b, [&](Engine &engine) {
                             PacketMill::grind(engine, &profile, &base_opts);
                         });
    compare_bags(a, b, &r);
    return r;
}

std::string
EquivalenceReport::to_string() const
{
    return strprintf("equivalence: %s (A emitted %llu, B emitted %llu, "
                     "%llu mismatched) — %s",
                     equivalent ? "PASS" : "FAIL",
                     static_cast<unsigned long long>(frames_a),
                     static_cast<unsigned long long>(frames_b),
                     static_cast<unsigned long long>(mismatches),
                     detail.c_str());
}

} // namespace pmill
