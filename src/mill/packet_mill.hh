/**
 * @file
 * PacketMill: the optimization driver (the paper's §3).
 *
 * Given an NF configuration and a set of enabled passes, PacketMill
 * "grinds" the whole stack:
 *
 *  - source-code passes (§3.2.1): devirtualization, constant
 *    embedding, and the static graph — these are encoded in
 *    PipelineOpts and take effect when the pipeline is built;
 *  - the X-Change metadata model (§3.1) — selected via
 *    PipelineOpts::model;
 *  - the IR-level metadata reordering pass (§3.2.2) — implemented
 *    here: a reference scan over the element graph and the datapath's
 *    conversion writes yields per-field access counts, hot fields are
 *    packed first (the paper's GEPI-rewriting pass equivalent), and
 *    the pipeline's layout is swapped, transparently to all elements.
 *
 * Like the paper's pass, reordering is applied to the Copying model's
 * Packet class only, and the 48-B user-annotation area moves as one
 * opaque unit (a single class member cannot be split by reordering).
 */

#ifndef PMILL_MILL_PACKET_MILL_HH
#define PMILL_MILL_PACKET_MILL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/framework/metadata.hh"
#include "src/framework/pipeline.hh"
#include "src/mill/profile.hh"

namespace pmill {

class Engine;

/** Per-field reference counts from the static reference scan. */
struct FieldUsage {
    std::array<std::uint64_t, kNumFields> reads{};
    std::array<std::uint64_t, kNumFields> writes{};

    std::uint64_t
    total(Field f) const
    {
        const auto i = static_cast<std::size_t>(f);
        return reads[i] + writes[i];
    }
};

/** What the mill did, for logging and the bench reports. */
struct MillReport {
    std::uint32_t num_elements = 0;
    std::uint32_t num_edges = 0;
    bool devirtualized = false;
    bool constants_embedded = false;
    bool static_graph = false;
    bool lto = false;
    bool reordered = false;
    std::uint32_t layout_lines_before = 0;  ///< lines the hot fields span
    std::uint32_t layout_lines_after = 0;
    std::vector<Field> hot_order;  ///< chosen field order (hot first)

    /// @name Profile-guided grind (set when a Profile was supplied).
    /// @{
    bool profile_guided = false;
    std::uint32_t rules_reordered = 0;  ///< elements with a new order
    Plan plan;  ///< the searched plan (incl.\ build-time decisions)
    /// @}

    std::string to_string() const;
};

/**
 * Scan the pipeline's elements (their declared access profiles) plus
 * the datapath conversion writes for references to metadata fields —
 * the stand-in for the paper's LLVM pass scanning GEPI references in
 * the whole-program bitcode.
 *
 * With a @p profile, each element's references are weighted by its
 * measured packet count (and the conversion paths by the hottest
 * element's), so fields touched on the measured-hot path outrank
 * fields the static scan alone would tie.
 */
FieldUsage scan_field_references(const Pipeline &pipeline,
                                 const Profile *profile = nullptr);

/** Hot-first field ordering from a usage scan (stable for ties). */
std::vector<Field> hot_field_order(const FieldUsage &usage);

/**
 * The reordering pass: produce a layout for the Copying Packet class
 * with hot scalar fields packed from offset 0 and the annotation
 * area moved as a unit.
 */
MetadataLayout reorder_packet_layout(const MetadataLayout &base,
                                     const FieldUsage &usage);

/** The PacketMill driver. */
class PacketMill {
  public:
    /**
     * Apply the IR-level passes to every core pipeline of @p engine
     * (the source-level passes were applied at build time through
     * PipelineOpts) and return the build report.
     *
     * With a @p profile from a capture run, the grind additionally
     * consumes a PlanSearch plan, searched against @p base (the options
     * before Plan::apply_to_opts; null: the engine's) and the burst
     * the engine runs: a smaller planned burst becomes every core's RX
     * burst, measured-hot-first rule orders are applied in place and
     * the field-reordering scan is weighted by measured element heat.
     * The plan's build-time decisions (metadata model, state placement)
     * are returned in the report's plan, for the caller to fold into
     * the engine build via Plan::apply_to_opts.
     */
    static MillReport grind(Engine &engine, const Profile *profile = nullptr,
                            const PipelineOpts *base = nullptr);

    /** Report-only variant for a single pipeline. */
    static MillReport analyze(Pipeline &pipeline, bool apply_reorder);
};

} // namespace pmill

#endif // PMILL_MILL_PACKET_MILL_HH
