/**
 * @file
 * Pipeline: an instantiated element graph plus its execution engine.
 *
 * The executor models the two graph implementations the paper
 * contrasts:
 *  - the vanilla *dynamic* graph, whose elements were heap-allocated
 *    at config-parse time (scattered pages, pointer-chased per
 *    packet, virtual dispatch at every boundary), and
 *  - the *static* graph produced by PacketMill's source-code pass
 *    (elements contiguous in a static arena, connections known to the
 *    compiler, calls fully inlined).
 *
 * Which costs apply is driven by PipelineOpts; the functional
 * behaviour is identical by construction, mirroring the paper's
 * semantics-preserving optimizations.
 */

#ifndef PMILL_FRAMEWORK_PIPELINE_HH
#define PMILL_FRAMEWORK_PIPELINE_HH

#include <memory>
#include <string>
#include <vector>

#include "src/framework/config_parser.hh"
#include "src/framework/element.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/mem/sim_memory.hh"

namespace pmill {

class Tracer;

/** What the executor counts per element. */
struct ElementCounts {
    std::uint64_t packets = 0;  ///< packets entering the element
    std::uint64_t batches = 0;  ///< invocations
};

class Pipeline {
  public:
    /**
     * Parse @p config_text, instantiate and configure all elements,
     * place their state (static arena vs. scattered heap per
     * @p opts.static_graph), and initialize them.
     * @return nullptr with @p err set on any configuration error.
     */
    static std::unique_ptr<Pipeline> build(const std::string &config_text,
                                           SimMemory &mem,
                                           const PipelineOpts &opts,
                                           std::string *err);

    /**
     * Run @p batch from the source's successor through the graph.
     * On return, @p batch holds the surviving packets (those that
     * reached a ToDPDKDevice), with out_port set to the egress
     * device port.
     */
    void process(PacketBatch &batch, ExecContext &ctx);

    /** Element by configuration name; nullptr when absent. */
    Element *find(const std::string &name) const;

    /** First element of class @p class_name; nullptr when absent. */
    Element *find_class(const std::string &class_name) const;

    /** The metadata layout this pipeline's packets use. */
    const MetadataLayout &layout() const { return layout_; }

    /**
     * Swap in a (reordered) layout. All element views route through
     * the pipeline's layout, so this is transparent.
     */
    void set_layout(const MetadataLayout &l);

    const PipelineOpts &opts() const { return opts_; }
    const ParsedGraph &parsed() const { return parsed_; }

    /** RX burst size from the FromDPDKDevice configuration. */
    std::uint32_t burst() const;

    /** All elements, in configuration order. */
    std::vector<Element *> elements() const;

    /** Packets dropped inside the graph. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Packets and invocations per element, indexed like elements().
     * Where the element's cycles went is in the core's ledger, under
     * its kAcctElementBase + index scope.
     */
    const std::vector<ElementCounts> &element_counts() const
    {
        return elem_counts_;
    }

    /** Zero the per-element counters (measurement-window alignment). */
    void reset_element_counts();

    /**
     * Toggle per-rule hit counting on every element that exposes
     * rules (Classifier patterns, IPLookup routes). Profiling costs
     * nothing in the simulated machine but is off by default so
     * ordinary runs don't accumulate stale counts.
     */
    void set_rule_profiling(bool on);

    /**
     * Attach the engine's tracer (nullptr detaches). Interns one span
     * per element so record sites stay integer-only.
     */
    void set_tracer(Tracer *t);

  private:
    Pipeline() = default;

    void run_from(int idx, PacketBatch &batch, ExecContext &ctx,
                  PacketBatch &out);

    /** Successor of (@p idx, @p port) from the precomputed table. */
    int
    successor(int idx, std::uint32_t port) const
    {
        const auto &s = succ_[static_cast<std::size_t>(idx)];
        return port < s.size() ? s[port] : -1;
    }

    ParsedGraph parsed_;
    std::vector<std::unique_ptr<Element>> instances_;
    MetadataLayout layout_;
    PipelineOpts opts_;
    int source_ = -1;  ///< FromDPDKDevice element index
    int entry_ = -1;   ///< first element after the source

    /// Fragmented-heap region pointer-chased per packet by the
    /// dynamic graph (absent when static_graph).
    MemHandle frag_;
    std::uint64_t frag_cursor_ = 0;

    std::uint64_t dropped_ = 0;
    std::vector<ElementCounts> elem_counts_;

    /// Host-side dispatch accelerators, resolved once at build time so
    /// the per-batch executor does no RTTI and no edge-list scans:
    /// is_tx_[i] marks ToDPDKDevice elements (replaces a dynamic_cast
    /// per element invocation); succ_[i][port] is the successor index
    /// (-1 when unconnected).
    std::vector<std::uint8_t> is_tx_;
    std::vector<std::vector<int>> succ_;

    Tracer *tracer_ = nullptr;
    bool tron_ = false;  ///< tracing live for the current process()
    std::uint32_t trace_batch_ = 0;  ///< current pipeline-invocation id
    std::vector<std::uint16_t> trace_spans_;  ///< per-element span ids
};

} // namespace pmill

#endif // PMILL_FRAMEWORK_PIPELINE_HH
