#include "src/runtime/experiments.hh"


#include "src/common/log.hh"

namespace pmill {

std::string
forwarder_config(std::uint32_t burst)
{
    return strprintf(R"(
// simple forwarder (paper §A.1)
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
input -> EtherMirror -> output;
)",
                     burst);
}

namespace {

const char *kRouterBody = R"(
class :: Classifier(ARP, IP);
rt :: IPLookup(20.0.0.0/8 0, 21.0.0.0/8 0, 22.0.0.0/8 0, 23.0.0.0/8 0,
               10.0.0.0/8 0, 0.0.0.0/0 0);
input -> class;
class [0] -> ARPResponder(10.0.0.1, 02:00:00:00:00:10) -> output;
class [1] -> CheckIPHeader -> rt;
)";

} // namespace

std::string
router_config(std::uint32_t burst)
{
    return strprintf(R"(
// standard router (paper §A.2)
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
%s
rt -> DecIPTTL
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst, kRouterBody);
}

std::string
ids_router_config(std::uint32_t burst)
{
    return strprintf(R"(
// router + IDS + VLAN supplement (paper §A.3)
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
%s
rt -> DecIPTTL
   -> IdsCheck
   -> VLANEncap(VLAN_ID 42)
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst, kRouterBody);
}

std::string
nat_config(std::uint32_t burst)
{
    return strprintf(R"(
// router + NAPT (paper §A.3); stateful cuckoo-hash rewriting
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
%s
rt -> DecIPTTL
   -> Napt(SRCIP 100.0.0.1)
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst, kRouterBody);
}

std::string
nat_aging_config(std::uint32_t burst, std::uint32_t capacity,
                 double idle_timeout_ms)
{
    return strprintf(R"(
// NAPT with bounded flow table + idle-timeout aging
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
%s
rt -> DecIPTTL
   -> Napt(SRCIP 100.0.0.1, CAPACITY %u, IDLE_TIMEOUT_MS %g)
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst, kRouterBody, capacity,
                     idle_timeout_ms);
}

std::string
ids_conntrack_config(std::uint32_t burst, std::uint32_t capacity,
                     double idle_timeout_ms)
{
    return strprintf(R"(
// router + stateful IDS (aged conntrack table)
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
%s
rt -> DecIPTTL
   -> IdsCheck(CONNTRACK %u, IDLE_TIMEOUT_MS %g)
   -> VLANEncap(VLAN_ID 42)
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst, kRouterBody, capacity,
                     idle_timeout_ms);
}

std::string
steered_router_config(std::uint32_t burst)
{
    return strprintf(R"(
// router with software flow steering ahead of the classifier
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
class :: Classifier(ARP, IP);
rt :: IPLookup(20.0.0.0/8 0, 21.0.0.0/8 0, 22.0.0.0/8 0, 23.0.0.0/8 0,
               10.0.0.0/8 0, 0.0.0.0/0 0);
input -> FlowSteer -> class;
class [0] -> ARPResponder(10.0.0.1, 02:00:00:00:00:10) -> output;
class [1] -> CheckIPHeader -> rt;
rt -> DecIPTTL
   -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)",
                     burst);
}

std::string
workpackage_config(std::uint32_t s_mb, std::uint32_t n, std::uint32_t w,
                   std::uint32_t burst)
{
    return strprintf(R"(
// forwarder + WorkPackage(S %u, N %u, W %u) (paper §A.4)
input  :: FromDPDKDevice(PORT 0, BURST %u);
output :: ToDPDKDevice(PORT 0);
input -> WorkPackage(S %u, N %u, W %u) -> EtherMirror -> output;
)",
                     s_mb, n, w, burst, s_mb, n, w);
}

PipelineOpts
opts_vanilla()
{
    return PipelineOpts::vanilla();
}

PipelineOpts
opts_devirtualize()
{
    PipelineOpts o;
    o.devirtualize = true;
    return o;
}

PipelineOpts
opts_constants()
{
    PipelineOpts o;
    o.devirtualize = true;
    o.constants = true;
    return o;
}

PipelineOpts
opts_static_graph()
{
    PipelineOpts o;
    o.static_graph = true;
    return o;
}

PipelineOpts
opts_source_all()
{
    PipelineOpts o;
    o.devirtualize = true;
    o.constants = true;
    o.static_graph = true;
    return o;
}

PipelineOpts
opts_lto_reorder()
{
    PipelineOpts o;
    o.lto = true;
    o.reorder = true;
    return o;
}

PipelineOpts
opts_model(MetadataModel model)
{
    PipelineOpts o;
    o.model = model;
    o.lto = true;  // §4.2 enables LTO in all model comparisons
    return o;
}

PipelineOpts
opts_packetmill()
{
    return PipelineOpts::packetmill();
}

PipelineOpts
opts_l2fwd()
{
    // The DPDK sample app: no modular framework at all — a hard-coded
    // forwarding loop over raw mbufs (Overlaying with no annotations,
    // no dynamic graph, near-zero framework glue).
    PipelineOpts o;
    o.model = MetadataModel::kOverlaying;
    o.framework_scale = 0.12;
    o.batch_link = false;
    o.static_graph = true;
    o.lto = true;
    return o;
}

PipelineOpts
opts_l2fwd_xchg()
{
    // The paper's l2fwd-xchg: the same loop over X-Change buffers
    // with two metadata fields instead of the 128-B rte_mbuf.
    PipelineOpts o = opts_l2fwd();
    o.model = MetadataModel::kXchange;
    return o;
}

PipelineOpts
opts_bess()
{
    // BESS: modular like Click but leaner (array-based batches, no
    // linked lists), Overlaying metadata.
    PipelineOpts o;
    o.model = MetadataModel::kOverlaying;
    o.framework_scale = 0.55;
    o.batch_link = false;
    o.lto = true;
    return o;
}

PipelineOpts
opts_vpp()
{
    // VPP: vector processing (lean batching) but a Copying-like
    // hybrid: mbuf fields are converted into vlib_buffer_t.
    PipelineOpts o;
    o.model = MetadataModel::kOverlaying;
    o.overlay_field_copy = true;
    o.framework_scale = 0.75;
    o.batch_link = false;
    o.lto = true;
    return o;
}

PipelineOpts
opts_fastclick_light()
{
    // FastClick with extra features disabled and Overlaying enabled.
    PipelineOpts o;
    o.model = MetadataModel::kOverlaying;
    o.framework_scale = 0.7;
    o.batch_link = false;  // light build disables linked-list batching
    o.lto = true;
    return o;
}

RunResult
measure(const ExperimentSpec &spec, const Trace &trace)
{
    MachineConfig m;
    m.freq_ghz = spec.freq_ghz;
    m.num_cores = spec.num_cores;
    m.num_nics = spec.num_nics;

    Engine engine(m, spec.config, spec.opts, trace);
    PacketMill::grind(engine);

    RunConfig rc;
    rc.offered_gbps = spec.offered_gbps;
    rc.warmup_us = spec.quality.warmup_us;
    rc.duration_us = spec.quality.duration_us;
    return engine.run(rc);
}

Trace
default_campus_trace()
{
    CampusTraceConfig cfg;
    cfg.num_packets = 4096;
    cfg.num_flows = 1024;
    cfg.seed = 20260705;
    return make_campus_trace(cfg);
}

} // namespace pmill
