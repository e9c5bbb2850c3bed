/**
 * @file
 * Registration of the standard element library with the factory
 * registry used by the configuration loader.
 */

#include "src/elements/elements.hh"
#include "src/framework/element.hh"

namespace pmill {

void
register_standard_elements()
{
    ElementRegistry &r = ElementRegistry::instance();
    auto reg = [&r](const char *name, auto maker) { r.add(name, maker); };

    reg("FromDPDKDevice",
        [] { return std::unique_ptr<Element>(new FromDPDKDevice); });
    reg("ToDPDKDevice",
        [] { return std::unique_ptr<Element>(new ToDPDKDevice); });
    reg("EtherMirror",
        [] { return std::unique_ptr<Element>(new EtherMirror); });
    reg("EtherRewrite",
        [] { return std::unique_ptr<Element>(new EtherRewrite); });
    reg("Classifier",
        [] { return std::unique_ptr<Element>(new Classifier); });
    reg("ARPResponder",
        [] { return std::unique_ptr<Element>(new ARPResponder); });
    reg("CheckIPHeader",
        [] { return std::unique_ptr<Element>(new CheckIPHeader); });
    reg("DecIPTTL", [] { return std::unique_ptr<Element>(new DecIPTTL); });
    reg("IPLookup", [] { return std::unique_ptr<Element>(new IPLookup); });
    // Click's standard router uses LookupIPRouteMP / RadixIPLookup;
    // accept those names as aliases of the DIR-24-8 implementation.
    reg("LookupIPRoute",
        [] { return std::unique_ptr<Element>(new IPLookup); });
    reg("RadixIPLookup",
        [] { return std::unique_ptr<Element>(new IPLookup); });
    reg("IdsCheck", [] { return std::unique_ptr<Element>(new IdsCheck); });
    reg("VLANEncap", [] { return std::unique_ptr<Element>(new VlanEncap); });
    reg("Napt", [] { return std::unique_ptr<Element>(new Napt); });
    reg("IPRewriter", [] { return std::unique_ptr<Element>(new Napt); });
    reg("WorkPackage",
        [] { return std::unique_ptr<Element>(new WorkPackage); });
    reg("FlowSteer",
        [] { return std::unique_ptr<Element>(new FlowSteer); });
    reg("Counter", [] { return std::unique_ptr<Element>(new Counter); });
    reg("Discard", [] { return std::unique_ptr<Element>(new Discard); });
}

} // namespace pmill
