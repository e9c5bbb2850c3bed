/**
 * @file
 * Parser for the Click configuration language subset PacketMill's
 * experiments use (declarations, connection chains, inline anonymous
 * elements, port selectors, comments):
 *
 *   // a simple forwarder
 *   input  :: FromDPDKDevice(PORT 0, BURST 32);
 *   output :: ToDPDKDevice(PORT 0);
 *   input -> EtherMirror -> output;
 *
 *   class :: Classifier(...);
 *   class [1] -> [0] rt;     // output port 1 to input port 0
 */

#ifndef PMILL_FRAMEWORK_CONFIG_PARSER_HH
#define PMILL_FRAMEWORK_CONFIG_PARSER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pmill {

/** One declared (or anonymous) element in a parsed configuration. */
struct ParsedElement {
    std::string name;        ///< instance name (auto for anonymous)
    std::string class_name;  ///< Click class
    std::vector<std::string> args;  ///< top-level comma-split arguments
};

/** One directed connection between element ports. */
struct ParsedEdge {
    std::uint32_t from = 0;
    std::uint32_t from_port = 0;
    std::uint32_t to = 0;
    std::uint32_t to_port = 0;
};

/** A parsed configuration: elements plus the connection graph. */
struct ParsedGraph {
    std::vector<ParsedElement> elements;
    std::vector<ParsedEdge> edges;

    /** Index of the element named @p name, or -1. */
    int find(const std::string &name) const;

    /** Indices of elements of class @p class_name. */
    std::vector<std::uint32_t> of_class(const std::string &class_name) const;

    /** Successor of (@p elem, @p port), or -1 when unconnected. */
    int next_of(std::uint32_t elem, std::uint32_t port) const;
};

/**
 * Parse @p text. On failure returns false and sets @p err with a
 * line-numbered message.
 */
bool parse_click_config(const std::string &text, ParsedGraph *out,
                        std::string *err);

/**
 * Split a Click argument string on top-level commas, trimming
 * whitespace (nested parentheses/brackets are respected).
 */
std::vector<std::string> split_config_args(const std::string &args);

/**
 * Parse a keyword-style argument list ("PORT 0, BURST 32") into
 * pairs; positional arguments get an empty keyword.
 */
std::vector<std::pair<std::string, std::string>>
parse_keywords(const std::vector<std::string> &args);

} // namespace pmill

#endif // PMILL_FRAMEWORK_CONFIG_PARSER_HH
