/**
 * @file
 * Parsing of named inputs: the scalar parsers, and the parameter tables
 * that pmill_run's flags, WorkloadSpec's keys and the element keywords
 * are declared in.
 */

#ifndef PMILL_ELEMENTS_ARGS_HH
#define PMILL_ELEMENTS_ARGS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/net/headers.hh"
#include "src/table/lpm.hh"

namespace pmill {

/** Parse an unsigned integer; false on garbage or above 2^64 - 1. */
bool parse_uint(const std::string &s, std::uint64_t *out);

/** Parse a finite, non-negative decimal number; false on garbage. */
bool parse_double(const std::string &s, double *out);

/** Parse dotted-quad IPv4. */
bool parse_ipv4(const std::string &s, Ipv4Addr *out);

/** Parse colon-separated MAC. */
bool parse_mac(const std::string &s, MacAddr *out);

/** Parse "a.b.c.d/len port" into a Route. */
bool parse_route(const std::string &s, Route *out);

/**
 * One named input: a typed target, its bounds and one help line. A
 * table of these is the whole declaration of an input surface;
 * set_param() parses, bounds and reports errors for every entry the
 * same way, and render_params() prints the table back.
 */
struct Param {
    using Target =
        std::variant<std::uint16_t *, std::uint32_t *, std::uint64_t *,
                     double *, bool *, std::string *, Ipv4Addr *, MacAddr *>;

    /**
     * An integer in [lo, hi], clamped to what @p target can hold;
     * @p or_zero admits 0 as well (a value that turns the input off).
     */
    template <typename T>
        requires std::is_unsigned_v<T> && (!std::is_same_v<T, bool>)
    Param(const char *n, T *target, std::uint64_t lo, std::uint64_t hi,
          const char *h, bool or_zero = false)
        : name(n), target(target), help(h), ulo(lo),
          uhi(std::min<std::uint64_t>(hi, std::numeric_limits<T>::max())),
          or_zero(or_zero)
    {
    }

    /**
     * A finite number in [lo, hi], or in (lo, hi] if @p open_below;
     * @p or_zero admits 0 as well.
     */
    Param(const char *n, double *target, double lo, double hi,
          const char *h, bool open_below = false, bool or_zero = false)
        : name(n), target(target), help(h), or_zero(or_zero), dlo(lo),
          dhi(hi), open_below(open_below)
    {
    }

    /**
     * A bare flag (present means true), an address, or any text; a
     * text must be one of the '|'-separated @p choices if given.
     */
    template <typename T>
        requires(!std::is_arithmetic_v<T> || std::is_same_v<T, bool>)
    Param(const char *n, T *target, const char *h,
          const char *choices = nullptr)
        : name(n), target(target), help(h), choices(choices)
    {
    }

    /** What a value must be, e.g. "an integer in [1, 64]". */
    std::string expects() const;

    /** The target's current value, as set_param() reads it back. */
    std::string value() const;

    bool is_flag() const { return std::holds_alternative<bool *>(target); }

    const char *name;
    Target target;
    const char *help;
    std::uint64_t ulo = 0, uhi = 0;
    bool or_zero = false;
    double dlo = 0, dhi = 0;
    bool open_below = false;
    const char *choices = nullptr;
};

/** Position of @p name in the '|'-separated @p choices, or -1. */
int choice_index(const char *choices, const std::string &name);

/** The entry of @p table called @p name, or nullptr. */
const Param *find_param(std::span<const Param> table,
                        const std::string &name);

/**
 * Decode @p text into @p p 's target. On a value that does not parse,
 * does not fit the target or falls outside the bounds, leave the
 * target as it was and set @p err to
 * "<name> expects <what>, got '<text>'".
 */
bool set_param(const Param &p, const std::string &text, std::string *err);

/** Look @p name up in @p table, then set_param(); unknown names fail. */
bool set_param(std::span<const Param> table, const std::string &name,
               const std::string &text, std::string *err);

/** "name=value" for every entry of @p table, joined by ','. */
std::string render_params(std::span<const Param> table);

/**
 * Configure an element from its Click arguments: each "KEYWORD value"
 * goes through set_param() on @p keywords, and a bare value fills the
 * keyword named @p positional (nullptr: the element takes none).
 * Errors are prefixed with @p element.
 */
bool configure_keywords(const char *element,
                        const std::vector<std::string> &args,
                        std::span<const Param> keywords, std::string *err,
                        const char *positional = nullptr);

} // namespace pmill

#endif // PMILL_ELEMENTS_ARGS_HH
