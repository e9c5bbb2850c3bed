#include "src/elements/args.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/common/log.hh"
#include "src/framework/config_parser.hh"

namespace pmill {

bool
parse_uint(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;  // would wrap
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

bool
parse_double(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v) || v < 0)
        return false;
    *out = v;
    return true;
}

bool
parse_ipv4(const std::string &s, Ipv4Addr *out)
{
    std::uint32_t parts[4];
    int pi = 0;
    std::string cur;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '.') {
            std::uint64_t v;
            if (pi >= 4 || !parse_uint(cur, &v) || v > 255)
                return false;
            parts[pi++] = static_cast<std::uint32_t>(v);
            cur.clear();
        } else {
            cur += s[i];
        }
    }
    if (pi != 4)
        return false;
    *out = Ipv4Addr::make(static_cast<std::uint8_t>(parts[0]),
                          static_cast<std::uint8_t>(parts[1]),
                          static_cast<std::uint8_t>(parts[2]),
                          static_cast<std::uint8_t>(parts[3]));
    return true;
}

bool
parse_mac(const std::string &s, MacAddr *out)
{
    MacAddr m{};
    int bi = 0;
    std::string cur;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == ':') {
            if (bi >= 6 || cur.empty() || cur.size() > 2)
                return false;
            m.bytes[bi++] = static_cast<std::uint8_t>(
                std::strtoul(cur.c_str(), nullptr, 16));
            cur.clear();
        } else if (std::isxdigit(static_cast<unsigned char>(s[i]))) {
            cur += s[i];
        } else {
            return false;
        }
    }
    if (bi != 6)
        return false;
    *out = m;
    return true;
}

bool
parse_route(const std::string &s, Route *out)
{
    // "a.b.c.d/len port"
    const std::size_t slash = s.find('/');
    const std::size_t space = s.find_first_of(" \t", slash);
    if (slash == std::string::npos || space == std::string::npos)
        return false;
    Route r;
    if (!parse_ipv4(s.substr(0, slash), &r.prefix))
        return false;
    std::uint64_t len, port;
    if (!parse_uint(s.substr(slash + 1, space - slash - 1), &len) ||
        len > 32)
        return false;
    const std::size_t pb = s.find_first_not_of(" \t", space);
    if (pb == std::string::npos || !parse_uint(s.substr(pb), &port) ||
        port > 0x7FFF)
        return false;
    r.prefix_len = static_cast<std::uint8_t>(len);
    r.next_hop = static_cast<std::uint16_t>(port);
    *out = r;
    return true;
}

namespace {

/// The shortest %g form of @p v (at least 6 digits) that reads back as
/// exactly @p v, so a printed table parses back to the same values.
std::string
exact_g(double v)
{
    char buf[32];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace

std::string
Param::expects() const
{
    return std::visit(
        [&](auto *t) -> std::string {
            using T = std::remove_pointer_t<decltype(t)>;
            if constexpr (std::is_same_v<T, bool>)
                return "no value";
            else if constexpr (std::is_unsigned_v<T>)
                return strprintf("%san integer in [%llu, %llu]",
                                 or_zero ? "0 or " : "",
                                 static_cast<unsigned long long>(ulo),
                                 static_cast<unsigned long long>(uhi));
            else if constexpr (std::is_same_v<T, double>)
                return strprintf("%sa number in %c%s, %s]",
                                 or_zero ? "0 or " : "",
                                 open_below ? '(' : '[', exact_g(dlo).c_str(),
                                 exact_g(dhi).c_str());
            else if constexpr (std::is_same_v<T, std::string>)
                return choices ? std::string("one of ") + choices : "text";
            else if constexpr (std::is_same_v<T, Ipv4Addr>)
                return "an IPv4 address a.b.c.d";
            else
                return "a MAC address xx:xx:xx:xx:xx:xx";
        },
        target);
}

std::string
Param::value() const
{
    return std::visit(
        [](auto *t) -> std::string {
            using T = std::remove_pointer_t<decltype(t)>;
            if constexpr (std::is_same_v<T, bool>)
                return *t ? "true" : "false";
            else if constexpr (std::is_unsigned_v<T>)
                return std::to_string(*t);
            else if constexpr (std::is_same_v<T, double>)
                return exact_g(*t);
            else if constexpr (std::is_same_v<T, std::string>)
                return *t;
            else
                return t->to_string();
        },
        target);
}

int
choice_index(const char *choices, const std::string &name)
{
    const std::string all = std::string("|") + choices + "|";
    const std::size_t at = all.find("|" + name + "|");
    if (at == std::string::npos || name.find('|') != std::string::npos)
        return -1;
    return static_cast<int>(std::count(all.begin(), all.begin() + at, '|'));
}

const Param *
find_param(std::span<const Param> table, const std::string &name)
{
    for (const Param &p : table)
        if (name == p.name)
            return &p;
    return nullptr;
}

bool
set_param(const Param &p, const std::string &text, std::string *err)
{
    const bool ok = std::visit(
        [&](auto *t) {
            using T = std::remove_pointer_t<decltype(t)>;
            if constexpr (std::is_same_v<T, bool>) {
                if (!text.empty())
                    return false;
                *t = true;
            } else if constexpr (std::is_unsigned_v<T>) {
                std::uint64_t v = 0;
                if (!parse_uint(text, &v) ||
                    ((v < p.ulo || v > p.uhi) && !(p.or_zero && v == 0)))
                    return false;
                *t = static_cast<T>(v);
            } else if constexpr (std::is_same_v<T, double>) {
                double v = 0;
                if (!parse_double(text, &v))
                    return false;
                const bool in_bounds = v >= p.dlo && v <= p.dhi &&
                                       !(p.open_below && v <= p.dlo);
                if (!in_bounds && !(p.or_zero && v == 0))
                    return false;
                *t = v;
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (p.choices && choice_index(p.choices, text) < 0)
                    return false;
                *t = text;
            } else if constexpr (std::is_same_v<T, Ipv4Addr>) {
                return parse_ipv4(text, t);
            } else {
                return parse_mac(text, t);
            }
            return true;
        },
        p.target);
    if (!ok && err)
        *err = std::string(p.name) + " expects " + p.expects() + ", got '" +
               text + "'";
    return ok;
}

bool
set_param(std::span<const Param> table, const std::string &name,
          const std::string &text, std::string *err)
{
    const Param *p = find_param(table, name);
    if (p == nullptr) {
        if (err)
            *err = "unknown key '" + name + "'";
        return false;
    }
    return set_param(*p, text, err);
}

std::string
render_params(std::span<const Param> table)
{
    std::string out;
    for (const Param &p : table) {
        if (!out.empty())
            out += ',';
        out += std::string(p.name) + "=" + p.value();
    }
    return out;
}

bool
configure_keywords(const char *element, const std::vector<std::string> &args,
                   std::span<const Param> keywords, std::string *err,
                   const char *positional)
{
    for (const auto &[kw, val] : parse_keywords(args)) {
        std::string e = "takes no bare value, got '" + val + "'";
        const char *name = kw.empty() ? positional : kw.c_str();
        if (name == nullptr || !set_param(keywords, name, val, &e)) {
            if (err)
                *err = std::string(element) + ": " + e;
            return false;
        }
    }
    return true;
}

} // namespace pmill
