#include "src/elements/args.hh"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>

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

} // namespace pmill
