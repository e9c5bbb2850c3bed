#include "src/telemetry/export.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/common/log.hh"
#include "src/telemetry/sampler.hh"

namespace pmill {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "0";
    return strprintf("%.10g", v);
}

bool
json_is_numeric(const std::string &s)
{
    if (s.empty())
        return false;
    // strtod accepts "inf"/"nan"/hex floats; restrict to plain
    // decimal so the output stays standard JSON.
    for (char c : s)
        if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
              c == '-' || c == '+' || c == 'e' || c == 'E'))
            return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size() && std::isfinite(v);
}

namespace {

/** @p s as a JSON value: bare when json_is_numeric(), else a string. */
std::string
json_cell(const std::string &s)
{
    return json_is_numeric(s) ? s : '"' + json_escape(s) + '"';
}

} // namespace

JsonLine::JsonLine(std::ostream &os) : os_(os)
{
    os_ << '{';
}

std::ostream &
JsonLine::key(const std::string &k)
{
    os_ << (first_ ? "\"" : ",\"") << json_escape(k) << "\":";
    first_ = false;
    return os_;
}

JsonLine &
JsonLine::str(const std::string &k, const std::string &v)
{
    key(k) << '"' << json_escape(v) << '"';
    return *this;
}

JsonLine &
JsonLine::num(const std::string &k, double v)
{
    key(k) << json_number(v);
    return *this;
}

JsonLine &
JsonLine::int64(const std::string &k, std::int64_t v)
{
    key(k) << v;
    return *this;
}

JsonLine &
JsonLine::uint64(const std::string &k, std::uint64_t v)
{
    key(k) << v;
    return *this;
}

JsonLine &
JsonLine::boolean(const std::string &k, bool v)
{
    key(k) << (v ? "true" : "false");
    return *this;
}

JsonLine &
JsonLine::cell(const std::string &k, const std::string &v)
{
    key(k) << json_cell(v);
    return *this;
}

JsonLine &
JsonLine::strings(const std::string &k, const std::vector<std::string> &v)
{
    key(k) << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os_ << (i ? ",\"" : "\"") << json_escape(v[i]) << '"';
    os_ << ']';
    return *this;
}

void
JsonLine::end()
{
    os_ << "}\n";
}

void
export_jsonl(const Timeline &tl, std::ostream &os)
{
    for (const TimelineRow &r : tl.rows) {
        PMILL_ASSERT(r.values.size() == tl.columns.size(),
                     "timeline row has %zu values for %zu columns",
                     r.values.size(), tl.columns.size());
        JsonLine line(os);
        line.str("type", "sample").num("t_us", r.t_us).num("dt_us", r.dt_us);
        if (r.partial)
            line.boolean("partial", true);
        for (std::size_t c = 0; c < tl.columns.size(); ++c)
            line.num(tl.columns[c], r.values[c]);
        line.end();
    }
}

namespace {

/** A read position in one line of JSON text. */
struct Cursor {
    const std::string &s;
    std::size_t i = 0;

    /** The next non-blank character; '\0' at the end. */
    char
    peek()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        return i < s.size() ? s[i] : '\0';
    }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++i;
        return true;
    }

    /** A string literal, unescaped into @p out. */
    bool
    string(std::string *out)
    {
        static const std::string kEscapes = "\"\\/bfnrt";
        static const std::string kBytes = "\"\\/\b\f\n\r\t";
        if (!eat('"'))
            return false;
        for (out->clear(); i < s.size() && s[i] != '"'; ++i) {
            if (s[i] != '\\') {
                *out += s[i];
            } else if (++i < s.size() && kEscapes.find(s[i]) != kEscapes.npos) {
                *out += kBytes[kEscapes.find(s[i])];
            } else {
                // \u00XX: the writer escapes only control bytes this way.
                unsigned byte = 0;
                const char *hex = s.data() + i + 1;
                if (i + 5 > s.size() || s[i] != 'u' ||
                    std::from_chars(hex, hex + 4, byte, 16).ptr != hex + 4 ||
                    byte > 0x7f)
                    return false;
                *out += static_cast<char>(byte);
                i += 4;
            }
        }
        return eat('"');
    }

    /** A list of string literals. */
    bool
    strings(std::vector<std::string> *out)
    {
        if (!eat('['))
            return false;
        if (eat(']'))
            return true;
        do {
            out->emplace_back();
            if (!string(&out->back()))
                return false;
        } while (eat(','));
        return eat(']');
    }
};

/** @p text in full as a decimal integer. */
template <typename T>
bool
parse_integer(const std::string &text, T *out)
{
    const char *end = text.data() + text.size();
    const auto [at, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && at == end;
}

} // namespace

bool
parse_json_object_line(const std::string &line,
                       std::map<std::string, std::string> *out)
{
    out->clear();
    Cursor c{line};
    if (!c.eat('{'))
        return false;
    if (!c.eat('}')) {
        do {
            std::string key, val;
            std::vector<std::string> list;
            if (!c.string(&key) || !c.eat(':'))
                return false;
            const char next = c.peek();
            const std::size_t start = c.i;
            if (next == '"') {
                if (!c.string(&val))
                    return false;
            } else {
                // A list of strings keeps its text; a bare token
                // (number, true, false, null) runs to a delimiter.
                if (next == '[' && !c.strings(&list))
                    return false;
                while (next != '[' && c.i < line.size() &&
                       !std::strchr(",} \t\r\n", line[c.i]))
                    ++c.i;
                val = line.substr(start, c.i - start);
                if (val.empty())
                    return false;
            }
            (*out)[key] = std::move(val);
        } while (c.eat(','));
        if (!c.eat('}'))
            return false;
    }
    return c.peek() == '\0' && c.i == line.size();
}

std::string
JsonFields::str(const std::string &key, std::string def) const
{
    const auto it = obj_.find(key);
    return it == obj_.end() ? def : it->second;
}

double
JsonFields::num(const std::string &key, double def)
{
    return read(key, def, [](const std::string &text, double *v) {
        *v = std::strtod(text.c_str(), nullptr);
        return json_is_numeric(text);
    });
}

std::int64_t
JsonFields::int64(const std::string &key, std::int64_t def)
{
    return read(key, def, parse_integer<std::int64_t>);
}

std::uint64_t
JsonFields::uint64(const std::string &key, std::uint64_t def)
{
    return read(key, def, parse_integer<std::uint64_t>);
}

std::vector<std::string>
JsonFields::strings(const std::string &key)
{
    return read(key, std::vector<std::string>{},
                [](const std::string &text, std::vector<std::string> *v) {
                    Cursor c{text};
                    return c.strings(v) && c.peek() == '\0';
                });
}

std::vector<std::uint64_t>
JsonFields::uint64_list(const std::string &key)
{
    return read(key, std::vector<std::uint64_t>{},
                [](const std::string &text, std::vector<std::uint64_t> *v) {
                    std::istringstream items(text);
                    for (std::string item; std::getline(items, item, ',');) {
                        v->emplace_back();
                        if (!parse_integer(item, &v->back()))
                            return false;
                    }
                    return text.empty() || text.back() != ',';
                });
}

void
JsonFields::reject(const std::string &key)
{
    if (bad_.empty())
        bad_ = key;
}

bool
read_jsonl(std::istream &is,
           const std::function<bool(JsonFields &f, std::string *why)> &on_line,
           std::string *err)
{
    std::string line, why;
    for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
        std::map<std::string, std::string> obj;
        if (line.empty())
            continue;
        if (!parse_json_object_line(line, &obj)) {
            *err = strprintf("line %zu is not a JSON object", lineno);
            return false;
        }
        JsonFields f(obj);
        if (!on_line(f, &why) || !f.bad().empty()) {
            *err = f.bad().empty()
                       ? strprintf("line %zu: %s", lineno, why.c_str())
                       : strprintf("line %zu: malformed value for '%s'",
                                   lineno, f.bad().c_str());
            return false;
        }
    }
    return true;
}

} // namespace pmill
