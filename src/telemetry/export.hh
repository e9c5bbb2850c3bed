/**
 * @file
 * JSON Lines, written one way and read one way. Every machine-readable
 * artifact is one flat JSON object per line: bench tables, the stats
 * JSONL (meta, samples, decisions, acct, elements, summary, host),
 * profiles, tail attribution and the trace ring. JsonLine composes
 * each of those lines; parse_json_object_line and JsonFields read
 * them back (bench tables, acct lines, profiles). The Perfetto trace
 * exporter formats its trace events with json_escape and json_number.
 * Human-readable output stays on common/table_printer.
 */

#ifndef PMILL_TELEMETRY_EXPORT_HH
#define PMILL_TELEMETRY_EXPORT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace pmill {

struct Timeline;

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string json_escape(const std::string &s);

/** Format @p v as a JSON number: `%.10g`; NaN and ±inf become 0. */
std::string json_number(double v);

/**
 * True when @p s parses in full as a finite decimal number ("12.3",
 * "-4e5"), i.e.\ it can be emitted as a bare JSON number. "inf",
 * "nan", "1.2x", "85%", and "" are not numeric cells.
 */
bool json_is_numeric(const std::string &s);

/**
 * One JSON object written to a stream key by key; end() closes it and
 * the line: `JsonLine(os).str("type", "x").num("t_us", t).end();`.
 * Numbers go through json_number(), integers exactly.
 */
class JsonLine {
  public:
    explicit JsonLine(std::ostream &os);

    JsonLine &str(const std::string &key, const std::string &v);
    JsonLine &num(const std::string &key, double v);
    JsonLine &int64(const std::string &key, std::int64_t v);
    JsonLine &uint64(const std::string &key, std::uint64_t v);
    JsonLine &boolean(const std::string &key, bool v);
    /** A bench cell: bare when json_is_numeric(), else a string. */
    JsonLine &cell(const std::string &key, const std::string &v);
    JsonLine &strings(const std::string &key,
                      const std::vector<std::string> &v);
    void end();

  private:
    std::ostream &key(const std::string &k);

    std::ostream &os_;
    bool first_ = true;
};

/**
 * Write the timeline as JSON Lines: one
 * `{"type":"sample","t_us":...,"dt_us":...,<column>:<value>,...}`
 * object per sampled interval (`"partial":true` after dt_us on a
 * trailing partial interval).
 */
void export_jsonl(const Timeline &tl, std::ostream &os);

/**
 * Parse one flat JSON object line into @p out: string values
 * unescaped, a list of strings and bare values (numbers, true, false,
 * null) as their raw text.
 * @return false on malformed input.
 */
bool parse_json_object_line(const std::string &line,
                            std::map<std::string, std::string> *out);

/**
 * Strict typed reads of one parsed object. A missing key gives the
 * caller's default. A present value that does not parse in full as
 * the asked type, or a number that is not finite, gives the default
 * too and records its key in bad(); the reader then fails the load
 * naming the line and that key.
 */
class JsonFields {
  public:
    explicit JsonFields(const std::map<std::string, std::string> &obj)
        : obj_(obj)
    {}

    bool has(const std::string &key) const { return obj_.count(key) != 0; }
    std::string str(const std::string &key, std::string def = "") const;
    double num(const std::string &key, double def = 0);
    std::int64_t int64(const std::string &key, std::int64_t def = 0);
    std::uint64_t uint64(const std::string &key, std::uint64_t def = 0);
    std::vector<std::string> strings(const std::string &key);
    /** A string of comma-separated unsigned integers ("1,2,3"). */
    std::vector<std::uint64_t> uint64_list(const std::string &key);

    /** Record @p key as malformed: a value the caller's bounds refuse. */
    void reject(const std::string &key);
    /** The first malformed key; "" when every read succeeded. */
    const std::string &bad() const { return bad_; }
    const std::map<std::string, std::string> &raw() const { return obj_; }

  private:
    template <typename T, typename Parse>
    T
    read(const std::string &key, T def, Parse parse)
    {
        const auto it = obj_.find(key);
        T v = def;
        if (it == obj_.end() || parse(it->second, &v))
            return v;
        reject(key);
        return def;
    }

    const std::map<std::string, std::string> &obj_;
    std::string bad_;
};

/**
 * Read JSON Lines from @p is, handing each non-empty line to
 * @p on_line. Returns false, with @p err (never null) set, at the
 * first line that is not a flat JSON object ("line N is not a JSON
 * object"), on which @p on_line read a malformed value ("line N:
 * malformed value for 'key'"), or for which @p on_line returned false
 * ("line N: " + the message it set).
 */
bool read_jsonl(
    std::istream &is,
    const std::function<bool(JsonFields &f, std::string *why)> &on_line,
    std::string *err);

} // namespace pmill

#endif // PMILL_TELEMETRY_EXPORT_HH
