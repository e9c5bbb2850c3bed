#include "src/telemetry/bench_diff.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/common/log.hh"
#include "src/common/table_printer.hh"
#include "src/telemetry/export.hh"

namespace pmill {

bool
is_host_column(const std::string &column)
{
    // Lower-cased alphanumeric tokens: "host_Mpps" -> {host, mpps}.
    std::string tok;
    for (std::size_t i = 0; i <= column.size(); ++i) {
        const unsigned char c = i < column.size() ? column[i] : ' ';
        if (std::isalnum(c)) {
            tok += static_cast<char>(std::tolower(c));
            continue;
        }
        if (tok == "wall" || tok == "host")
            return true;
        tok.clear();
    }
    return false;
}

bool
load_bench_table(const std::string &path, BenchTable *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    *out = BenchTable{};
    std::string why;
    const bool ok = read_jsonl(
        in,
        [&](JsonFields &f, std::string *) {
            const std::string type = f.str("type");
            if (type == "meta") {
                out->bench = f.str("bench");
                out->title = f.str("title");
                out->columns = f.strings("columns");
            } else if (type == "row") {
                std::map<std::string, std::string> cells = f.raw();
                cells.erase("type");
                out->rows.push_back(std::move(cells));
            }
            return true;
        },
        &why);
    if (!ok || out->bench.empty()) {
        *err = path + ": " + (ok ? "no meta line" : why);
        return false;
    }
    return true;
}

std::vector<std::string>
list_bench_artifacts(const std::string &dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!e.is_regular_file())
            continue;
        const std::filesystem::path p = e.path();
        if (p.extension() == ".json")
            names.push_back(p.stem().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

BenchDiffResult
diff_bench_dirs(const std::string &base_dir, const std::string &cur_dir)
{
    BenchDiffResult res;
    const std::vector<std::string> golden = list_bench_artifacts(base_dir);
    if (golden.empty())
        res.errors.push_back(base_dir + ": no golden artifacts");
    for (const std::string &name : list_bench_artifacts(cur_dir))
        if (!std::binary_search(golden.begin(), golden.end(), name))
            res.errors.push_back(name + ": no golden artifact");

    for (const std::string &name : golden) {
        BenchTable base, cur;
        std::string err;
        if (!load_bench_table(base_dir + "/" + name + ".json", &base,
                              &err)) {
            res.errors.push_back(err);
            continue;
        }
        if (!std::filesystem::exists(cur_dir + "/" + name + ".json")) {
            res.missing.push_back(name);
            continue;
        }
        if (!load_bench_table(cur_dir + "/" + name + ".json", &cur,
                              &err)) {
            res.errors.push_back(err);
            continue;
        }
        if (base.columns != cur.columns) {
            auto join = [](const std::vector<std::string> &cols) {
                std::string s;
                for (std::size_t i = 0; i < cols.size(); ++i)
                    s += (i ? ", " : "") + cols[i];
                return s;
            };
            res.errors.push_back(name + ": column list changed (golden: " +
                                 join(base.columns) +
                                 "; current: " + join(cur.columns) + ")");
            continue;
        }
        if (base.rows.size() != cur.rows.size()) {
            res.errors.push_back(strprintf(
                "%s: row count changed (%zu golden, %zu current)",
                name.c_str(), base.rows.size(), cur.rows.size()));
            continue;
        }

        for (const std::string &col : base.columns) {
            const bool host = is_host_column(col);
            for (std::size_t r = 0; r < base.rows.size(); ++r) {
                BenchDiffResult::Cell c;
                c.bench = name;
                c.column = col;
                c.row = r;
                c.host = host;
                if (const auto it = base.rows[r].find(col);
                    it != base.rows[r].end())
                    c.base = it->second;
                if (const auto it = cur.rows[r].find(col);
                    it != cur.rows[r].end())
                    c.cur = it->second;
                if (!host)
                    ++res.num_exact;
                if (c.mismatch())
                    ++res.num_mismatches;
                res.cells.push_back(std::move(c));
            }
        }
    }
    return res;
}

std::string
BenchDiffResult::to_string(bool verbose) const
{
    std::string out = strprintf(
        "bench diff: %zu exact cell(s), %zu mismatch(es); "
        "%zu host cell(s), informational\n",
        num_exact, num_mismatches, cells.size() - num_exact);
    for (const std::string &m : missing)
        out += "  MISSING: " + m + " (golden, not in current run)\n";
    for (const std::string &e : errors)
        out += "  ERROR: " + e + "\n";

    TablePrinter t;
    t.header({"bench", "column", "row", "golden", "current", "change",
              "verdict"});
    // Mismatches first, then host cells; verbose adds every match.
    std::vector<const Cell *> shown;
    for (const Cell &c : cells)
        if (verbose || c.host || c.mismatch())
            shown.push_back(&c);
    std::stable_partition(shown.begin(), shown.end(),
                          [](const Cell *c) { return c->mismatch(); });
    for (const Cell *c : shown) {
        std::string change = "-";
        if (c->host && json_is_numeric(c->base) &&
            json_is_numeric(c->cur)) {
            const double b = std::strtod(c->base.c_str(), nullptr);
            const double v = std::strtod(c->cur.c_str(), nullptr);
            change = strprintf("%+.2f%%",
                               (v - b) / std::max(std::fabs(b), 1e-12) * 100);
        }
        t.row({c->bench, c->column, strprintf("%zu", c->row), c->base,
               c->cur, change,
               c->host ? "info" : c->mismatch() ? "MISMATCH" : "ok"});
    }
    if (t.num_rows())
        out += t.to_string();
    return out;
}

} // namespace pmill
