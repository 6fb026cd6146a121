/**
 * @file
 * rumba-stat: offline companion to the obs/ subsystem. Reads what a
 * rumba process exports, summarizes one run, and gates a candidate
 * against a baseline so CI can refuse telemetry regressions.
 *
 *   rumba-stat summary <dump.jsonl>...
 *   rumba-stat diff <baseline.jsonl> <candidate.jsonl>
 *       [--tol <rel>] [--tol-metric name=<rel>] [--include-latency]
 *   rumba-stat scrape <target> [--check] [--baseline <dump>]
 *       [--tol <rel>] [--tol-metric name=<rel>] [--include-latency]
 *   rumba-stat profile <target> [--baseline <profilez.json>]
 *       [--tol <rel>]
 *   rumba-stat tsdb <target> [--baseline <tsdbz.json>]
 *   rumba-stat incident <target> [--baseline <incidentz.json>]
 *   rumba-stat audit <audit.jsonl> [--baseline <audit.jsonl>]
 *       [--tol <abs>] [--worst <K>]
 *   rumba-stat scenarios <scenarios.jsonl>
 *       [--baseline <scenarios.jsonl>]
 *
 * summary and diff read RUMBA_METRICS_OUT metric dumps and
 * RUMBA_STREAM_OUT sample streams. scrape reads the Prometheus text a
 * live process serves at /metrics (obs/http_exporter.h), recovering
 * the dotted registry names from the name="..." labels; --check on a
 * live target also validates /buildz, /profilez, /tsdbz and
 * /incidentz. profile, tsdb and incident read those routes' JSON
 * bodies; audit reads RUMBA_AUDIT_OUT labeled dumps; scenarios reads
 * the tools/rumba_scenarios matrix dump (RUMBA_SCENARIO_OUT). A
 * <target> is http://host:port[/path], host:port, or a saved file.
 * Usage() spells out what each --baseline gate compares.
 *
 * Exit codes: 0 = ok / no regression, 1 = regression detected,
 * 2 = usage, load, fetch, or format-validation error (including
 * schema-version mismatch).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON-line parser: handles exactly the flat (one level of
// nesting for stream samples) objects our own exporters emit. Not a
// general JSON parser; unknown constructs fail the line loudly.
// ---------------------------------------------------------------------------

/** One parsed JSON scalar. */
struct JsonValue {
    enum class Kind { kNumber, kString, kBool } kind = Kind::kNumber;
    double number = 0.0;
    std::string text;
};

/** A parsed line: scalars at the top level plus "prefix.key" for the
 *  one nested level stream samples use ("counters", "gauges",
 *  "trace"). */
using JsonObject = std::map<std::string, JsonValue>;

void
SkipSpace(const std::string& s, size_t* i)
{
    while (*i < s.size() &&
           (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\r'))
        ++*i;
}

bool
ParseString(const std::string& s, size_t* i, std::string* out)
{
    if (*i >= s.size() || s[*i] != '"')
        return false;
    ++*i;
    out->clear();
    while (*i < s.size() && s[*i] != '"') {
        char c = s[*i];
        if (c == '\\' && *i + 1 < s.size()) {
            ++*i;
            switch (s[*i]) {
              case '"': c = '"'; break;
              case '\\': c = '\\'; break;
              case '/': c = '/'; break;
              case 'b': c = '\b'; break;
              case 'f': c = '\f'; break;
              case 'n': c = '\n'; break;
              case 'r': c = '\r'; break;
              case 't': c = '\t'; break;
              case 'u': {
                // Only \u00XX is ever emitted; decode the low byte.
                if (*i + 4 >= s.size())
                    return false;
                c = static_cast<char>(
                    std::strtol(s.substr(*i + 1, 4).c_str(), nullptr,
                                16));
                *i += 4;
                break;
              }
              default: return false;
            }
        }
        out->push_back(c);
        ++*i;
    }
    if (*i >= s.size())
        return false;
    ++*i;  // closing quote.
    return true;
}

bool
ParseValue(const std::string& s, size_t* i, const std::string& prefix,
           const std::string& key, JsonObject* out);

bool
ParseObject(const std::string& s, size_t* i, const std::string& prefix,
            JsonObject* out)
{
    if (*i >= s.size() || s[*i] != '{')
        return false;
    ++*i;
    SkipSpace(s, i);
    if (*i < s.size() && s[*i] == '}') {
        ++*i;
        return true;
    }
    for (;;) {
        SkipSpace(s, i);
        std::string key;
        if (!ParseString(s, i, &key))
            return false;
        SkipSpace(s, i);
        if (*i >= s.size() || s[*i] != ':')
            return false;
        ++*i;
        SkipSpace(s, i);
        if (!ParseValue(s, i, prefix, key, out))
            return false;
        SkipSpace(s, i);
        if (*i >= s.size())
            return false;
        if (s[*i] == ',') {
            ++*i;
            continue;
        }
        if (s[*i] == '}') {
            ++*i;
            return true;
        }
        return false;
    }
}

bool
ParseValue(const std::string& s, size_t* i, const std::string& prefix,
           const std::string& key, JsonObject* out)
{
    const std::string full = prefix.empty() ? key : prefix + "." + key;
    JsonValue v;
    if (*i >= s.size())
        return false;
    const char c = s[*i];
    if (c == '"') {
        v.kind = JsonValue::Kind::kString;
        if (!ParseString(s, i, &v.text))
            return false;
    } else if (c == '{') {
        // One nested level: flatten as "key.subkey".
        return ParseObject(s, i, full, out);
    } else if (s.compare(*i, 4, "true") == 0) {
        v.kind = JsonValue::Kind::kBool;
        v.number = 1.0;
        *i += 4;
    } else if (s.compare(*i, 5, "false") == 0) {
        v.kind = JsonValue::Kind::kBool;
        v.number = 0.0;
        *i += 5;
    } else {
        char* end = nullptr;
        v.number = std::strtod(s.c_str() + *i, &end);
        if (end == s.c_str() + *i)
            return false;
        *i = static_cast<size_t>(end - s.c_str());
    }
    (*out)[full] = v;
    return true;
}

bool
ParseJsonLine(const std::string& line, JsonObject* out)
{
    size_t i = 0;
    SkipSpace(line, &i);
    if (!ParseObject(line, &i, "", out))
        return false;
    SkipSpace(line, &i);
    return i == line.size() || line[i] == '\n';
}

// ---------------------------------------------------------------------------
// Dump model: one loaded metrics or stream file.
// ---------------------------------------------------------------------------

/** Histogram summary row from a metrics dump. */
struct HistogramStats {
    double count = 0, sum = 0, min = 0, max = 0, p50 = 0, p90 = 0,
           p99 = 0;
};

/** Everything rumba-stat extracts from one dump file. */
struct Dump {
    std::string path;
    bool has_meta = false;
    long schema_version = -1;
    std::string wall_time, hostname, build_type, sanitizers;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;
    /** Threshold trajectory: per-invocation from trace lines, or
     *  per-sample from stream lines — whichever the file carries. */
    std::vector<double> thresholds;
    size_t samples = 0;      ///< stream "sample" lines seen.
    size_t trace_lines = 0;  ///< metrics "trace" lines seen.
};

double
Field(const JsonObject& obj, const std::string& key, double fallback = 0)
{
    const auto it = obj.find(key);
    return it == obj.end() ? fallback : it->second.number;
}

std::string
TextField(const JsonObject& obj, const std::string& key)
{
    const auto it = obj.find(key);
    return it == obj.end() ? "" : it->second.text;
}

/** One "type,name,value,sum,min,max,p50,p90,p99,notes" CSV row. */
bool
LoadCsvRow(const std::string& line, Dump* dump)
{
    std::vector<std::string> cells;
    std::string cell;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(cell);
            cell.clear();
        } else {
            cell.push_back(c);
        }
    }
    cells.push_back(cell);
    if (cells.size() < 3)
        return false;
    const std::string& type = cells[0];
    if (type == "type")
        return true;  // header row.
    const std::string& name = cells[1];
    if (type == "counter") {
        dump->counters[name] = std::strtod(cells[2].c_str(), nullptr);
    } else if (type == "gauge") {
        dump->gauges[name] = std::strtod(cells[2].c_str(), nullptr);
    } else if (type == "histogram" && cells.size() >= 9) {
        HistogramStats h;
        h.count = std::strtod(cells[2].c_str(), nullptr);
        h.sum = std::strtod(cells[3].c_str(), nullptr);
        h.min = std::strtod(cells[4].c_str(), nullptr);
        h.max = std::strtod(cells[5].c_str(), nullptr);
        h.p50 = std::strtod(cells[6].c_str(), nullptr);
        h.p90 = std::strtod(cells[7].c_str(), nullptr);
        h.p99 = std::strtod(cells[8].c_str(), nullptr);
        dump->histograms[name] = h;
    }
    return true;  // unknown row types are forward-compatible.
}

/** Load a metrics/stream JSONL dump or a ".csv" metrics dump.
 *  Returns false on I/O or parse failure (diagnostic on stderr). */
bool
LoadDump(const std::string& path, Dump* dump)
{
    dump->path = path;
    const bool csv =
        path.size() >= 4 &&
        path.compare(path.size() - 4, 4, ".csv") == 0;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // CSV dumps carry the meta header as a "# " comment.
        if (line[0] == '#') {
            const size_t brace = line.find('{');
            if (brace == std::string::npos)
                continue;
            line = line.substr(brace);
        } else if (csv) {
            if (!LoadCsvRow(line, dump)) {
                std::fprintf(stderr,
                             "rumba-stat: %s:%zu: bad CSV row\n",
                             path.c_str(), lineno);
                return false;
            }
            continue;
        }
        JsonObject obj;
        if (!ParseJsonLine(line, &obj)) {
            std::fprintf(stderr, "rumba-stat: %s:%zu: bad JSON line\n",
                         path.c_str(), lineno);
            return false;
        }
        const std::string type = TextField(obj, "type");
        if (type == "meta") {
            dump->has_meta = true;
            dump->schema_version =
                static_cast<long>(Field(obj, "schema_version", -1));
            dump->wall_time = TextField(obj, "wall_time");
            dump->hostname = TextField(obj, "hostname");
            dump->build_type = TextField(obj, "build_type");
            dump->sanitizers = TextField(obj, "sanitizers");
        } else if (type == "counter") {
            dump->counters[TextField(obj, "name")] =
                Field(obj, "value");
        } else if (type == "gauge") {
            dump->gauges[TextField(obj, "name")] = Field(obj, "value");
        } else if (type == "histogram") {
            HistogramStats h;
            h.count = Field(obj, "count");
            h.sum = Field(obj, "sum");
            h.min = Field(obj, "min");
            h.max = Field(obj, "max");
            h.p50 = Field(obj, "p50");
            h.p90 = Field(obj, "p90");
            h.p99 = Field(obj, "p99");
            dump->histograms[TextField(obj, "name")] = h;
        } else if (type == "trace") {
            ++dump->trace_lines;
            dump->thresholds.push_back(Field(obj, "threshold"));
        } else if (type == "sample") {
            ++dump->samples;
            // Stream samples carry counter *deltas*; accumulate them
            // into run totals. Gauges are instantaneous; keep latest.
            for (const auto& [key, value] : obj) {
                if (key.rfind("counters.", 0) == 0)
                    dump->counters[key.substr(9)] += value.number;
                else if (key.rfind("gauges.", 0) == 0)
                    dump->gauges[key.substr(7)] = value.number;
            }
            const auto t = obj.find("gauges.tuner.threshold");
            if (t != obj.end())
                dump->thresholds.push_back(t->second.number);
            else if (obj.count("trace.threshold"))
                dump->thresholds.push_back(
                    Field(obj, "trace.threshold"));
        }
        // Unknown types are forward-compatible: ignored.
    }
    return true;
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

void
PrintThresholdTrajectory(const Dump& dump)
{
    if (dump.thresholds.empty()) {
        std::printf("threshold trajectory: (none recorded)\n");
        return;
    }
    double lo = dump.thresholds.front(), hi = lo;
    std::set<double> distinct;
    size_t moves = 0;
    for (size_t i = 0; i < dump.thresholds.size(); ++i) {
        const double t = dump.thresholds[i];
        lo = std::min(lo, t);
        hi = std::max(hi, t);
        distinct.insert(t);
        if (i > 0 && t != dump.thresholds[i - 1])
            ++moves;
    }
    std::printf("threshold trajectory: %zu points, %zu distinct, %zu "
                "moves\n  first %.6g -> last %.6g   (range [%.6g, "
                "%.6g])\n",
                dump.thresholds.size(), distinct.size(), moves,
                dump.thresholds.front(), dump.thresholds.back(), lo,
                hi);
}

int
CmdSummary(const Dump& dump)
{
    std::printf("== %s ==\n", dump.path.c_str());
    if (dump.has_meta) {
        std::printf("meta: schema v%ld, %s on %s, build %s%s%s\n",
                    dump.schema_version, dump.wall_time.c_str(),
                    dump.hostname.c_str(), dump.build_type.c_str(),
                    dump.sanitizers.empty() ? "" : ", sanitizers ",
                    dump.sanitizers.c_str());
    } else {
        std::printf("meta: (no header — pre-v2 dump)\n");
    }
    std::printf("%zu counters, %zu gauges, %zu histograms, %zu trace "
                "lines, %zu stream samples\n\n",
                dump.counters.size(), dump.gauges.size(),
                dump.histograms.size(), dump.trace_lines,
                dump.samples);
    for (const auto& [name, value] : dump.counters)
        std::printf("  counter    %-32s %.0f\n", name.c_str(), value);
    for (const auto& [name, value] : dump.gauges)
        std::printf("  gauge      %-32s %.6g\n", name.c_str(), value);
    for (const auto& [name, h] : dump.histograms) {
        std::printf("  histogram  %-32s n=%-8.0f p50=%-12.6g "
                    "p99=%.6g\n",
                    name.c_str(), h.count, h.p50, h.p99);
    }
    std::printf("\n");
    PrintThresholdTrajectory(dump);
    return 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/** Tolerances: a default plus per-metric overrides. */
struct DiffOptions {
    double default_tol = 0.0;  ///< relative; 0 = exact.
    std::map<std::string, double> per_metric;
    bool include_latency = false;
    /** Compare only histogram counts (scrape mode: the exposition
     *  carries buckets, not the exporter's quantile estimates). */
    bool histogram_counts_only = false;
};

double
TolFor(const DiffOptions& opts, const std::string& name)
{
    const auto it = opts.per_metric.find(name);
    return it == opts.per_metric.end() ? opts.default_tol : it->second;
}

/** True when the metric measures wall time (machine-dependent). */
bool
IsLatencyMetric(const std::string& name)
{
    return name.size() > 3 &&
           name.compare(name.size() - 3, 3, "_ns") == 0;
}

bool
WithinTolerance(double base, double cand, double tol)
{
    if (base == cand)
        return true;
    const double mag = std::max(std::fabs(base), std::fabs(cand));
    return std::fabs(cand - base) <= tol * mag;
}

/** Compare one metric; prints and counts a regression when outside
 *  tolerance. */
void
CheckValue(const std::string& kind, const std::string& name,
           double base, double cand, const DiffOptions& opts,
           size_t* compared, size_t* regressions)
{
    ++*compared;
    const double tol = TolFor(opts, name);
    if (WithinTolerance(base, cand, tol))
        return;
    ++*regressions;
    const double mag = std::max(std::fabs(base), std::fabs(cand));
    std::printf("REGRESSION  %-9s %-32s %.6g -> %.6g  (rel %.3g > tol "
                "%.3g)\n",
                kind.c_str(), name.c_str(), base, cand,
                mag == 0 ? 0 : std::fabs(cand - base) / mag, tol);
}

/**
 * Refuse to compare inputs written under different schema versions:
 * true, with a diagnostic on stderr, when the versions differ. Every
 * comparing subcommand exits 2 on it.
 */
bool
SchemaMismatch(const std::string& base_path, long base_version,
               const std::string& cand_path, long cand_version)
{
    if (base_version == cand_version)
        return false;
    std::fprintf(stderr,
                 "rumba-stat: schema mismatch: %s is v%ld, %s is v%ld "
                 "— refusing to compare\n",
                 base_path.c_str(), base_version, cand_path.c_str(),
                 cand_version);
    return true;
}

int
CmdDiff(const Dump& base, const Dump& cand, const DiffOptions& opts)
{
    // Refuse to compare dumps written by incompatible exporters.
    if (base.has_meta && cand.has_meta &&
        SchemaMismatch(base.path, base.schema_version, cand.path,
                       cand.schema_version))
        return 2;
    if (base.has_meta && cand.has_meta &&
        base.sanitizers != cand.sanitizers) {
        std::printf("note: sanitizer configs differ (\"%s\" vs "
                    "\"%s\") — latency metrics are not comparable\n",
                    base.sanitizers.c_str(), cand.sanitizers.c_str());
    }

    size_t compared = 0, regressions = 0, skipped_latency = 0;
    std::vector<std::string> missing;

    for (const auto& [name, value] : base.counters) {
        const auto it = cand.counters.find(name);
        if (it == cand.counters.end()) {
            missing.push_back("counter " + name);
            continue;
        }
        CheckValue("counter", name, value, it->second, opts, &compared,
                   &regressions);
    }
    for (const auto& [name, value] : base.gauges) {
        const auto it = cand.gauges.find(name);
        if (it == cand.gauges.end()) {
            missing.push_back("gauge " + name);
            continue;
        }
        CheckValue("gauge", name, value, it->second, opts, &compared,
                   &regressions);
    }
    for (const auto& [name, h] : base.histograms) {
        const auto it = cand.histograms.find(name);
        if (it == cand.histograms.end()) {
            missing.push_back("histogram " + name);
            continue;
        }
        // Event counts are deterministic; the value distribution of a
        // latency histogram is machine noise unless asked for.
        CheckValue("histogram", name + ".count", h.count,
                   it->second.count, opts, &compared, &regressions);
        if (opts.histogram_counts_only)
            continue;
        if (IsLatencyMetric(name) && !opts.include_latency) {
            ++skipped_latency;
            continue;
        }
        if (!IsLatencyMetric(name) || opts.include_latency) {
            CheckValue("histogram", name + ".p50", h.p50,
                       it->second.p50, opts, &compared, &regressions);
        }
    }

    for (const auto& name : missing)
        std::printf("REGRESSION  missing in candidate: %s\n",
                    name.c_str());
    regressions += missing.size();

    std::printf("%s: %zu metrics compared, %zu regressions, %zu "
                "latency distributions skipped\n",
                regressions == 0 ? "PASS" : "FAIL", compared,
                regressions, skipped_latency);
    return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// scrape: fetch / parse / validate Prometheus text exposition.
// ---------------------------------------------------------------------------

/** Blocking HTTP GET (own tiny client — rumba-stat links nothing from
 *  src/). Supports dotted-quad hosts and "localhost". */
bool
FetchHttp(const std::string& host, int port, const std::string& path,
          std::string* body)
{
    const std::string addr_text =
        host == "localhost" ? "127.0.0.1" : host;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, addr_text.c_str(), &addr.sin_addr) != 1) {
        std::fprintf(stderr,
                     "rumba-stat: cannot parse host '%s' (numeric IPv4 "
                     "or 'localhost' only)\n",
                     host.c_str());
        return false;
    }
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
        std::fprintf(stderr, "rumba-stat: cannot connect to %s:%d\n",
                     host.c_str(), port);
        close(fd);
        return false;
    }
    const std::string request = "GET " + path +
                                " HTTP/1.0\r\nHost: " + host +
                                "\r\nConnection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = send(fd, request.data() + sent,
                               request.size() - sent, 0);
        if (n <= 0) {
            close(fd);
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    close(fd);
    const size_t sp = response.find(' ');
    if (response.compare(0, 5, "HTTP/") != 0 ||
        sp == std::string::npos) {
        std::fprintf(stderr, "rumba-stat: malformed HTTP response\n");
        return false;
    }
    const int status = std::atoi(response.c_str() + sp + 1);
    if (status != 200) {
        std::fprintf(stderr, "rumba-stat: HTTP %d from %s:%d%s\n",
                     status, host.c_str(), port, path.c_str());
        return false;
    }
    size_t head_end = response.find("\r\n\r\n");
    size_t skip = 4;
    if (head_end == std::string::npos) {
        head_end = response.find("\n\n");
        skip = 2;
    }
    *body = head_end == std::string::npos
                ? ""
                : response.substr(head_end + skip);
    return true;
}

/** One parsed exposition sample. */
struct PromSample {
    std::string prom_name;  ///< e.g. rumba_serve_submitted_total.
    std::string dotted;     ///< recovered name="..." label ("" = none).
    std::string le;         ///< le="..." label (histogram buckets).
    double value = 0.0;
};

/** Everything parsed from one exposition body. */
struct PromScrape {
    std::map<std::string, std::string> types;  ///< prom name -> TYPE.
    std::vector<PromSample> samples;
    std::vector<std::string> errors;  ///< format violations found.
};

/** Parse `name{label="v",...} value` lines plus # TYPE comments.
 *  Format violations land in scrape->errors (parsing continues). */
void
ParseExposition(const std::string& body, PromScrape* scrape)
{
    std::istringstream in(body);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream comment(line);
            std::string hash, kind, name, type;
            comment >> hash >> kind >> name >> type;
            if (kind == "TYPE" && !name.empty() && !type.empty())
                scrape->types[name] = type;
            continue;
        }
        PromSample sample;
        size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        sample.prom_name = line.substr(0, i);
        if (sample.prom_name.empty()) {
            scrape->errors.push_back("line " + std::to_string(lineno) +
                                     ": empty metric name");
            continue;
        }
        if (i < line.size() && line[i] == '{') {
            const size_t close = line.find('}', i);
            if (close == std::string::npos) {
                scrape->errors.push_back(
                    "line " + std::to_string(lineno) +
                    ": unterminated label set");
                continue;
            }
            // Labels our exporter emits: name="...", le="..." —
            // values never contain '"' (escaped on emit).
            std::string labels = line.substr(i + 1, close - i - 1);
            size_t pos = 0;
            while (pos < labels.size()) {
                const size_t eq = labels.find('=', pos);
                if (eq == std::string::npos)
                    break;
                const std::string key = labels.substr(pos, eq - pos);
                const size_t q1 = labels.find('"', eq);
                const size_t q2 = q1 == std::string::npos
                                      ? q1
                                      : labels.find('"', q1 + 1);
                if (q2 == std::string::npos)
                    break;
                const std::string value =
                    labels.substr(q1 + 1, q2 - q1 - 1);
                if (key == "name")
                    sample.dotted = value;
                else if (key == "le")
                    sample.le = value;
                pos = labels.find(',', q2);
                pos = pos == std::string::npos ? labels.size() : pos + 1;
            }
            i = close + 1;
        }
        while (i < line.size() && line[i] == ' ')
            ++i;
        if (i >= line.size()) {
            scrape->errors.push_back("line " + std::to_string(lineno) +
                                     ": missing sample value");
            continue;
        }
        const std::string value_text = line.substr(i);
        if (value_text == "+Inf") {
            sample.value = HUGE_VAL;
        } else {
            char* end = nullptr;
            sample.value = std::strtod(value_text.c_str(), &end);
            if (end == value_text.c_str() ||
                (*end != '\0' && *end != ' ')) {
                scrape->errors.push_back(
                    "line " + std::to_string(lineno) +
                    ": unparseable value '" + value_text + "'");
                continue;
            }
        }
        scrape->samples.push_back(std::move(sample));
    }
}

/** Strip one of the histogram-series suffixes; "" if none match. */
std::string
StripSuffix(const std::string& name, const char* suffix)
{
    const size_t len = std::strlen(suffix);
    if (name.size() > len &&
        name.compare(name.size() - len, len, suffix) == 0)
        return name.substr(0, name.size() - len);
    return "";
}

/** The TYPE'd base series a sample belongs to ("" when undeclared). */
std::string
BaseSeries(const PromScrape& scrape, const std::string& prom_name)
{
    if (scrape.types.count(prom_name))
        return prom_name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string base = StripSuffix(prom_name, suffix);
        if (!base.empty() && scrape.types.count(base))
            return base;
    }
    return "";
}

/** Per-histogram accumulation for validation and Dump conversion. */
struct HistAccum {
    std::vector<std::pair<double, double>> buckets;  ///< (le, cum).
    double sum = 0, count = 0, min = 0, max = 0;
    bool has_count = false;
};

/**
 * Convert a parsed scrape into the Dump model (counters / gauges /
 * histograms keyed by recovered dotted names) and run the format
 * checks: every sample TYPE-declared, histogram buckets cumulative,
 * +Inf bucket == _count. Violations append to scrape->errors.
 */
void
ScrapeToDump(PromScrape* scrape, Dump* dump)
{
    std::map<std::string, HistAccum> hists;  // keyed by dotted name.
    for (const PromSample& s : scrape->samples) {
        const std::string base = BaseSeries(*scrape, s.prom_name);
        if (base.empty()) {
            scrape->errors.push_back("sample '" + s.prom_name +
                                     "' has no # TYPE declaration");
            continue;
        }
        const std::string& type = scrape->types[base];
        const std::string key =
            s.dotted.empty() ? s.prom_name : s.dotted;
        if (type == "counter") {
            dump->counters[key] = s.value;
        } else if (type == "histogram") {
            HistAccum& h = hists[key];
            if (s.prom_name == base + "_bucket") {
                h.buckets.emplace_back(
                    s.le == "+Inf" ? HUGE_VAL
                                   : std::strtod(s.le.c_str(), nullptr),
                    s.value);
            } else if (s.prom_name == base + "_sum") {
                h.sum = s.value;
            } else if (s.prom_name == base + "_count") {
                h.count = s.value;
                h.has_count = true;
            }
        } else if (type == "gauge") {
            // A histogram's companion extrema gauges fold back into
            // its stats; everything else is a plain gauge.
            const std::string min_base = StripSuffix(base, "_min");
            const std::string max_base = StripSuffix(base, "_max");
            if (!min_base.empty() &&
                scrape->types.count(min_base) &&
                scrape->types[min_base] == "histogram") {
                hists[key].min = s.value;
            } else if (!max_base.empty() &&
                       scrape->types.count(max_base) &&
                       scrape->types[max_base] == "histogram") {
                hists[key].max = s.value;
            } else {
                dump->gauges[key] = s.value;
            }
        }
    }
    for (auto& [name, h] : hists) {
        if (!h.has_count) {
            scrape->errors.push_back("histogram '" + name +
                                     "' is missing _count");
        }
        double prev = -1.0;
        bool saw_inf = false;
        for (const auto& [le, cum] : h.buckets) {
            if (cum < prev) {
                scrape->errors.push_back(
                    "histogram '" + name +
                    "' buckets are not cumulative");
                break;
            }
            prev = cum;
            if (le == HUGE_VAL) {
                saw_inf = true;
                if (h.has_count && cum != h.count) {
                    scrape->errors.push_back(
                        "histogram '" + name +
                        "' +Inf bucket != _count");
                }
            }
        }
        if (!saw_inf) {
            scrape->errors.push_back("histogram '" + name +
                                     "' has no +Inf bucket");
        }
        HistogramStats stats;
        stats.count = h.count;
        stats.sum = h.sum;
        stats.min = h.min;
        stats.max = h.max;
        dump->histograms[name] = stats;
    }
}

/**
 * Fetch (or read) the target into @p body. Live HTTP targets
 * (http://host:port[/path] or host:port) default to @p default_path
 * and, when @p host_out / @p port_out are given, report where they
 * connected so callers can fetch sibling endpoints; plain paths read
 * a saved file (host_out stays empty).
 */
bool
FetchTarget(const std::string& target, const char* default_path,
            std::string* body, std::string* host_out = nullptr,
            int* port_out = nullptr)
{
    std::string rest;
    if (target.rfind("http://", 0) == 0)
        rest = target.substr(7);
    else if (target.find(':') != std::string::npos)
        rest = target;
    if (!rest.empty()) {
        std::string path = default_path;
        const size_t slash = rest.find('/');
        if (slash != std::string::npos) {
            path = rest.substr(slash);
            rest.resize(slash);
        }
        const size_t colon = rest.find(':');
        if (colon == std::string::npos) {
            std::fprintf(stderr,
                         "rumba-stat: scrape target needs host:port\n");
            return false;
        }
        const int port = std::atoi(rest.c_str() + colon + 1);
        const std::string host = rest.substr(0, colon);
        if (host_out != nullptr)
            *host_out = host;
        if (port_out != nullptr)
            *port_out = port;
        return FetchHttp(host, port, path, body);
    }
    std::ifstream in(target);
    if (!in) {
        std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                     target.c_str());
        return false;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    *body = contents.str();
    return true;
}

// ---------------------------------------------------------------------------
// JSON diagnostic endpoints (/buildz, /profilez, /tsdbz, /incidentz):
// one loader and one required-key list per route, shared by each
// route's subcommand and by `scrape --check`.
// ---------------------------------------------------------------------------

/** A JSON route and the flattened keys every valid body carries. */
struct JsonEndpoint {
    const char* path;
    std::vector<std::string> required;
};

const JsonEndpoint kBuildz = {
    "/buildz",
    {"version", "git_describe", "build_type", "schema_version"},
};

const JsonEndpoint kProfilez = {
    "/profilez",
    {"schema_version", "cpu_seconds.device",
     "cpu_seconds.predict_check", "cpu_seconds.recover",
     "cpu_seconds.total", "sampler.running", "sampler.hz",
     "sampler.samples", "efficiency.speedup_estimate",
     "efficiency.energy_ratio", "efficiency.window", "invocations"},
};

const JsonEndpoint kTsdbz = {
    "/tsdbz",
    {"schema_version", "now_ms", "series", "points_total",
     "sampler_running", "selected"},
};

const JsonEndpoint kIncidentz = {
    "/incidentz",
    {"schema_version", "count", "opened", "dumped", "suppressed"},
};

/**
 * Load @p endpoint's body from @p target (a live URL, host:port, or a
 * saved file) into @p obj: parses as one JSON object (nested objects
 * flatten to dotted keys) carrying every required key. Returns false,
 * with diagnostics on stderr, on a fetch, parse, or key failure.
 */
bool
LoadEndpoint(const std::string& target, const JsonEndpoint& endpoint,
             JsonObject* obj)
{
    std::string body;
    if (!FetchTarget(target, endpoint.path, &body))
        return false;
    if (!ParseJsonLine(body, obj)) {
        std::fprintf(stderr, "rumba-stat: %s: malformed JSON\n",
                     target.c_str());
        return false;
    }
    bool ok = true;
    for (const std::string& key : endpoint.required) {
        if (obj->count(key) != 0)
            continue;
        std::fprintf(stderr, "rumba-stat: %s: missing key \"%s\"\n",
                     target.c_str(), key.c_str());
        ok = false;
    }
    return ok;
}

/** A JSON body's "schema_version" (0 when absent). */
long
SchemaVersion(const JsonObject& obj)
{
    return static_cast<long>(Field(obj, "schema_version"));
}

int
CmdScrape(const std::string& target, bool check,
          const std::string& baseline_path, const DiffOptions& opts)
{
    std::string body;
    std::string host;
    int port = 0;
    if (!FetchTarget(target, "/metrics", &body, &host, &port))
        return 2;
    PromScrape scrape;
    ParseExposition(body, &scrape);
    Dump dump;
    dump.path = target;
    ScrapeToDump(&scrape, &dump);
    if (!scrape.errors.empty()) {
        for (const std::string& error : scrape.errors)
            std::fprintf(stderr, "rumba-stat: scrape: %s\n",
                         error.c_str());
        std::printf("FAIL: exposition has %zu format violations "
                    "(%zu samples parsed)\n",
                    scrape.errors.size(), scrape.samples.size());
        return 2;
    }
    if (check) {
        // Live targets also serve JSON diagnostics; validate that
        // /buildz, /profilez, /tsdbz and /incidentz are well-formed
        // and carry the keys dashboards key on. File targets only
        // have the exposition.
        size_t bad_endpoints = 0;
        if (!host.empty()) {
            const std::string root =
                "http://" + host + ":" + std::to_string(port);
            for (const JsonEndpoint* endpoint :
                 {&kBuildz, &kProfilez, &kTsdbz, &kIncidentz}) {
                JsonObject obj;
                if (!LoadEndpoint(root + endpoint->path, *endpoint, &obj))
                    ++bad_endpoints;
            }
        }
        if (bad_endpoints > 0) {
            std::printf("FAIL: exposition ok but %zu JSON endpoint(s) "
                        "invalid (/buildz, /profilez, /tsdbz, "
                        "/incidentz)\n",
                        bad_endpoints);
            return 2;
        }
        std::printf("OK: %zu samples, %zu counters, %zu gauges, %zu "
                    "histograms, all TYPE-declared, buckets "
                    "cumulative%s\n",
                    scrape.samples.size(), dump.counters.size(),
                    dump.gauges.size(), dump.histograms.size(),
                    host.empty() ? ""
                                 : "; /buildz, /profilez, /tsdbz and "
                                   "/incidentz valid");
        return 0;
    }
    if (!baseline_path.empty()) {
        Dump base;
        if (!LoadDump(baseline_path, &base))
            return 2;
        DiffOptions scrape_opts = opts;
        scrape_opts.histogram_counts_only = true;
        return CmdDiff(base, dump, scrape_opts);
    }
    return CmdSummary(dump);
}

// ---------------------------------------------------------------------------
// profile: summarize / gate the live cost profiler (/profilez).
// ---------------------------------------------------------------------------

/** One efficiency-figure gate: relative move in the worse direction
 *  beyond @p tol counts a regression. */
void
CheckEfficiency(const char* what, double base, double cand,
                bool higher_is_worse, double tol, size_t* regressions)
{
    const double mag = std::max(std::fabs(base), std::fabs(cand));
    const double delta = higher_is_worse ? cand - base : base - cand;
    if (mag == 0.0 || delta <= tol * mag)
        return;
    ++*regressions;
    std::printf("REGRESSION  %-24s %.4g -> %.4g  (moved %.3g > tol "
                "%.3g relative)\n",
                what, base, cand, delta / mag, tol);
}

int
CmdProfile(const std::string& target, const std::string& baseline_path,
           double tol)
{
    JsonObject obj;
    if (!LoadEndpoint(target, kProfilez, &obj))
        return 2;

    std::printf("== %s ==\n", target.c_str());
    static const char* kStages[] = {"queue_wait", "device",
                                    "predict_check", "recover",
                                    "merge", "audit", "verify",
                                    "other"};
    const double total = Field(obj, "cpu_seconds.total");
    std::printf("stage CPU attribution (%0.f invocations):\n",
                Field(obj, "invocations"));
    for (const char* stage : kStages) {
        const double sec =
            Field(obj, std::string("cpu_seconds.") + stage);
        if (sec == 0.0)
            continue;
        std::printf("  %-14s %12.6f s  %6.2f%%\n", stage, sec,
                    total > 0 ? 100.0 * sec / total : 0.0);
    }
    std::printf("  %-14s %12.6f s\n", "total", total);
    std::printf("sampler: %s, %.4g Hz, %.0f samples\n",
                Field(obj, "sampler.running") != 0 ? "running"
                                                   : "stopped",
                Field(obj, "sampler.hz"),
                Field(obj, "sampler.samples"));
    const double speedup = Field(obj, "efficiency.speedup_estimate");
    const double energy = Field(obj, "efficiency.energy_ratio");
    std::printf("efficiency: speedup estimate %.4g, energy ratio "
                "%.4g (window %.0f of %.0f invocations)\n",
                speedup, energy, Field(obj, "efficiency.window"),
                Field(obj, "efficiency.invocations"));
    if (baseline_path.empty())
        return 0;

    JsonObject base;
    if (!LoadEndpoint(baseline_path, kProfilez, &base))
        return 2;
    if (SchemaMismatch(baseline_path, SchemaVersion(base), target,
                       SchemaVersion(obj)))
        return 2;
    std::printf("\nefficiency gate vs %s (tol %.3g relative):\n",
                baseline_path.c_str(), tol);
    size_t regressions = 0;
    CheckEfficiency("speedup estimate",
                    Field(base, "efficiency.speedup_estimate"),
                    speedup, /*higher_is_worse=*/false, tol,
                    &regressions);
    CheckEfficiency("energy ratio",
                    Field(base, "efficiency.energy_ratio"), energy,
                    /*higher_is_worse=*/true, tol, &regressions);
    std::printf("%s: 2 efficiency figures gated, %zu regressions\n",
                regressions == 0 ? "PASS" : "FAIL", regressions);
    return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// tsdb: summarize / gate the embedded retention store (/tsdbz).
// ---------------------------------------------------------------------------

/** Series names in a flattened /tsdbz body: every
 *  "series_detail.<name>.points" key names one selected series (the
 *  name itself may contain dots, so match the fixed suffix). */
std::vector<std::string>
TsdbzSeries(const JsonObject& obj)
{
    static const std::string kPrefix = "series_detail.";
    static const std::string kSuffix = ".points";
    std::vector<std::string> names;
    for (const auto& [key, value] : obj) {
        if (key.rfind(kPrefix, 0) != 0 ||
            key.size() <= kPrefix.size() + kSuffix.size())
            continue;
        if (key.compare(key.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) != 0)
            continue;
        const std::string name = key.substr(
            kPrefix.size(),
            key.size() - kPrefix.size() - kSuffix.size());
        // "….samples.<i>.points" would be a series literally named
        // "samples.<i>" — the store never emits one, but a malformed
        // body must not invent series, so require the kind key too.
        if (obj.count(kPrefix + name + ".kind") != 0)
            names.push_back(name);
    }
    return names;
}

int
CmdTsdb(const std::string& target, const std::string& baseline_path)
{
    JsonObject obj;
    if (!LoadEndpoint(target, kTsdbz, &obj))
        return 2;

    std::printf("== %s ==\n", target.c_str());
    std::printf("store: %.0f series, %.0f points retained, %.0f "
                "series dropped at capacity; sampler %s (%.0f "
                "samples)\n",
                Field(obj, "series"), Field(obj, "points_total"),
                Field(obj, "dropped_series"),
                Field(obj, "sampler_running") != 0 ? "running"
                                                   : "stopped",
                Field(obj, "sampler_samples"));
    const std::vector<std::string> names = TsdbzSeries(obj);
    std::printf("%zu series selected (prefix \"%s\", last %.0f ms, "
                "quantile %.2f):\n",
                names.size(), TextField(obj, "prefix").c_str(),
                Field(obj, "range_ms"), Field(obj, "quantile"));
    std::printf("  %-44s %-7s %6s %12s %12s %12s\n", "series", "kind",
                "points", "last", "rate/s", "q-value");
    for (const std::string& name : names) {
        const std::string at = "series_detail." + name + ".";
        std::printf("  %-44s %-7s %6.0f %12.6g %12.6g %12.6g\n",
                    name.c_str(), TextField(obj, at + "kind").c_str(),
                    Field(obj, at + "points"), Field(obj, at + "last"),
                    Field(obj, at + "rate_per_s"),
                    Field(obj, at + "quantile_value"));
    }
    if (baseline_path.empty())
        return 0;

    JsonObject base;
    if (!LoadEndpoint(baseline_path, kTsdbz, &base))
        return 2;
    if (SchemaMismatch(baseline_path, SchemaVersion(base), target,
                       SchemaVersion(obj)))
        return 2;
    // Coverage gate: every series the baseline retained points for
    // must still exist and still have points — a series going dark
    // means a probe was unwired or the sampler stopped feeding it.
    // Values are workload-dependent, so only presence is gated.
    std::printf("\ncoverage gate vs %s:\n", baseline_path.c_str());
    size_t gated = 0;
    size_t regressions = 0;
    for (const std::string& name : TsdbzSeries(base)) {
        if (Field(base, "series_detail." + name + ".points") <= 0)
            continue;
        ++gated;
        const double cand_points =
            Field(obj, "series_detail." + name + ".points", -1.0);
        if (cand_points < 0) {
            ++regressions;
            std::printf("REGRESSION  series %-44s retained in "
                        "baseline, missing from candidate\n",
                        name.c_str());
        } else if (cand_points == 0) {
            ++regressions;
            std::printf("REGRESSION  series %-44s has no points in "
                        "candidate window\n",
                        name.c_str());
        }
    }
    std::printf("%s: %zu series gated, %zu regressions\n",
                regressions == 0 ? "PASS" : "FAIL", gated, regressions);
    return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// incident: summarize / gate correlated incident bundles (/incidentz).
// ---------------------------------------------------------------------------

/** Incidents in a listing correlating at least @p min_sources
 *  distinct signal sources. */
size_t
CorrelatedIncidents(const JsonObject& obj, double min_sources)
{
    size_t correlated = 0;
    const size_t count = static_cast<size_t>(Field(obj, "count"));
    for (size_t i = 0; i < count; ++i) {
        const std::string at = "incidents." + std::to_string(i) + ".";
        if (Field(obj, at + "sources") >= min_sources)
            ++correlated;
    }
    return correlated;
}

int
CmdIncident(const std::string& target,
            const std::string& baseline_path)
{
    JsonObject obj;
    if (!LoadEndpoint(target, kIncidentz, &obj))
        return 2;

    std::printf("== %s ==\n", target.c_str());
    const size_t count = static_cast<size_t>(Field(obj, "count"));
    std::printf("%zu bundle(s) kept (%.0f opened, %.0f dumped to "
                "disk, %.0f suppressed by rate limit)%s%s\n",
                count, Field(obj, "opened"), Field(obj, "dumped"),
                Field(obj, "suppressed"),
                TextField(obj, "dir").empty() ? "" : ", dir ",
                TextField(obj, "dir").c_str());
    if (count > 0)
        std::printf("  %-4s %12s %8s %8s %6s  %s\n", "id", "onset_ms",
                    "sources", "signals", "joins", "kinds");
    for (size_t i = 0; i < count; ++i) {
        const std::string at = "incidents." + std::to_string(i) + ".";
        std::printf("  %-4.0f %12.1f %8.0f %8.0f %6.0f  %s%s%s\n",
                    Field(obj, at + "id"), Field(obj, at + "onset_ms"),
                    Field(obj, at + "sources"),
                    Field(obj, at + "signals"),
                    Field(obj, at + "joins"),
                    TextField(obj, at + "source_kinds").c_str(),
                    TextField(obj, at + "path").empty() ? "" : " -> ",
                    TextField(obj, at + "path").c_str());
    }
    if (baseline_path.empty())
        return 0;

    JsonObject base;
    if (!LoadEndpoint(baseline_path, kIncidentz, &base))
        return 2;
    if (SchemaMismatch(baseline_path, SchemaVersion(base), target,
                       SchemaVersion(obj)))
        return 2;
    // Correlation gate: if the baseline run produced a multi-source
    // incident (the forensics pipeline end-to-end: detectors firing,
    // signals joining, bundle assembled), the candidate must too.
    // Counts are workload-dependent, so >=1 is the bar, not equality.
    const size_t base_correlated = CorrelatedIncidents(base, 2.0);
    const size_t cand_correlated = CorrelatedIncidents(obj, 2.0);
    std::printf("\ncorrelation gate vs %s: baseline %zu multi-source "
                "incident(s), candidate %zu\n",
                baseline_path.c_str(), base_correlated,
                cand_correlated);
    if (base_correlated > 0 && cand_correlated == 0) {
        std::printf("REGRESSION  baseline correlated >=2 sources but "
                    "candidate produced no multi-source incident\n");
        std::printf("FAIL: correlation pipeline regressed\n");
        return 1;
    }
    std::printf("PASS: correlation pipeline intact\n");
    return 0;
}

// ---------------------------------------------------------------------------
// audit: summarize / regression-gate RUMBA_AUDIT_OUT labeled dumps.
// ---------------------------------------------------------------------------

/** One "audit" line from a RUMBA_AUDIT_OUT dump. */
struct AuditRecord {
    double trace_id = 0;
    long shard = 0;
    bool forced = false;
    std::string forced_reason;
    double elements = 0;  ///< audited elements (strided subset size).
    double estimated_error_pct = 0;
    double reported_error_pct = 0;
    double true_error_pct = 0;
    bool toq_violation = false;
    double toq_bound_pct = 0;
    double tp = 0, fp = 0, fn = 0, tn = 0;
};

/** Everything loaded from one audit dump. */
struct AuditDump {
    std::string path;
    bool has_meta = false;
    long schema_version = -1;
    std::vector<AuditRecord> records;
    size_t element_lines = 0;
    size_t needs_fix_elements = 0;  ///< from audit_element labels.
};

/** Derived calibration summary of one audit dump. */
struct AuditStats {
    size_t audits = 0, forced = 0, violations = 0;
    double elements = 0;
    double tp = 0, fp = 0, fn = 0, tn = 0;
    double mean_true_error = 0, mean_abs_gap = 0;
    double violation_rate = 0, precision = 1.0, recall = 1.0;
    std::map<long, std::array<double, 4>> per_shard;  ///< tp,fp,fn,tn.
};

bool
LoadAuditDump(const std::string& path, AuditDump* dump)
{
    dump->path = path;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonObject obj;
        if (!ParseJsonLine(line, &obj)) {
            std::fprintf(stderr, "rumba-stat: %s:%zu: bad JSON line\n",
                         path.c_str(), lineno);
            return false;
        }
        const std::string type = TextField(obj, "type");
        if (type == "meta") {
            dump->has_meta = true;
            dump->schema_version =
                static_cast<long>(Field(obj, "schema_version", -1));
        } else if (type == "audit") {
            AuditRecord r;
            r.trace_id = Field(obj, "trace_id");
            r.shard = static_cast<long>(Field(obj, "shard"));
            r.forced = Field(obj, "forced") != 0;
            r.forced_reason = TextField(obj, "forced_reason");
            // Older dumps predate element-budget striding and carry
            // only "elements" (then every element was audited).
            r.elements =
                Field(obj, "audited_elements",
                      Field(obj, "elements"));
            r.estimated_error_pct = Field(obj, "estimated_error_pct");
            r.reported_error_pct = Field(obj, "reported_error_pct");
            r.true_error_pct = Field(obj, "true_error_pct");
            r.toq_violation = Field(obj, "toq_violation") != 0;
            r.toq_bound_pct = Field(obj, "toq_bound_pct");
            r.tp = Field(obj, "tp");
            r.fp = Field(obj, "fp");
            r.fn = Field(obj, "fn");
            r.tn = Field(obj, "tn");
            dump->records.push_back(std::move(r));
        } else if (type == "audit_element") {
            ++dump->element_lines;
            if (Field(obj, "needs_fix") != 0)
                ++dump->needs_fix_elements;
        }
        // Other line types (metrics mixed in, future kinds): ignored.
    }
    if (dump->records.empty()) {
        std::fprintf(stderr,
                     "rumba-stat: %s has no \"audit\" lines — not a "
                     "RUMBA_AUDIT_OUT dump?\n",
                     path.c_str());
        return false;
    }
    return true;
}

AuditStats
SummarizeAudits(const AuditDump& dump)
{
    AuditStats s;
    double gap_sum = 0, err_sum = 0;
    for (const AuditRecord& r : dump.records) {
        ++s.audits;
        s.forced += r.forced ? 1 : 0;
        s.violations += r.toq_violation ? 1 : 0;
        s.elements += r.elements;
        s.tp += r.tp;
        s.fp += r.fp;
        s.fn += r.fn;
        s.tn += r.tn;
        err_sum += r.true_error_pct;
        gap_sum += std::fabs(r.true_error_pct - r.estimated_error_pct);
        auto& shard = s.per_shard[r.shard];
        shard[0] += r.tp;
        shard[1] += r.fp;
        shard[2] += r.fn;
        shard[3] += r.tn;
    }
    if (s.audits > 0) {
        s.mean_true_error = err_sum / static_cast<double>(s.audits);
        s.mean_abs_gap = gap_sum / static_cast<double>(s.audits);
        s.violation_rate = static_cast<double>(s.violations) /
                           static_cast<double>(s.audits);
    }
    const double fires = s.tp + s.fp;
    const double needed = s.tp + s.fn;
    s.precision = fires == 0 ? 1.0 : s.tp / fires;
    s.recall = needed == 0 ? 1.0 : s.tp / needed;
    return s;
}

void
PrintAuditSummary(const AuditDump& dump, const AuditStats& s,
                  size_t worst_k)
{
    std::printf("== %s ==\n", dump.path.c_str());
    if (dump.has_meta)
        std::printf("meta: schema v%ld\n", dump.schema_version);
    std::printf(
        "%zu audits (%zu forced), %.0f elements audited (%zu element "
        "lines, %zu needing a fix)\n",
        s.audits, s.forced, s.elements, dump.element_lines,
        dump.needs_fix_elements);
    std::printf(
        "true TOQ violations: %zu / %zu (rate %.4f, bound %.4g%%)\n",
        s.violations, s.audits, s.violation_rate,
        dump.records.front().toq_bound_pct);
    std::printf(
        "mean true error %.4g%%   mean |true - estimated| gap %.4g%%\n"
        "\n",
        s.mean_true_error, s.mean_abs_gap);

    std::printf("checker calibration (accelerator-served elements):\n");
    std::printf("  %-8s %10s %10s %10s %10s %10s %8s\n", "shard",
                "tp", "fp(rec)", "fn(acc)", "tn", "precision",
                "recall");
    for (const auto& [shard, counts] : s.per_shard) {
        const double fires = counts[0] + counts[1];
        const double needed = counts[0] + counts[2];
        std::printf("  %-8ld %10.0f %10.0f %10.0f %10.0f %10.4f "
                    "%8.4f\n",
                    shard, counts[0], counts[1], counts[2], counts[3],
                    fires == 0 ? 1.0 : counts[0] / fires,
                    needed == 0 ? 1.0 : counts[0] / needed);
    }
    std::printf("  %-8s %10.0f %10.0f %10.0f %10.0f %10.4f %8.4f\n",
                "total", s.tp, s.fp, s.fn, s.tn, s.precision,
                s.recall);

    if (worst_k > 0) {
        std::vector<const AuditRecord*> ranked;
        ranked.reserve(dump.records.size());
        for (const AuditRecord& r : dump.records)
            ranked.push_back(&r);
        std::sort(ranked.begin(), ranked.end(),
                  [](const AuditRecord* a, const AuditRecord* b) {
                      return a->true_error_pct > b->true_error_pct;
                  });
        std::printf("\nworst %zu audited invocations by true error:\n",
                    std::min(worst_k, ranked.size()));
        std::printf("  %-12s %-6s %12s %12s %5s %s\n", "trace_id",
                    "shard", "true_err%", "est_err%", "viol",
                    "forced");
        for (size_t i = 0; i < ranked.size() && i < worst_k; ++i) {
            const AuditRecord& r = *ranked[i];
            std::printf("  %-12.0f %-6ld %12.4g %12.4g %5s %s\n",
                        r.trace_id, r.shard, r.true_error_pct,
                        r.estimated_error_pct,
                        r.toq_violation ? "YES" : "no",
                        r.forced ? r.forced_reason.c_str() : "-");
        }
    }
}

/** One audited calibration figure gate: candidate may not be worse
 *  than baseline by more than @p tol (absolute). */
void
CheckCalibration(const char* what, double base, double cand,
                 bool higher_is_worse, double tol, size_t* regressions)
{
    const double delta = higher_is_worse ? cand - base : base - cand;
    if (delta <= tol)
        return;
    ++*regressions;
    std::printf("REGRESSION  %-24s %.4f -> %.4f  (moved %.4f > tol "
                "%.4f)\n",
                what, base, cand, delta, tol);
}

int
CmdAudit(const std::string& path, const std::string& baseline_path,
         double tol, size_t worst_k)
{
    AuditDump dump;
    if (!LoadAuditDump(path, &dump))
        return 2;
    const AuditStats stats = SummarizeAudits(dump);
    PrintAuditSummary(dump, stats, worst_k);
    if (baseline_path.empty())
        return 0;

    AuditDump base;
    if (!LoadAuditDump(baseline_path, &base))
        return 2;
    if (base.has_meta && dump.has_meta &&
        SchemaMismatch(base.path, base.schema_version, dump.path,
                       dump.schema_version))
        return 2;
    const AuditStats bs = SummarizeAudits(base);
    std::printf("\ncalibration gate vs %s (tol %.4f absolute):\n",
                baseline_path.c_str(), tol);
    size_t regressions = 0;
    CheckCalibration("checker precision", bs.precision,
                     stats.precision, /*higher_is_worse=*/false, tol,
                     &regressions);
    CheckCalibration("checker recall", bs.recall, stats.recall,
                     /*higher_is_worse=*/false, tol, &regressions);
    CheckCalibration("true TOQ violation rate", bs.violation_rate,
                     stats.violation_rate, /*higher_is_worse=*/true,
                     tol, &regressions);
    std::printf("%s: 3 calibration figures gated, %zu regressions\n",
                regressions == 0 ? "PASS" : "FAIL", regressions);
    return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// scenarios: summarize / gate a scenario-matrix dump
// (tools/rumba_scenarios --out, RUMBA_SCENARIO_OUT).
// ---------------------------------------------------------------------------

/** One "type":"scenario" line from the matrix runner. */
struct ScenarioRow {
    std::string name, status, workload, arrival, fault, violations;
    bool admission = false;
    double offered = 0, served = 0, shed = 0, expired = 0,
           rejected = 0, gold_p99_ms = 0, loss_fraction = 0;
};

/** A loaded scenario dump: meta header plus rows in file order. */
struct ScenarioDump {
    std::string path;
    bool has_meta = false;
    long schema_version = -1;
    std::vector<ScenarioRow> rows;
};

bool
LoadScenarioDump(const std::string& path, ScenarioDump* dump)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                     path.c_str());
        return false;
    }
    dump->path = path;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonObject obj;
        if (!ParseJsonLine(line, &obj)) {
            std::fprintf(stderr,
                         "rumba-stat: %s:%zu: malformed JSON line\n",
                         path.c_str(), lineno);
            return false;
        }
        const std::string type = TextField(obj, "type");
        if (type == "meta") {
            dump->has_meta = true;
            dump->schema_version =
                static_cast<long>(Field(obj, "schema_version", -1));
            continue;
        }
        if (type != "scenario")
            continue;
        ScenarioRow row;
        row.name = TextField(obj, "name");
        row.status = TextField(obj, "status");
        row.workload = TextField(obj, "workload");
        row.arrival = TextField(obj, "arrival");
        row.fault = TextField(obj, "fault");
        row.violations = TextField(obj, "violations");
        row.admission = Field(obj, "admission") != 0;
        row.offered = Field(obj, "offered");
        row.served = Field(obj, "served");
        row.shed = Field(obj, "shed");
        row.expired = Field(obj, "expired");
        row.rejected = Field(obj, "rejected");
        row.gold_p99_ms = Field(obj, "gold_p99_ms");
        row.loss_fraction = Field(obj, "loss_fraction");
        if (row.name.empty() || row.status.empty()) {
            std::fprintf(stderr,
                         "rumba-stat: %s:%zu: scenario line missing "
                         "name/status\n",
                         path.c_str(), lineno);
            return false;
        }
        dump->rows.push_back(std::move(row));
    }
    if (dump->rows.empty()) {
        std::fprintf(stderr,
                     "rumba-stat: %s: no scenario lines found\n",
                     path.c_str());
        return false;
    }
    return true;
}

const ScenarioRow*
FindScenario(const ScenarioDump& dump, const std::string& name)
{
    for (const ScenarioRow& row : dump.rows)
        if (row.name == name)
            return &row;
    return nullptr;
}

int
CmdScenarios(const std::string& path, const std::string& baseline_path)
{
    ScenarioDump dump;
    if (!LoadScenarioDump(path, &dump))
        return 2;

    std::printf("== %s ==\n", dump.path.c_str());
    size_t pass = 0, fail = 0, skip = 0;
    for (const ScenarioRow& row : dump.rows) {
        if (row.status == "pass")
            ++pass;
        else if (row.status == "skip")
            ++skip;
        else
            ++fail;
        std::printf("  %-5s %-24s %-10s %-8s adm=%-3s offered=%-6.0f "
                    "served=%-6.0f shed=%-5.0f rejected=%-5.0f "
                    "gold_p99=%.1fms loss=%.3f\n",
                    row.status.c_str(), row.name.c_str(),
                    row.workload.c_str(), row.arrival.c_str(),
                    row.admission ? "on" : "off", row.offered,
                    row.served, row.shed, row.rejected,
                    row.gold_p99_ms, row.loss_fraction);
        if (!row.violations.empty())
            std::printf("        violations: %s\n",
                        row.violations.c_str());
    }
    std::printf("%zu scenarios: %zu pass, %zu fail/error, %zu skip\n",
                dump.rows.size(), pass, fail, skip);

    if (baseline_path.empty())
        return fail == 0 ? 0 : 1;

    ScenarioDump base;
    if (!LoadScenarioDump(baseline_path, &base))
        return 2;
    if (base.has_meta && dump.has_meta &&
        SchemaMismatch(base.path, base.schema_version, dump.path,
                       dump.schema_version))
        return 2;

    // Gate: any scenario the baseline passed must still pass (a skip
    // is neutral — the environment forced it off, e.g. an external
    // RUMBA_FAULT_PLAN). New scenarios and fixed failures are notes.
    std::printf("\nscenario gate vs %s:\n", baseline_path.c_str());
    size_t regressions = 0, compared = 0;
    for (const ScenarioRow& brow : base.rows) {
        if (brow.status != "pass")
            continue;
        ++compared;
        const ScenarioRow* crow = FindScenario(dump, brow.name);
        if (crow == nullptr) {
            ++regressions;
            std::printf("REGRESSION  %-24s pass -> (missing)\n",
                        brow.name.c_str());
            continue;
        }
        if (crow->status == "pass" || crow->status == "skip")
            continue;
        ++regressions;
        std::printf("REGRESSION  %-24s pass -> %s%s%s\n",
                    brow.name.c_str(), crow->status.c_str(),
                    crow->violations.empty() ? "" : ": ",
                    crow->violations.c_str());
    }
    for (const ScenarioRow& brow : base.rows) {
        if (brow.status == "pass")
            continue;
        const ScenarioRow* crow = FindScenario(dump, brow.name);
        if (crow != nullptr && crow->status == "pass")
            std::printf("note: %s now passes (was %s)\n",
                        brow.name.c_str(), brow.status.c_str());
    }
    for (const ScenarioRow& crow : dump.rows) {
        if (FindScenario(base, crow.name) == nullptr)
            std::printf("note: new scenario %s (%s) — not in "
                        "baseline\n",
                        crow.name.c_str(), crow.status.c_str());
    }
    std::printf("%s: %zu baseline scenarios gated, %zu regressions\n",
                regressions == 0 ? "PASS" : "FAIL", compared,
                regressions);
    return regressions == 0 ? 0 : 1;
}

int
Usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  rumba-stat summary <dump.jsonl>...\n"
        "  rumba-stat diff <baseline.jsonl> <candidate.jsonl>\n"
        "      [--tol <rel>] [--tol-metric <name>=<rel>]\n"
        "      [--include-latency]\n"
        "  rumba-stat scrape <target> [--check] [--baseline <dump>]\n"
        "      [--tol <rel>] [--tol-metric <name>=<rel>]\n"
        "      [--include-latency]\n"
        "  rumba-stat audit <audit.jsonl> [--baseline <audit.jsonl>]\n"
        "      [--tol <abs>] [--worst <K>]\n"
        "  rumba-stat profile <target> [--baseline <profilez.json>]\n"
        "      [--tol <rel>]\n"
        "  rumba-stat tsdb <target> [--baseline <tsdbz.json>]\n"
        "  rumba-stat incident <target> [--baseline <incidentz.json>]\n"
        "  rumba-stat scenarios <scenarios.jsonl>\n"
        "      [--baseline <scenarios.jsonl>]\n"
        "\n"
        "Dumps are RUMBA_METRICS_OUT metric files or RUMBA_STREAM_OUT\n"
        "sample streams (JSONL; '.csv' metric dumps load too).\n"
        "diff exits 1 when any metric moves outside its relative\n"
        "tolerance (default: exact), 2 on load/schema errors.\n"
        "scrape reads Prometheus text from http://host:port[/path],\n"
        "host:port, or a saved exposition file; --check validates the\n"
        "format, --baseline diffs against a metrics dump (histogram\n"
        "counts only), default prints a summary.\n"
        "audit reads a RUMBA_AUDIT_OUT labeled dump: ground-truth TOQ\n"
        "violation rate, checker-calibration table (per shard), and\n"
        "the worst-K invocations by true error; --baseline gates\n"
        "precision / recall / violation rate against another audit\n"
        "dump (exit 1 when any worsens by more than --tol, default\n"
        "0.05 absolute).\n"
        "profile reads the live cost profiler from http://host:port\n"
        "(/profilez by default), host:port, or a saved JSON body:\n"
        "per-stage CPU seconds and shares, sampler state, and the\n"
        "rolling speedup/energy estimate; --baseline gates the two\n"
        "efficiency figures against a saved /profilez body (exit 1\n"
        "when either worsens by more than --tol, default 0.15\n"
        "relative; 2 on schema mismatch).\n"
        "tsdb reads the embedded retention store from http://host:\n"
        "port (/tsdbz by default), host:port, or a saved JSON body:\n"
        "store occupancy, sampler state, and a per-series table\n"
        "(points in window, last value, rate, quantile-over-time);\n"
        "--baseline gates series coverage — any series the baseline\n"
        "retained points for that is missing or empty in the\n"
        "candidate exits 1 (2 on schema mismatch).\n"
        "incident reads correlated incident bundles from http://\n"
        "host:port (/incidentz by default), host:port, or a saved\n"
        "listing: open/dump/suppress counts plus one row per kept\n"
        "bundle; --baseline exits 1 when the baseline correlated a\n"
        "multi-source incident but the candidate produced none (2 on\n"
        "schema mismatch).\n"
        "scenarios reads a RUMBA_SCENARIO_OUT matrix dump (tools/\n"
        "rumba_scenarios --out): per-scenario status table plus\n"
        "violations; without --baseline, exit 1 when any scenario is\n"
        "fail/error; with --baseline, exit 1 when any scenario the\n"
        "baseline passed now fails or is missing (skips are neutral;\n"
        "new scenarios and fixed failures are notes).\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return Usage();
    const std::string cmd = argv[1];

    if (cmd == "summary") {
        if (argc < 3)
            return Usage();
        for (int i = 2; i < argc; ++i) {
            Dump dump;
            if (!LoadDump(argv[i], &dump))
                return 2;
            if (i > 2)
                std::printf("\n");
            CmdSummary(dump);
        }
        return 0;
    }

    if (cmd == "diff") {
        DiffOptions opts;
        std::vector<std::string> files;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--tol" && i + 1 < argc) {
                opts.default_tol = std::strtod(argv[++i], nullptr);
            } else if (arg == "--tol-metric" && i + 1 < argc) {
                const std::string spec = argv[++i];
                const size_t eq = spec.find('=');
                if (eq == std::string::npos)
                    return Usage();
                opts.per_metric[spec.substr(0, eq)] =
                    std::strtod(spec.c_str() + eq + 1, nullptr);
            } else if (arg == "--include-latency") {
                opts.include_latency = true;
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                files.push_back(arg);
            }
        }
        if (files.size() != 2)
            return Usage();
        Dump base, cand;
        if (!LoadDump(files[0], &base) || !LoadDump(files[1], &cand))
            return 2;
        return CmdDiff(base, cand, opts);
    }

    if (cmd == "scrape") {
        DiffOptions opts;
        bool check = false;
        std::string baseline;
        std::vector<std::string> targets;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--check") {
                check = true;
            } else if (arg == "--baseline" && i + 1 < argc) {
                baseline = argv[++i];
            } else if (arg == "--tol" && i + 1 < argc) {
                opts.default_tol = std::strtod(argv[++i], nullptr);
            } else if (arg == "--tol-metric" && i + 1 < argc) {
                const std::string spec = argv[++i];
                const size_t eq = spec.find('=');
                if (eq == std::string::npos)
                    return Usage();
                opts.per_metric[spec.substr(0, eq)] =
                    std::strtod(spec.c_str() + eq + 1, nullptr);
            } else if (arg == "--include-latency") {
                opts.include_latency = true;
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                targets.push_back(arg);
            }
        }
        if (targets.size() != 1)
            return Usage();
        return CmdScrape(targets[0], check, baseline, opts);
    }

    if (cmd == "profile") {
        double tol = 0.15;
        std::string baseline;
        std::vector<std::string> targets;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--baseline" && i + 1 < argc) {
                baseline = argv[++i];
            } else if (arg == "--tol" && i + 1 < argc) {
                tol = std::strtod(argv[++i], nullptr);
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                targets.push_back(arg);
            }
        }
        if (targets.size() != 1)
            return Usage();
        return CmdProfile(targets[0], baseline, tol);
    }

    if (cmd == "tsdb" || cmd == "incident") {
        std::string baseline;
        std::vector<std::string> targets;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--baseline" && i + 1 < argc) {
                baseline = argv[++i];
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                targets.push_back(arg);
            }
        }
        if (targets.size() != 1)
            return Usage();
        return cmd == "tsdb" ? CmdTsdb(targets[0], baseline)
                             : CmdIncident(targets[0], baseline);
    }

    if (cmd == "scenarios") {
        std::string baseline;
        std::vector<std::string> files;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--baseline" && i + 1 < argc) {
                baseline = argv[++i];
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                files.push_back(arg);
            }
        }
        if (files.size() != 1)
            return Usage();
        return CmdScenarios(files[0], baseline);
    }

    if (cmd == "audit") {
        double tol = 0.05;
        size_t worst_k = 5;
        std::string baseline;
        std::vector<std::string> files;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--baseline" && i + 1 < argc) {
                baseline = argv[++i];
            } else if (arg == "--tol" && i + 1 < argc) {
                tol = std::strtod(argv[++i], nullptr);
            } else if (arg == "--worst" && i + 1 < argc) {
                worst_k = static_cast<size_t>(
                    std::strtoul(argv[++i], nullptr, 10));
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                files.push_back(arg);
            }
        }
        if (files.size() != 1)
            return Usage();
        return CmdAudit(files[0], baseline, tol, worst_k);
    }

    return Usage();
}
