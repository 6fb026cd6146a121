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
 * All eight share one record reader (ReadRecords: a JSONL dump line by
 * line or a JSON route body, its meta header and schema_version, each
 * record kind declared once as a RecordKind with its required keys),
 * one gate (Gate, RunGate: relative or absolute tolerance, direction,
 * presence rules, schema refusal, one verdict line) and one argument
 * parser (kCommands: a row per subcommand; every number and port is
 * checked before any input is read). Input rules: JSON nested deeper
 * than kMaxDepth objects, a record missing a required key, and an
 * /incidentz "count" that is not its number of rows are malformed; a
 * tolerance is finite and non-negative, --worst a non-negative
 * integer, and a live target's port lies in 1-65535.
 *
 * Exit codes: 0 = ok / no regression, 1 = regression detected,
 * 2 = usage, load, fetch, or format-validation error (including
 * schema-version mismatch).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: handles exactly the objects our own exporters
// emit, nested objects flattened to dotted keys. Not a general JSON
// parser; unknown constructs fail the line loudly.
// ---------------------------------------------------------------------------

/** One parsed JSON scalar. */
struct JsonValue {
    enum class Kind { kNumber, kString, kBool } kind = Kind::kNumber;
    double number = 0.0;
    std::string text;
};

/** A parsed line or body: scalars keyed by their dotted path
 *  ("counters.runtime.fixes", "incidents.0.sources"). */
using JsonObject = std::map<std::string, JsonValue>;

/** Deepest object nesting a line or body may have. The deepest shape
 *  any exporter writes is /tsdbz's five levels (root, series_detail,
 *  series, samples, point); deeper input is malformed, not recursed
 *  into. */
constexpr int kMaxDepth = 8;

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
           const std::string& key, int depth, JsonObject* out);

bool
ParseObject(const std::string& s, size_t* i, const std::string& prefix,
            int depth, JsonObject* out)
{
    if (depth > kMaxDepth || *i >= s.size() || s[*i] != '{')
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
        if (!ParseValue(s, i, prefix, key, depth, out))
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
           const std::string& key, int depth, JsonObject* out)
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
        // Nested objects flatten as "key.subkey".
        return ParseObject(s, i, full, depth + 1, out);
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
    if (!ParseObject(line, &i, "", 1, out))
        return false;
    SkipSpace(line, &i);
    return i == line.size() || line[i] == '\n';
}

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

/** @p key as a whole number (versions, shard ids): @p fallback when
 *  absent, not finite, or too large to be one. */
long
IntField(const JsonObject& obj, const std::string& key, long fallback = 0)
{
    const double v = Field(obj, key, static_cast<double>(fallback));
    return std::isfinite(v) && std::fabs(v) < 1e15 ? static_cast<long>(v)
                                                   : fallback;
}

bool
EndsWith(const std::string& s, const char* suffix)
{
    const size_t len = std::strlen(suffix);
    return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// ---------------------------------------------------------------------------
// Targets: a live http://host:port[/path] or host:port, or a saved file.
// ---------------------------------------------------------------------------

/** A parsed <target>. */
struct Target {
    std::string host;  ///< "" for a saved file.
    int port = 0;
    std::string path;  ///< HTTP path of a live target.
};

/**
 * Parse @p text as a <target>: http://host:port[/path] or host:port is
 * live (its path @p default_path unless given); anything else is a
 * saved file. False, with a diagnostic, when a live target's port is
 * not a number in 1-65535.
 */
bool
ParseTarget(const std::string& text, const char* default_path,
            Target* out)
{
    std::string rest;
    if (text.rfind("http://", 0) == 0)
        rest = text.substr(7);
    else if (text.find(':') != std::string::npos)
        rest = text;
    if (rest.empty())
        return true;
    out->path = default_path;
    const size_t slash = rest.find('/');
    if (slash != std::string::npos) {
        out->path = rest.substr(slash);
        rest.resize(slash);
    }
    // from_chars leaves port 0 on a malformed or out-of-range number.
    const size_t colon = rest.find(':');
    const char* end = rest.data() + rest.size();
    unsigned port = 0;
    if (colon == std::string::npos ||
        std::from_chars(rest.data() + colon + 1, end, port).ptr != end ||
        port < 1 || port > 65535) {
        std::fprintf(stderr,
                     "rumba-stat: target %s needs host:port with a port "
                     "in 1-65535\n",
                     text.c_str());
        return false;
    }
    out->host = rest.substr(0, colon);
    out->port = static_cast<int>(port);
    return true;
}

/** Seconds one receive or send of a scrape may stall (the server's
 *  obs::kScrapeTimeoutSeconds; rumba-stat links nothing from src/). */
constexpr int kScrapeTimeoutSeconds = 3;

/** Blocking HTTP GET (own tiny client — rumba-stat links nothing from
 *  src/). Supports dotted-quad hosts and "localhost". A receive or
 *  send that stalls for kScrapeTimeoutSeconds fails the fetch. */
bool
FetchHttp(const Target& target, std::string* body)
{
    const std::string addr_text =
        target.host == "localhost" ? "127.0.0.1" : target.host;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(target.port));
    if (inet_pton(AF_INET, addr_text.c_str(), &addr.sin_addr) != 1) {
        std::fprintf(stderr,
                     "rumba-stat: cannot parse host '%s' (numeric IPv4 "
                     "or 'localhost' only)\n",
                     target.host.c_str());
        return false;
    }
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    timeval limit{};
    limit.tv_sec = kScrapeTimeoutSeconds;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
        std::fprintf(stderr, "rumba-stat: cannot connect to %s:%d\n",
                     target.host.c_str(), target.port);
        close(fd);
        return false;
    }
    const std::string request = "GET " + target.path +
                                " HTTP/1.0\r\nHost: " + target.host +
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
    if (n < 0) {
        std::fprintf(stderr, "rumba-stat: no response from %s:%d\n",
                     target.host.c_str(), target.port);
        return false;
    }
    const size_t sp = response.find(' ');
    if (response.compare(0, 5, "HTTP/") != 0 ||
        sp == std::string::npos) {
        std::fprintf(stderr, "rumba-stat: malformed HTTP response\n");
        return false;
    }
    const long status = std::strtol(response.c_str() + sp + 1, nullptr, 10);
    if (status != 200) {
        std::fprintf(stderr, "rumba-stat: HTTP %ld from %s:%d%s\n",
                     status, target.host.c_str(), target.port,
                     target.path.c_str());
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

/**
 * Fetch (or read) @p text into @p body, reporting in @p target where
 * a live fetch connected (host "" for a saved file) so callers can
 * fetch sibling routes. A live target's path defaults to @p default_path.
 */
bool
FetchTarget(const std::string& text, const char* default_path,
            std::string* body, Target* target)
{
    if (!ParseTarget(text, default_path, target))
        return false;
    if (!target->host.empty())
        return FetchHttp(*target, body);
    std::ifstream in(text);
    if (!in) {
        std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                     text.c_str());
        return false;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    *body = contents.str();
    return true;
}

// ---------------------------------------------------------------------------
// Record reader: every JSONL dump and JSON route body is read by
// ReadRecords. Each record kind is declared once, as data.
// ---------------------------------------------------------------------------

/** The "incidents.<i>." prefixes of the rows an /incidentz body
 *  carries, walked from row 0 until one is absent. */
std::vector<std::string>
IncidentRows(const JsonObject& obj)
{
    std::vector<std::string> rows;
    for (;;) {
        std::string at = "incidents." + std::to_string(rows.size()) + ".";
        const auto it = obj.lower_bound(at);
        if (it == obj.end() || it->first.compare(0, at.size(), at) != 0)
            return rows;
        rows.push_back(std::move(at));
    }
}

/** nullptr, or why an /incidentz body is malformed: its "count" must
 *  be the number of rows it carries. */
const char*
CheckIncidentCount(const JsonObject& obj)
{
    return Field(obj, "count") ==
                   static_cast<double>(IncidentRows(obj).size())
               ? nullptr
               : "\"count\" is not the number of incident rows";
}

/** A record kind: the "type" tag its JSONL lines carry, or the route
 *  ("/...") its JSON body is served at; the keys every record of the
 *  kind carries (a required string may not be empty); and, for some
 *  kinds, a check of the values. */
struct RecordKind {
    const char* tag;
    std::vector<std::string> required;
    const char* (*check)(const JsonObject&) = nullptr;
};

const RecordKind kBuildz = {
    "/buildz",
    {"version", "git_describe", "build_type", "schema_version"},
};

const RecordKind kProfilez = {
    "/profilez",
    {"schema_version", "cpu_seconds.device",
     "cpu_seconds.predict_check", "cpu_seconds.recover",
     "cpu_seconds.total", "efficiency.speedup_estimate",
     "efficiency.energy_ratio", "efficiency.window", "invocations"},
};

const RecordKind kTsdbz = {
    "/tsdbz",
    {"schema_version", "now_ms", "series", "points_total",
     "sampler_running", "selected"},
};

const RecordKind kIncidentz = {
    "/incidentz",
    {"schema_version", "count", "opened", "dumped", "suppressed"},
    CheckIncidentCount,
};

const RecordKind kAuditLine = {"audit", {}};

const RecordKind kScenarioLine = {"scenario", {"name", "status"}};

/** One read input: where it came from, its header, and the records of
 *  the kind it was read for. */
struct Input {
    std::string path;
    bool has_meta = false;     ///< a dump's "meta" line; every body.
    long schema_version = -1;  ///< the meta line's, or the body's own.
    JsonObject meta;           ///< the meta line (dumps).
    std::vector<JsonObject> kept;  ///< records of the kind read for.
};

/** A ".csv" metrics-dump row ("type,name,value,sum,min,max,p50,p90,
 *  p99,notes") as the JSONL record it mirrors. */
bool
ParseCsvRow(const std::string& line, JsonObject* obj)
{
    static const char* kColumns[] = {"type", "name", "value",
                                     "sum",  "min",  "max",
                                     "p50",  "p90",  "p99"};
    std::vector<std::string> cells(1);
    for (char c : line) {
        if (c == ',')
            cells.emplace_back();
        else
            cells.back().push_back(c);
    }
    if (cells.size() < 3)
        return false;
    // A histogram row short of its quantiles is skipped, like a row of
    // an unknown type.
    if (cells[0] == "histogram" && cells.size() < 9)
        return true;
    for (size_t c = 0; c < cells.size() && c < std::size(kColumns); ++c) {
        JsonValue& v = (*obj)[kColumns[c]];
        v.kind = c < 2 ? JsonValue::Kind::kString : JsonValue::Kind::kNumber;
        v.text = cells[c];
        v.number = std::strtod(cells[c].c_str(), nullptr);
    }
    (*obj)["count"] = (*obj)["value"];  // a histogram's event count.
    return true;
}

/**
 * Read @p path as an input of @p kind into @p in. For a route kind the
 * body, fetched from a live target or read from a saved file, is the
 * one record and carries its own schema_version. Otherwise @p path is
 * a JSONL dump read line by line: its "meta" line, bare or as a CSV
 * "# {...}" comment, is the header; records of @p kind are kept; every
 * other record goes to @p visit. A null @p kind reads a metrics dump or
 * sample stream, whose ".csv" form holds one CSV row per record.
 * Returns false, with a path:line diagnostic on stderr, on an I/O or
 * parse failure, a kept record missing a required key or failing its
 * kind's check, or no record of @p kind at all.
 */
bool
ReadRecords(const std::string& path, const RecordKind* kind, Input* in,
            const std::function<void(const JsonObject&)>& visit = {})
{
    const bool route = kind != nullptr && kind->tag[0] == '/';
    in->path = path;
    in->has_meta = route;  // a route body is its own header.
    const bool csv = kind == nullptr && EndsWith(path, ".csv");
    std::ifstream file;
    std::istringstream body;
    std::istream* lines = &file;
    if (route) {
        std::string text;
        Target live;
        if (!FetchTarget(path, kind->tag, &text, &live))
            return false;
        body.str(std::move(text));
        lines = &body;
    } else {
        file.open(path);
        if (!file) {
            std::fprintf(stderr, "rumba-stat: cannot open %s\n",
                         path.c_str());
            return false;
        }
    }
    std::string line;
    size_t lineno = 0;
    const auto bad = [&](const std::string& why) {
        std::fprintf(stderr, "rumba-stat: %s:%zu: %s\n", path.c_str(),
                     lineno, why.c_str());
        return false;
    };
    while (std::getline(*lines, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // A CSV dump carries its meta header as a "# {...}" comment.
        const bool csv_row = csv && line[0] != '#';
        if (!route && line[0] == '#') {
            const size_t brace = line.find('{');
            if (brace == std::string::npos)
                continue;
            line.erase(0, brace);
        }
        JsonObject obj;
        if (csv_row ? !ParseCsvRow(line, &obj) : !ParseJsonLine(line, &obj))
            return bad(csv_row ? "bad CSV row" : "malformed JSON");
        const std::string type = route ? kind->tag : TextField(obj, "type");
        if (type == "meta") {
            in->has_meta = true;
            in->schema_version = IntField(obj, "schema_version", -1);
            in->meta = std::move(obj);
            continue;
        }
        if (route)
            in->schema_version = IntField(obj, "schema_version");
        if (kind == nullptr || type != kind->tag) {
            if (visit)
                visit(obj);
            continue;
        }
        for (const std::string& key : kind->required) {
            const auto it = obj.find(key);
            if (it == obj.end() ||
                (it->second.kind == JsonValue::Kind::kString &&
                 it->second.text.empty()))
                return bad("missing key \"" + key + "\"");
        }
        if (kind->check != nullptr) {
            if (const char* why = kind->check(obj))
                return bad(why);
        }
        in->kept.push_back(std::move(obj));
    }
    if (kind == nullptr || !in->kept.empty())
        return true;
    std::fprintf(stderr, "rumba-stat: %s: no \"%s\" record\n",
                 path.c_str(), kind->tag);
    return false;
}

// ---------------------------------------------------------------------------
// Gate: the one regression engine behind every baseline comparison.
// ---------------------------------------------------------------------------

/** The direction in which a gated figure gets worse. */
enum class Worse { kEitherWay, kHigher, kLower };

/** How far a gated figure may move: a default plus per-metric
 *  overrides, relative to the larger magnitude of the two values, or
 *  absolute. */
struct Tolerance {
    double value = 0.0;
    bool absolute = false;
    std::map<std::string, double> per_metric;
};

/** Counts what one gate checks, printing a REGRESSION line, naming the
 *  figure, per regression. */
struct Gate {
    Tolerance tol;
    size_t gated = 0;
    size_t regressions = 0;
    std::string note;  ///< appended to the verdict line.

    /** Gate one figure: a regression when it moved the @p worse way by
     *  more than its tolerance. */
    void
    Compare(const std::string& kind, const std::string& name, double base,
            double cand, Worse worse = Worse::kEitherWay)
    {
        const auto it = tol.per_metric.find(name);
        const double limit =
            it == tol.per_metric.end() ? tol.value : it->second;
        const double delta = worse == Worse::kHigher  ? cand - base
                             : worse == Worse::kLower ? base - cand
                                                      : std::fabs(cand - base);
        const double scale =
            tol.absolute ? 1.0 : std::max(std::fabs(base), std::fabs(cand));
        const bool held = base == cand || delta <= limit * scale;
        char detail[160] = "";
        if (!held) {
            std::snprintf(detail, sizeof(detail),
                          "%.6g -> %.6g  (moved %.3g > tol %.3g %s)", base,
                          cand, delta / scale, limit,
                          tol.absolute ? "absolute" : "relative");
        }
        Expect(held, kind, name, detail);
    }

    /** Gate one presence rule (a metric, a series, a correlation or a
     *  passing scenario the baseline had): a regression when @p held is
     *  false. */
    void
    Expect(bool held, const std::string& kind, const std::string& name,
           const std::string& detail)
    {
        ++gated;
        if (held)
            return;
        ++regressions;
        std::printf("REGRESSION  %-9s %-32s %s\n", kind.c_str(),
                    name.c_str(), detail.c_str());
    }
};

/**
 * Compare @p cand against @p base: refuses inputs written under
 * different schema versions (exit 2), else runs @p gate on a fresh
 * Gate and prints the verdict line (exit 0 pass, 1 regressed).
 */
int
RunGate(const Input& base, const Input& cand, const Tolerance& tol,
        const char* noun, const std::function<void(Gate&)>& gate)
{
    if (base.has_meta && cand.has_meta &&
        base.schema_version != cand.schema_version) {
        std::fprintf(stderr,
                     "rumba-stat: schema mismatch: %s is v%ld, %s is v%ld "
                     "— refusing to compare\n",
                     base.path.c_str(), base.schema_version,
                     cand.path.c_str(), cand.schema_version);
        return 2;
    }
    Gate checked{tol, 0, 0, ""};
    gate(checked);
    std::printf("%s: %zu %s compared, %zu regressions%s\n",
                checked.regressions == 0 ? "PASS" : "FAIL", checked.gated,
                noun, checked.regressions, checked.note.c_str());
    return checked.regressions == 0 ? 0 : 1;
}

/** A checked command line. */
struct Args {
    std::vector<std::string> inputs;  ///< positional dumps or targets.
    std::string baseline;             ///< --baseline ("" = none).
    Tolerance tol;                    ///< --tol, --tol-metric.
    size_t worst = 5;                 ///< --worst.
    std::set<std::string> switches;   ///< --check, --include-latency.
};

/**
 * The gating half of a subcommand that read @p cand as @p kind: without
 * --baseline, returns @p alone; otherwise reads the baseline the same
 * way and runs @p gate on it under RunGate.
 */
int
GateBaseline(const Args& args, const RecordKind& kind, const Input& cand,
             int alone, const char* noun,
             const std::function<void(const Input& base, Gate&)>& gate)
{
    if (args.baseline.empty())
        return alone;
    Input base;
    if (!ReadRecords(args.baseline, &kind, &base))
        return 2;
    return RunGate(base, cand, args.tol, noun,
                   [&](Gate& checked) { gate(base, checked); });
}

// ---------------------------------------------------------------------------
// Dump: the fold summary, diff and scrape share.
// ---------------------------------------------------------------------------

/** Histogram summary row from a metrics dump. */
struct HistogramStats {
    double count = 0, p50 = 0, p99 = 0;
};

/** Everything rumba-stat extracts from one metrics dump, sample stream
 *  or scraped exposition. */
struct Dump {
    Input in;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;
    /** Threshold trajectory: the tuner.threshold gauge of each
     *  stream sample (a metrics dump has none). */
    std::vector<double> thresholds;
    size_t samples = 0;  ///< stream "sample" lines seen.
};

/** Read a metrics dump or sample stream (JSONL, or a ".csv" metrics
 *  dump) into @p dump. */
bool
ReadDump(const std::string& path, Dump* dump)
{
    return ReadRecords(path, nullptr, &dump->in,
                       [dump](const JsonObject& obj) {
        const std::string type = TextField(obj, "type");
        const std::string name = TextField(obj, "name");
        if (type == "counter") {
            dump->counters[name] = Field(obj, "value");
        } else if (type == "gauge") {
            dump->gauges[name] = Field(obj, "value");
        } else if (type == "histogram") {
            dump->histograms[name] = {Field(obj, "count"),
                                      Field(obj, "p50"), Field(obj, "p99")};
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
        }
        // Unknown types are forward-compatible: ignored (so are the
        // "trace" lines older metrics dumps carry).
    });
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
PrintSummary(const Dump& dump)
{
    std::printf("== %s ==\n", dump.in.path.c_str());
    if (dump.in.has_meta) {
        const std::string sanitizers = TextField(dump.in.meta, "sanitizers");
        std::printf("meta: schema v%ld, %s on %s, build %s%s%s\n",
                    dump.in.schema_version,
                    TextField(dump.in.meta, "wall_time").c_str(),
                    TextField(dump.in.meta, "hostname").c_str(),
                    TextField(dump.in.meta, "build_type").c_str(),
                    sanitizers.empty() ? "" : ", sanitizers ",
                    sanitizers.c_str());
    } else {
        std::printf("meta: (no header — pre-v2 dump)\n");
    }
    std::printf("%zu counters, %zu gauges, %zu histograms, %zu stream "
                "samples\n\n",
                dump.counters.size(), dump.gauges.size(),
                dump.histograms.size(), dump.samples);
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

int
CmdSummary(const Args& args)
{
    for (size_t i = 0; i < args.inputs.size(); ++i) {
        Dump dump;
        if (!ReadDump(args.inputs[i], &dump))
            return 2;
        if (i > 0)
            std::printf("\n");
        PrintSummary(dump);
    }
    return 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/** True when the metric measures wall time (machine-dependent). */
bool
IsLatencyMetric(const std::string& name)
{
    return name.size() > 3 && EndsWith(name, "_ns");
}

/**
 * Gate every metric of @p base against @p cand: one missing from the
 * candidate or moved past its tolerance is a regression. Histograms
 * gate their event count, and their p50 unless @p counts_only (a
 * scrape carries buckets, not the exporter's quantile estimates) or
 * they time something and --include-latency is off.
 */
int
GateMetrics(const Dump& base, const Dump& cand, const Args& args,
            bool counts_only)
{
    return RunGate(base.in, cand.in, args.tol, "metrics", [&](Gate& gate) {
        const std::string base_san = TextField(base.in.meta, "sanitizers");
        const std::string cand_san = TextField(cand.in.meta, "sanitizers");
        if (base.in.has_meta && cand.in.has_meta && base_san != cand_san) {
            std::printf("note: sanitizer configs differ (\"%s\" vs "
                        "\"%s\") — latency metrics are not comparable\n",
                        base_san.c_str(), cand_san.c_str());
        }
        const auto values = [&gate](const char* kind,
                                    const std::map<std::string, double>& b,
                                    const std::map<std::string, double>& c) {
            for (const auto& [name, value] : b) {
                const auto it = c.find(name);
                if (it == c.end())
                    gate.Expect(false, kind, name, "missing in candidate");
                else
                    gate.Compare(kind, name, value, it->second);
            }
        };
        values("counter", base.counters, cand.counters);
        values("gauge", base.gauges, cand.gauges);
        size_t skipped_latency = 0;
        for (const auto& [name, h] : base.histograms) {
            const auto it = cand.histograms.find(name);
            if (it == cand.histograms.end()) {
                gate.Expect(false, "histogram", name,
                            "missing in candidate");
                continue;
            }
            // Event counts are deterministic; the value distribution of
            // a latency histogram is machine noise unless asked for.
            gate.Compare("histogram", name + ".count", h.count,
                         it->second.count);
            if (counts_only)
                continue;
            if (IsLatencyMetric(name) &&
                args.switches.count("--include-latency") == 0) {
                ++skipped_latency;
                continue;
            }
            gate.Compare("histogram", name + ".p50", h.p50,
                         it->second.p50);
        }
        gate.note = ", " + std::to_string(skipped_latency) +
                    " latency distributions skipped";
    });
}

int
CmdDiff(const Args& args)
{
    Dump base, cand;
    if (!ReadDump(args.inputs[0], &base) || !ReadDump(args.inputs[1], &cand))
        return 2;
    return GateMetrics(base, cand, args, /*counts_only=*/false);
}

// ---------------------------------------------------------------------------
// scrape: fetch / parse / validate Prometheus text exposition.
// ---------------------------------------------------------------------------

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
    if (name.size() > len && EndsWith(name, suffix))
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
    double count = 0;
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
            } else if (s.prom_name == base + "_count") {
                h.count = s.value;
                h.has_count = true;
            }
        } else if (type == "gauge") {
            // A histogram's companion extrema gauges belong to it;
            // everything else is a plain gauge.
            const std::string min_base = StripSuffix(base, "_min");
            const std::string max_base = StripSuffix(base, "_max");
            if ((!min_base.empty() &&
                 scrape->types.count(min_base) &&
                 scrape->types[min_base] == "histogram") ||
                (!max_base.empty() &&
                 scrape->types.count(max_base) &&
                 scrape->types[max_base] == "histogram")) {
                hists.try_emplace(key);
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
        dump->histograms[name].count = h.count;
    }
}

int
CmdScrape(const Args& args)
{
    const std::string& target = args.inputs[0];
    std::string body;
    Target live;
    if (!FetchTarget(target, "/metrics", &body, &live))
        return 2;
    PromScrape scrape;
    ParseExposition(body, &scrape);
    Dump dump;
    dump.in.path = target;
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
    if (args.switches.count("--check") != 0) {
        // Live targets also serve JSON diagnostics; validate that
        // /buildz, /profilez, /tsdbz and /incidentz are well-formed
        // and carry the keys dashboards key on. File targets only
        // have the exposition.
        size_t bad_endpoints = 0;
        if (!live.host.empty()) {
            const std::string root =
                "http://" + live.host + ":" + std::to_string(live.port);
            for (const RecordKind* route :
                 {&kBuildz, &kProfilez, &kTsdbz, &kIncidentz}) {
                Input in;
                if (!ReadRecords(root + route->tag, route, &in))
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
                    live.host.empty() ? ""
                                      : "; /buildz, /profilez, /tsdbz and "
                                        "/incidentz valid");
        return 0;
    }
    if (!args.baseline.empty()) {
        Dump base;
        if (!ReadDump(args.baseline, &base))
            return 2;
        return GateMetrics(base, dump, args, /*counts_only=*/true);
    }
    return PrintSummary(dump);
}

// ---------------------------------------------------------------------------
// profile: summarize / gate the live cost profiler (/profilez).
// ---------------------------------------------------------------------------

int
CmdProfile(const Args& args)
{
    Input cand;
    if (!ReadRecords(args.inputs[0], &kProfilez, &cand))
        return 2;
    const JsonObject& obj = cand.kept.front();

    std::printf("== %s ==\n", cand.path.c_str());
    // obs::ProfileStage order.
    static const char* kStages[] = {"queue_wait", "device",
                                    "predict_check", "recover",
                                    "compensate", "merge", "audit",
                                    "verify", "other"};
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
    const double speedup = Field(obj, "efficiency.speedup_estimate");
    const double energy = Field(obj, "efficiency.energy_ratio");
    std::printf("efficiency: speedup estimate %.4g, energy ratio "
                "%.4g (window %.0f of %.0f invocations)\n",
                speedup, energy, Field(obj, "efficiency.window"),
                Field(obj, "efficiency.invocations"));
    return GateBaseline(args, kProfilez, cand, 0, "efficiency figures",
                        [&](const Input& base, Gate& gate) {
        const JsonObject& before = base.kept.front();
        std::printf("\nefficiency gate vs %s (tol %.3g relative):\n",
                    args.baseline.c_str(), args.tol.value);
        gate.Compare("figure", "speedup estimate",
                     Field(before, "efficiency.speedup_estimate"), speedup,
                     Worse::kLower);
        gate.Compare("figure", "energy ratio",
                     Field(before, "efficiency.energy_ratio"), energy,
                     Worse::kHigher);
    });
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
CmdTsdb(const Args& args)
{
    Input cand;
    if (!ReadRecords(args.inputs[0], &kTsdbz, &cand))
        return 2;
    const JsonObject& obj = cand.kept.front();

    std::printf("== %s ==\n", cand.path.c_str());
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
    // Coverage gate: every series the baseline retained points for
    // must still exist and still have points — a series going dark
    // means a probe was unwired or the sampler stopped feeding it.
    // Values are workload-dependent, so only presence is gated.
    return GateBaseline(args, kTsdbz, cand, 0, "series",
                        [&](const Input& base, Gate& gate) {
        const JsonObject& before = base.kept.front();
        std::printf("\ncoverage gate vs %s:\n", args.baseline.c_str());
        for (const std::string& name : TsdbzSeries(before)) {
            const std::string points = "series_detail." + name + ".points";
            if (Field(before, points) <= 0)
                continue;
            const double cand_points = Field(obj, points, -1.0);
            gate.Expect(cand_points > 0, "series", name,
                        cand_points < 0
                            ? "retained in baseline, missing from candidate"
                            : "has no points in candidate window");
        }
    });
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
    for (const std::string& at : IncidentRows(obj))
        if (Field(obj, at + "sources") >= min_sources)
            ++correlated;
    return correlated;
}

int
CmdIncident(const Args& args)
{
    Input cand;
    if (!ReadRecords(args.inputs[0], &kIncidentz, &cand))
        return 2;
    const JsonObject& obj = cand.kept.front();

    std::printf("== %s ==\n", cand.path.c_str());
    const std::vector<std::string> rows = IncidentRows(obj);
    std::printf("%zu bundle(s) kept (%.0f opened, %.0f dumped to "
                "disk, %.0f suppressed by rate limit)%s%s\n",
                rows.size(), Field(obj, "opened"), Field(obj, "dumped"),
                Field(obj, "suppressed"),
                TextField(obj, "dir").empty() ? "" : ", dir ",
                TextField(obj, "dir").c_str());
    if (!rows.empty())
        std::printf("  %-4s %12s %8s %8s %6s  %s\n", "id", "onset_ms",
                    "sources", "signals", "joins", "kinds");
    for (const std::string& at : rows) {
        std::printf("  %-4.0f %12.1f %8.0f %8.0f %6.0f  %s%s%s\n",
                    Field(obj, at + "id"), Field(obj, at + "onset_ms"),
                    Field(obj, at + "sources"),
                    Field(obj, at + "signals"),
                    Field(obj, at + "joins"),
                    TextField(obj, at + "source_kinds").c_str(),
                    TextField(obj, at + "path").empty() ? "" : " -> ",
                    TextField(obj, at + "path").c_str());
    }
    // Correlation gate: if the baseline run produced a multi-source
    // incident (the forensics pipeline end-to-end: detectors firing,
    // signals joining, bundle assembled), the candidate must too.
    // Counts are workload-dependent, so >=1 is the bar, not equality.
    return GateBaseline(args, kIncidentz, cand, 0, "correlations",
                        [&](const Input& base, Gate& gate) {
        const size_t base_correlated =
            CorrelatedIncidents(base.kept.front(), 2.0);
        const size_t cand_correlated = CorrelatedIncidents(obj, 2.0);
        std::printf("\ncorrelation gate vs %s: baseline %zu multi-source "
                    "incident(s), candidate %zu\n",
                    args.baseline.c_str(), base_correlated,
                    cand_correlated);
        if (base_correlated > 0) {
            gate.Expect(cand_correlated > 0, "incident",
                        "multi-source correlation",
                        "baseline correlated >=2 sources, candidate "
                        "produced none");
        }
    });
}

// ---------------------------------------------------------------------------
// audit: summarize / regression-gate RUMBA_AUDIT_OUT labeled dumps.
// ---------------------------------------------------------------------------

/** Checker calibration counts: tp, fp (recovered), fn (accepted), tn. */
using Calibration = std::array<double, 4>;

/** Precision and recall of @p c (1 when nothing fired / needed a fix). */
std::pair<double, double>
PrecisionRecall(const Calibration& c)
{
    const double fires = c[0] + c[1], needed = c[0] + c[2];
    return {fires == 0 ? 1.0 : c[0] / fires,
            needed == 0 ? 1.0 : c[0] / needed};
}

/** Derived calibration summary of one audit dump's "audit" lines. */
struct AuditStats {
    size_t forced = 0, violations = 0;
    double elements = 0;
    double mean_true_error = 0, mean_abs_gap = 0;
    double violation_rate = 0, precision = 1.0, recall = 1.0;
    Calibration total = {};
    std::map<long, Calibration> per_shard;
};

AuditStats
SummarizeAudits(const std::vector<JsonObject>& audits)
{
    AuditStats s;
    double gap_sum = 0, err_sum = 0;
    for (const JsonObject& r : audits) {
        s.forced += Field(r, "forced") != 0 ? 1 : 0;
        s.violations += Field(r, "toq_violation") != 0 ? 1 : 0;
        // Older dumps predate element-budget striding and carry only
        // "elements" (then every element was audited).
        s.elements += Field(r, "audited_elements", Field(r, "elements"));
        const double true_error = Field(r, "true_error_pct");
        err_sum += true_error;
        gap_sum += std::fabs(true_error - Field(r, "estimated_error_pct"));
        Calibration& shard = s.per_shard[IntField(r, "shard")];
        static const char* kCounts[] = {"tp", "fp", "fn", "tn"};
        for (size_t i = 0; i < shard.size(); ++i) {
            const double n = Field(r, kCounts[i]);
            shard[i] += n;
            s.total[i] += n;
        }
    }
    const double audits_n = static_cast<double>(audits.size());
    if (!audits.empty()) {
        s.mean_true_error = err_sum / audits_n;
        s.mean_abs_gap = gap_sum / audits_n;
        s.violation_rate = static_cast<double>(s.violations) / audits_n;
    }
    std::tie(s.precision, s.recall) = PrecisionRecall(s.total);
    return s;
}

int
CmdAudit(const Args& args)
{
    // "audit" lines are kept; the per-element "audit_element" lines
    // (up to retained results x audited elements) are only counted.
    Input dump;
    size_t element_lines = 0, needs_fix = 0;
    if (!ReadRecords(args.inputs[0], &kAuditLine, &dump,
                     [&](const JsonObject& obj) {
                         if (TextField(obj, "type") != "audit_element")
                             return;
                         ++element_lines;
                         needs_fix += Field(obj, "needs_fix") != 0 ? 1 : 0;
                     }))
        return 2;
    const AuditStats s = SummarizeAudits(dump.kept);

    std::printf("== %s ==\n", dump.path.c_str());
    if (dump.has_meta)
        std::printf("meta: schema v%ld\n", dump.schema_version);
    std::printf(
        "%zu audits (%zu forced), %.0f elements audited (%zu element "
        "lines, %zu needing a fix)\n",
        dump.kept.size(), s.forced, s.elements, element_lines, needs_fix);
    std::printf(
        "true TOQ violations: %zu / %zu (rate %.4f, bound %.4g%%)\n",
        s.violations, dump.kept.size(), s.violation_rate,
        Field(dump.kept.front(), "toq_bound_pct"));
    std::printf(
        "mean true error %.4g%%   mean |true - estimated| gap %.4g%%\n"
        "\n",
        s.mean_true_error, s.mean_abs_gap);

    std::printf("checker calibration (accelerator-served elements):\n");
    std::printf("  %-8s %10s %10s %10s %10s %10s %8s\n", "shard",
                "tp", "fp(rec)", "fn(acc)", "tn", "precision",
                "recall");
    const auto row = [](const std::string& label, const Calibration& c) {
        const auto [precision, recall] = PrecisionRecall(c);
        std::printf("  %-8s %10.0f %10.0f %10.0f %10.0f %10.4f %8.4f\n",
                    label.c_str(), c[0], c[1], c[2], c[3], precision,
                    recall);
    };
    for (const auto& [shard, counts] : s.per_shard)
        row(std::to_string(shard), counts);
    row("total", s.total);

    if (args.worst > 0) {
        // NaN ranks last, so the order stays a strict weak ordering.
        const auto true_error = [](const JsonObject* r) {
            const double v = Field(*r, "true_error_pct");
            return std::isnan(v) ? -HUGE_VAL : v;
        };
        std::vector<const JsonObject*> ranked;
        ranked.reserve(dump.kept.size());
        for (const JsonObject& r : dump.kept)
            ranked.push_back(&r);
        std::sort(ranked.begin(), ranked.end(),
                  [&](const JsonObject* a, const JsonObject* b) {
                      return true_error(a) > true_error(b);
                  });
        std::printf("\nworst %zu audited invocations by true error:\n",
                    std::min(args.worst, ranked.size()));
        std::printf("  %-12s %-6s %12s %12s %5s %s\n", "trace_id",
                    "shard", "true_err%", "est_err%", "viol",
                    "forced");
        for (size_t i = 0; i < ranked.size() && i < args.worst; ++i) {
            const JsonObject& r = *ranked[i];
            const bool forced = Field(r, "forced") != 0;
            std::printf("  %-12.0f %-6ld %12.4g %12.4g %5s %s\n",
                        Field(r, "trace_id"), IntField(r, "shard"),
                        Field(r, "true_error_pct"),
                        Field(r, "estimated_error_pct"),
                        Field(r, "toq_violation") != 0 ? "YES" : "no",
                        forced ? TextField(r, "forced_reason").c_str()
                               : "-");
        }
    }
    return GateBaseline(args, kAuditLine, dump, 0, "calibration figures",
                        [&](const Input& base, Gate& gate) {
        const AuditStats bs = SummarizeAudits(base.kept);
        std::printf("\ncalibration gate vs %s (tol %.4f absolute):\n",
                    args.baseline.c_str(), args.tol.value);
        gate.Compare("figure", "checker precision", bs.precision,
                     s.precision, Worse::kLower);
        gate.Compare("figure", "checker recall", bs.recall, s.recall,
                     Worse::kLower);
        gate.Compare("figure", "true TOQ violation rate",
                     bs.violation_rate, s.violation_rate, Worse::kHigher);
    });
}

// ---------------------------------------------------------------------------
// scenarios: summarize / gate a scenario-matrix dump
// (tools/rumba_scenarios --out, RUMBA_SCENARIO_OUT).
// ---------------------------------------------------------------------------

const JsonObject*
FindScenario(const Input& dump, const std::string& name)
{
    for (const JsonObject& row : dump.kept)
        if (TextField(row, "name") == name)
            return &row;
    return nullptr;
}

int
CmdScenarios(const Args& args)
{
    Input dump;
    if (!ReadRecords(args.inputs[0], &kScenarioLine, &dump))
        return 2;

    std::printf("== %s ==\n", dump.path.c_str());
    size_t pass = 0, fail = 0, skip = 0;
    for (const JsonObject& row : dump.kept) {
        const std::string status = TextField(row, "status");
        if (status == "pass")
            ++pass;
        else if (status == "skip")
            ++skip;
        else
            ++fail;
        std::printf("  %-5s %-24s %-10s %-8s adm=%-3s offered=%-6.0f "
                    "served=%-6.0f shed=%-5.0f rejected=%-5.0f "
                    "gold_p99=%.1fms loss=%.3f\n",
                    status.c_str(), TextField(row, "name").c_str(),
                    TextField(row, "workload").c_str(),
                    TextField(row, "arrival").c_str(),
                    Field(row, "admission") != 0 ? "on" : "off",
                    Field(row, "offered"), Field(row, "served"),
                    Field(row, "shed"), Field(row, "rejected"),
                    Field(row, "gold_p99_ms"), Field(row, "loss_fraction"));
        const std::string violations = TextField(row, "violations");
        if (!violations.empty())
            std::printf("        violations: %s\n", violations.c_str());
    }
    std::printf("%zu scenarios: %zu pass, %zu fail/error, %zu skip\n",
                dump.kept.size(), pass, fail, skip);

    // Gate: any scenario the baseline passed must still pass (a skip
    // is neutral — the environment forced it off, e.g. an external
    // RUMBA_FAULT_PLAN). New scenarios and fixed failures are notes.
    return GateBaseline(args, kScenarioLine, dump, fail == 0 ? 0 : 1,
                        "baseline scenarios",
                        [&](const Input& base, Gate& gate) {
        std::printf("\nscenario gate vs %s:\n", args.baseline.c_str());
        for (const JsonObject& brow : base.kept) {
            const std::string was = TextField(brow, "status");
            const std::string name = TextField(brow, "name");
            const JsonObject* crow = FindScenario(dump, name);
            const std::string status =
                crow == nullptr ? "(missing)" : TextField(*crow, "status");
            const std::string violations =
                crow == nullptr ? "" : TextField(*crow, "violations");
            if (was == "pass") {
                gate.Expect(status == "pass" || status == "skip",
                            "scenario", name,
                            "pass -> " + status +
                                (violations.empty() ? "" : ": " + violations));
            } else if (status == "pass") {
                std::printf("note: %s now passes (was %s)\n", name.c_str(),
                            was.c_str());
            }
        }
        for (const JsonObject& crow : dump.kept) {
            const std::string name = TextField(crow, "name");
            if (FindScenario(base, name) == nullptr)
                std::printf("note: new scenario %s (%s) — not in "
                            "baseline\n",
                            name.c_str(), TextField(crow, "status").c_str());
        }
    });
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
        "sample streams (JSONL; '.csv' metric dumps load too); other\n"
        "record types, such as older dumps' \"trace\" lines, are\n"
        "ignored. summary's threshold trajectory is a stream's\n"
        "tuner.threshold samples (none for a metric dump).\n"
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
        "per-stage CPU seconds and shares and the rolling\n"
        "speedup/energy estimate; --baseline gates the two\n"
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
        "new scenarios and fixed failures are notes).\n"
        "\n"
        "Each gate prints a REGRESSION line per regressed metric,\n"
        "series, figure or scenario, then \"PASS|FAIL: <n> <figures>\n"
        "compared, <m> regressions\". A tolerance is a finite,\n"
        "non-negative number, --worst a non-negative integer, a port\n"
        "1-65535. JSON nested over 8 objects deep, a missing required\n"
        "key, or an /incidentz count that is not its row count is\n"
        "malformed input (exit 2).\n");
    return 2;
}

// ---------------------------------------------------------------------------
// Argument parser: one table row per subcommand. Every number and port
// is parsed and checked here, before any input is read.
// ---------------------------------------------------------------------------

/** How a command-line value is parsed and checked. */
enum class ArgType { kPath, kTarget, kTolerance, kMetricTolerance, kCount };

/** A flag that takes a value. */
struct ValueFlag {
    const char* name;
    ArgType type;
};

/** One subcommand: its entry point and its command line. */
struct Command {
    const char* name;
    int (*run)(const Args&);
    size_t inputs;  ///< positional count; 0 = one or more.
    ArgType input;  ///< kPath or kTarget.
    std::vector<ValueFlag> flags;
    std::vector<std::string> switches;
    Tolerance tol;  ///< --tol default, relative or absolute.
};

const Command kCommands[] = {
    {"summary", CmdSummary, 0, ArgType::kPath, {}, {}, {}},
    {"diff", CmdDiff, 2, ArgType::kPath,
     {{"--tol", ArgType::kTolerance},
      {"--tol-metric", ArgType::kMetricTolerance}},
     {"--include-latency"}, {}},
    {"scrape", CmdScrape, 1, ArgType::kTarget,
     {{"--baseline", ArgType::kPath},
      {"--tol", ArgType::kTolerance},
      {"--tol-metric", ArgType::kMetricTolerance}},
     {"--check", "--include-latency"}, {}},
    {"profile", CmdProfile, 1, ArgType::kTarget,
     {{"--baseline", ArgType::kTarget}, {"--tol", ArgType::kTolerance}},
     {}, {0.15, false, {}}},
    {"tsdb", CmdTsdb, 1, ArgType::kTarget,
     {{"--baseline", ArgType::kTarget}}, {}, {}},
    {"incident", CmdIncident, 1, ArgType::kTarget,
     {{"--baseline", ArgType::kTarget}}, {}, {}},
    {"audit", CmdAudit, 1, ArgType::kPath,
     {{"--baseline", ArgType::kPath},
      {"--tol", ArgType::kTolerance},
      {"--worst", ArgType::kCount}},
     {}, {0.05, /*absolute=*/true, {}}},
    {"scenarios", CmdScenarios, 1, ArgType::kPath,
     {{"--baseline", ArgType::kPath}}, {}, {}},
};

/** A tolerance: all of @p text, a finite, non-negative number. */
bool
ParseTolerance(const std::string& text, double* out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end && std::isfinite(*out) &&
           *out >= 0;
}

/** Check @p text as @p type and store it in @p args: a path or target
 *  is --baseline when @p flag names it, else a positional input. */
bool
ParseArg(ArgType type, const std::string& flag, const std::string& text,
         Args* args)
{
    Target target;
    switch (type) {
      case ArgType::kTolerance:
        return ParseTolerance(text, &args->tol.value);
      case ArgType::kMetricTolerance: {
        const size_t eq = text.find('=');
        return eq != std::string::npos &&
               ParseTolerance(text.substr(eq + 1),
                              &args->tol.per_metric[text.substr(0, eq)]);
      }
      case ArgType::kCount: {
        const char* end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, args->worst);
        return ec == std::errc() && ptr == end;
      }
      case ArgType::kTarget:
        if (!ParseTarget(text, "", &target))
            return false;
        break;
      case ArgType::kPath:
        break;
    }
    if (flag.empty())
        args->inputs.push_back(text);
    else
        args->baseline = text;
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Command* cmd = nullptr;
    for (const Command& c : kCommands)
        if (argc >= 2 && std::strcmp(argv[1], c.name) == 0)
            cmd = &c;
    if (cmd == nullptr)
        return Usage();
    Args args;
    args.tol = cmd->tol;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto flag =
            std::find_if(cmd->flags.begin(), cmd->flags.end(),
                         [&](const ValueFlag& f) { return arg == f.name; });
        bool ok = true;
        if (flag != cmd->flags.end() && i + 1 < argc)
            ok = ParseArg(flag->type, arg, argv[++i], &args);
        else if (std::count(cmd->switches.begin(), cmd->switches.end(), arg))
            args.switches.insert(arg);
        else if (!arg.empty() && arg[0] == '-')
            ok = false;
        else
            ok = ParseArg(cmd->input, "", arg, &args);
        if (!ok)
            return Usage();
    }
    if (cmd->inputs == 0 ? args.inputs.empty()
                         : args.inputs.size() != cmd->inputs)
        return Usage();
    return cmd->run(args);
}
