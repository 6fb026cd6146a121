#include "obs/export.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <string>

#include "common/file.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/span.h"
#include "obs/tsdb.h"

#ifndef RUMBA_BUILD_TYPE
#define RUMBA_BUILD_TYPE "unknown"
#endif
#ifndef RUMBA_SANITIZE_FLAGS
#define RUMBA_SANITIZE_FLAGS ""
#endif
#ifndef RUMBA_GIT_DESCRIBE
#define RUMBA_GIT_DESCRIBE "unknown"
#endif
#ifndef RUMBA_VERSION_STRING
#define RUMBA_VERSION_STRING "0.0.0"
#endif

namespace rumba::obs {

std::string
JsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
EscapeJson(const std::string& s)
{
    static const char* kHex = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[(c >> 4) & 0xF];
                out += kHex[c & 0xF];
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonQuote(const std::string& s)
{
    return "\"" + EscapeJson(s) + "\"";
}

RunMetadata
CollectRunMetadata()
{
    RunMetadata meta;
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    meta.wall_time_iso8601 = stamp;
    char host[256] = "unknown";
    if (gethostname(host, sizeof(host)) == 0)
        host[sizeof(host) - 1] = '\0';
    meta.hostname = host;
    meta.version = RUMBA_VERSION_STRING;
    meta.git_describe = RUMBA_GIT_DESCRIBE;
    meta.build_type = RUMBA_BUILD_TYPE;
    meta.sanitizers = RUMBA_SANITIZE_FLAGS;
    return meta;
}

std::string
MetadataJsonLine()
{
    const RunMetadata meta = CollectRunMetadata();
    return "{\"type\":\"meta\",\"schema_version\":" +
           std::to_string(meta.schema_version) +
           ",\"wall_time\":" + JsonQuote(meta.wall_time_iso8601) +
           ",\"hostname\":" + JsonQuote(meta.hostname) +
           ",\"version\":" + JsonQuote(meta.version) +
           ",\"git_describe\":" + JsonQuote(meta.git_describe) +
           ",\"build_type\":" + JsonQuote(meta.build_type) +
           ",\"sanitizers\":" + JsonQuote(meta.sanitizers) + "}";
}

std::string
BuildInfoJson()
{
    const RunMetadata meta = CollectRunMetadata();
    std::string out = "{\"version\":" + JsonQuote(meta.version) +
                      ",\"git_describe\":" + JsonQuote(meta.git_describe) +
                      ",\"build_type\":" + JsonQuote(meta.build_type) +
                      ",\"sanitizers\":" + JsonQuote(meta.sanitizers) +
                      ",\"schema_version\":" +
                      std::to_string(meta.schema_version) + ",\"env\":{";
    // Every feature knob the runtime reads from the environment; only
    // the ones actually set appear, so the scrape shows the effective
    // deployment configuration at a glance.
    static const char* kKnobs[] = {
        "RUMBA_ADMISSION",        "RUMBA_AUDIT_OUT",
        "RUMBA_AUDIT_SAMPLE_N",   "RUMBA_FAULT_PLAN",
        "RUMBA_FLIGHT_DIR",       "RUMBA_INCIDENT_DIR",
        "RUMBA_LOADGEN_OUT",      "RUMBA_LOG",
        "RUMBA_METRICS_OUT",      "RUMBA_METRICS_PORT",
        "RUMBA_OBS_LINGER_MS",    "RUMBA_PROFILE_OUT",
        "RUMBA_REQTRACE_OUT",     "RUMBA_SCENARIO_OUT",
        "RUMBA_STREAM_OUT",       "RUMBA_TRACE_OUT",
        "RUMBA_TSDB_PERIOD_MS",
    };
    bool first = true;
    for (const char* knob : kKnobs) {
        const char* value = std::getenv(knob);
        if (value == nullptr)
            continue;
        if (!first)
            out += ",";
        first = false;
        out += JsonQuote(knob) + ":" + JsonQuote(value);
    }
    out += "}";
    // Runtime shape knobs that are fixed at construction but worth a
    // glance on the same scrape: the recovery queue's configured
    // capacity and the RecoveryPolicy's live re-execution multiple
    // (zero until a runtime registers them).
    auto& registry = Registry::Default();
    out += ",\"runtime\":{\"recovery_queue_capacity\":" +
           JsonNum(registry.GetGauge("recovery.queue_capacity")
                       ->Value()) +
           ",\"recovery_reexec_multiple\":" +
           JsonNum(
               registry.GetGauge("recovery.policy.reexec_multiple")
                   ->Value()) +
           "}}";
    return out;
}

namespace {

/** Local alias so exporter bodies read naturally. */
std::string
JsonStr(const std::string& s)
{
    return JsonQuote(s);
}

}  // namespace

std::string
ToJsonl(const RegistrySnapshot& snapshot)
{
    std::string out;
    for (const auto& c : snapshot.counters) {
        out += "{\"type\":\"counter\",\"name\":" + JsonStr(c.name) +
               ",\"value\":" + std::to_string(c.value) + "}\n";
    }
    for (const auto& c : snapshot.dcounters) {
        out += "{\"type\":\"counter\",\"name\":" + JsonStr(c.name) +
               ",\"value\":" + JsonNum(c.value) + "}\n";
    }
    for (const auto& g : snapshot.gauges) {
        out += "{\"type\":\"gauge\",\"name\":" + JsonStr(g.name) +
               ",\"value\":" + JsonNum(g.value) + "}\n";
    }
    for (const auto& h : snapshot.histograms) {
        out += "{\"type\":\"histogram\",\"name\":" + JsonStr(h.name) +
               ",\"count\":" + std::to_string(h.count) +
               ",\"sum\":" + JsonNum(h.sum) +
               ",\"min\":" + JsonNum(h.min) +
               ",\"max\":" + JsonNum(h.max) +
               ",\"p50\":" + JsonNum(h.p50) +
               ",\"p90\":" + JsonNum(h.p90) +
               ",\"p99\":" + JsonNum(h.p99) + "}\n";
    }
    return out;
}

namespace {

/** Shared row shape for the CSV and table exporters. */
std::vector<std::vector<std::string>>
SnapshotRows(const RegistrySnapshot& snapshot)
{
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : snapshot.counters) {
        rows.push_back({"counter", c.name, std::to_string(c.value), "",
                        "", "", "", "", "", ""});
    }
    for (const auto& c : snapshot.dcounters) {
        rows.push_back({"counter", c.name, Table::Num(c.value, 6), "",
                        "", "", "", "", "", ""});
    }
    for (const auto& g : snapshot.gauges) {
        rows.push_back({"gauge", g.name, Table::Num(g.value, 6), "", "",
                        "", "", "", "", ""});
    }
    for (const auto& h : snapshot.histograms) {
        rows.push_back({"histogram", h.name, std::to_string(h.count),
                        Table::Num(h.sum, 1), Table::Num(h.min, 1),
                        Table::Num(h.max, 1), Table::Num(h.p50, 1),
                        Table::Num(h.p90, 1), Table::Num(h.p99, 1), ""});
    }
    return rows;
}

const std::vector<std::string> kColumns = {
    "type", "name", "value", "sum", "min",
    "max",  "p50",  "p90",   "p99", "notes"};

}  // namespace

std::string
ToCsv(const RegistrySnapshot& snapshot)
{
    Table table(kColumns);
    for (auto& row : SnapshotRows(snapshot))
        table.AddRow(std::move(row));
    return table.ToCsv();
}

Table
ToTable(const RegistrySnapshot& snapshot)
{
    Table table(kColumns);
    for (auto& row : SnapshotRows(snapshot))
        table.AddRow(std::move(row));
    return table;
}

bool
WriteMetricsFile(const std::string& path)
{
    const RegistrySnapshot snapshot = Registry::Default().Snapshot();
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    // The metadata header leads either format; CSV carries it as a
    // "# " comment so the column grid stays rectangular.
    return WriteFile(
        path, csv ? "# " + MetadataJsonLine() + "\n" + ToCsv(snapshot)
                  : MetadataJsonLine() + "\n" + ToJsonl(snapshot));
}

std::string
ExportIfConfigured()
{
    const char* path = std::getenv("RUMBA_METRICS_OUT");
    if (path == nullptr || path[0] == '\0')
        return "";
    Debug("RUMBA_METRICS_OUT: exporting the registry to %s", path);
    if (!WriteMetricsFile(path)) {
        Warn("RUMBA_METRICS_OUT: could not write %s", path);
        return "";
    }
    return path;
}

namespace {

/** Registered flush hooks: a fixed lock-free slot array so the signal
 *  path can walk it without taking a mutex or allocating. Eight
 *  modules register at most one each. */
constexpr size_t kMaxFlushHooks = 16;
std::atomic<void (*)()> g_flush_hooks[kMaxFlushHooks]{};
std::atomic<size_t> g_flush_hook_count{0};

/**
 * Run every registered flush hook. Shared by the orderly at-exit hook
 * and the signal path; does not join the sampler threads (unsafe from
 * a handler) — callers that can, stop them first.
 */
void
FlushFilesBestEffort()
{
    const size_t hooks =
        std::min(g_flush_hook_count.load(std::memory_order_acquire),
                 kMaxFlushHooks);
    for (size_t i = 0; i < hooks; ++i) {
        void (*hook)() = g_flush_hooks[i].load(std::memory_order_acquire);
        if (hook != nullptr)
            hook();
    }
}

void
ExportAtExit()
{
    // Stop the registry sampler first so its final sample (and
    // RUMBA_STREAM_OUT line) lands before the registry is frozen into
    // the dumps. Runs even if a signal flush already fired: the hooks
    // are idempotent rewrites, and the at-exit state is strictly
    // fresher.
    TsdbSampler::Default().Stop();
    FlushFilesBestEffort();
}

/** Set once the signal handler has run; guards the signal path only. */
std::atomic<bool> g_signal_flush_done{false};

void
SignalFlushHandler(int signo)
{
    if (!g_signal_flush_done.exchange(true))
        FlushFilesBestEffort();
    // Restore the default disposition and re-raise so the process
    // still terminates with the conventional signal status.
    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    sigemptyset(&dfl.sa_mask);
    sigaction(signo, &dfl, nullptr);
    raise(signo);
}

/**
 * Best-effort flush of the configured sinks on SIGINT/SIGTERM, so a
 * killed run does not lose the tail of its dumps. Installed only over
 * SIG_DFL dispositions (an application's own handlers are never
 * displaced); after flushing, the default disposition is restored and
 * the signal re-raised so the process still dies with the right
 * status. The hooks allocate and take collector locks from a signal
 * handler — async-signal-unsafe, accepted here as best-effort (the
 * alternative is certain data loss). Idempotent.
 */
void
InstallSignalFlush()
{
    static const bool installed = [] {
        for (int signo : {SIGINT, SIGTERM}) {
            struct sigaction current {};
            if (sigaction(signo, nullptr, &current) != 0)
                continue;
            // Never displace an application's own handler (or an
            // explicit SIG_IGN, e.g. a nohup'd deploy).
            if (current.sa_handler != SIG_DFL)
                continue;
            struct sigaction flush {};
            flush.sa_handler = SignalFlushHandler;
            sigemptyset(&flush.sa_mask);
            flush.sa_flags = 0;
            sigaction(signo, &flush, nullptr);
        }
        return true;
    }();
    (void)installed;
}

}  // namespace

bool
RegisterFlushHook(void (*hook)())
{
    if (hook == nullptr)
        return false;
    // Registering the same hook twice is a no-op (callers register
    // eagerly from constructors).
    const size_t seen =
        std::min(g_flush_hook_count.load(std::memory_order_acquire),
                 kMaxFlushHooks);
    for (size_t i = 0; i < seen; ++i)
        if (g_flush_hooks[i].load(std::memory_order_acquire) == hook)
            return true;
    const size_t slot =
        g_flush_hook_count.fetch_add(1, std::memory_order_acq_rel);
    if (slot >= kMaxFlushHooks) {
        g_flush_hook_count.store(kMaxFlushHooks,
                                 std::memory_order_release);
        Warn("RegisterFlushHook: hook table full (%zu)", kMaxFlushHooks);
        return false;
    }
    g_flush_hooks[slot].store(hook, std::memory_order_release);
    InstallSignalFlush();
    return true;
}

void
InstallAtExitExport()
{
    static const bool armed = [] {
        if (const char* path = std::getenv("RUMBA_METRICS_OUT");
            path != nullptr && path[0] != '\0')
            RegisterFlushHook([] { ExportIfConfigured(); });
        // Touch the singletons so their destructors are registered
        // before this exit hook (hooks run LIFO: export sees live
        // instruments), and so the trace sinks register theirs.
        SpanCollector::Default();
        RequestTraceCollector::Default();
        std::atexit(ExportAtExit);
        return true;
    }();
    (void)armed;
}

}  // namespace rumba::obs
