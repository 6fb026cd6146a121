#ifndef RUMBA_OBS_EXPORT_H_
#define RUMBA_OBS_EXPORT_H_

/**
 * @file
 * Metric and trace exporters: JSONL (one JSON object per line), CSV,
 * and a human-readable table built on common/table. The
 * RUMBA_METRICS_OUT environment variable names a sink file that is
 * written automatically at process exit (armed on first use of
 * Registry::Default()), so every bench and example emits telemetry
 * without code changes; the extension picks the format (.csv writes
 * CSV, anything else JSONL). The same at-exit hook flushes the
 * RUMBA_TRACE_OUT span trace (obs/span.h) and stops the registry
 * sampler that writes the RUMBA_STREAM_OUT stream (obs/tsdb.h).
 *
 * Every file export opens with a run-metadata header — schema
 * version, ISO-8601 wall time, hostname, build type, sanitizer flags,
 * trace-ring capacity — so tools/rumba-stat can refuse to diff
 * incompatible dumps.
 */

#include <string>
#include <vector>

#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rumba::obs {

/**
 * Version of the exported metric/trace/sample schema. Bump when a
 * field changes meaning; rumba-stat refuses to diff dumps whose
 * versions differ.
 */
inline constexpr int kMetricsSchemaVersion = 2;

/** Everything the run-metadata header records about this process. */
struct RunMetadata {
    int schema_version = kMetricsSchemaVersion;
    std::string wall_time_iso8601;  ///< UTC, e.g. 2026-08-07T12:00:00Z.
    std::string hostname;
    std::string version;         ///< project version at compile time.
    std::string git_describe;    ///< `git describe` at compile time.
    std::string build_type;      ///< CMAKE_BUILD_TYPE at compile time.
    std::string sanitizers;      ///< RUMBA_SANITIZE flags ("" = none).
    size_t trace_ring_capacity = 0;  ///< effective TraceRing capacity.
};

/** Collect the current process's run metadata. */
RunMetadata CollectRunMetadata();

/**
 * The run-metadata header as a single JSON object line (no trailing
 * newline): {"type":"meta","schema_version":...,...}.
 */
std::string MetadataJsonLine();

/**
 * Escape @p s for use inside a JSON string literal (quotes,
 * backslashes, and control characters; no surrounding quotes).
 */
std::string EscapeJson(const std::string& s);

/** @p s as a complete JSON string literal (quoted and escaped). */
std::string JsonQuote(const std::string& s);

/** JSON-safe number rendering: finite values via %.9g, otherwise 0. */
std::string JsonNum(double v);

/**
 * Render a snapshot as JSONL. Each metric becomes one line tagged
 * with "type" (counter / gauge / histogram); each trace event becomes
 * one "trace" line.
 */
std::string ToJsonl(const RegistrySnapshot& snapshot,
                    const std::vector<TraceEvent>& trace = {});

/**
 * Render a snapshot as CSV with header
 * type,name,count,value,sum,min,max,p50,p90,p99 (trace events are a
 * JSONL-only concern).
 */
std::string ToCsv(const RegistrySnapshot& snapshot);

/** Render a snapshot as an aligned console table. */
Table ToTable(const RegistrySnapshot& snapshot);

/**
 * Snapshot the default registry and trace ring and write them to
 * @p path (format by extension: .csv selects CSV, otherwise JSONL),
 * preceded by the run-metadata header (a "# "-prefixed comment line
 * in CSV). Returns false on I/O error.
 */
bool WriteMetricsFile(const std::string& path);

/**
 * Honor RUMBA_METRICS_OUT: when the variable names a file, write the
 * current default-registry snapshot there and return the path; when
 * unset (or on I/O failure, after a warning) return "". Idempotent —
 * each call rewrites the file with the latest snapshot, and the
 * at-exit hook makes the final call.
 */
std::string ExportIfConfigured();

/**
 * Build-info surface for the /buildz scrape route: version, git
 * describe (compile-time defines), build type, sanitizer flags,
 * schema version, and every RUMBA_* feature env knob currently set —
 * one JSON object (no trailing newline).
 */
std::string BuildInfoJson();

/**
 * Arm the at-exit telemetry flush (once per process): stop the
 * registry sampler (its final RUMBA_STREAM_OUT line included) and the
 * profiling sampler, then export RUMBA_METRICS_OUT,
 * RUMBA_TRACE_OUT, RUMBA_REQTRACE_OUT and RUMBA_AUDIT_OUT. Called
 * automatically by Registry::Default(). When any of those sinks is
 * configured this also arms a best-effort SIGINT/SIGTERM flush of
 * them, which never displaces an application's own handler and
 * re-raises the signal so the process dies with the right status.
 */
void InstallAtExitExport();

/**
 * Register a best-effort flush hook, invoked (in registration order)
 * alongside the env-configured JSONL sink rewrites by both the
 * at-exit export and the SIGINT/SIGTERM flush, and arm that signal
 * flush. For sinks other than the four above —
 * the forensics dump into RUMBA_INCIDENT_DIR, the load generator's
 * and scenario runner's JSONL reports — so a killed run still writes
 * its partial results. A module registers its hook only when its
 * sink is configured. Hooks run in signal context: they must only
 * try-lock, never block or allocate unboundedly. Re-registering the
 * same function is a no-op; the table holds 8 slots (false, with a
 * warning, when full or @p hook is null).
 */
bool RegisterFlushHook(void (*hook)());

}  // namespace rumba::obs

#endif  // RUMBA_OBS_EXPORT_H_
