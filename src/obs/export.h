#ifndef RUMBA_OBS_EXPORT_H_
#define RUMBA_OBS_EXPORT_H_

/**
 * @file
 * Metric exporters: JSONL (one JSON object per line), CSV,
 * and a human-readable table built on common/table, written through
 * common/file's WriteFile; and the flush-hook table, the one list of
 * sinks written at exit and on SIGINT/SIGTERM. Each sink registers its
 * hook when its module first comes up with the sink configured:
 * RUMBA_METRICS_OUT here (armed on first use of Registry::Default();
 * .csv writes CSV, anything else JSONL), RUMBA_TRACE_OUT,
 * RUMBA_REQTRACE_OUT, RUMBA_AUDIT_OUT and RUMBA_PROFILE_OUT in their
 * own modules, so a variable set only after its module came up is not
 * flushed.
 *
 * Every file export opens with a run-metadata header — schema
 * version, ISO-8601 wall time, hostname, build type, sanitizer flags —
 * so tools/rumba-stat can refuse to diff incompatible dumps.
 */

#include <string>

#include "common/table.h"
#include "obs/metrics.h"

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
 * with "type" (counter / gauge / histogram).
 */
std::string ToJsonl(const RegistrySnapshot& snapshot);

/**
 * Render a snapshot as CSV with header
 * type,name,value,sum,min,max,p50,p90,p99,notes.
 */
std::string ToCsv(const RegistrySnapshot& snapshot);

/** Render a snapshot as an aligned console table. */
Table ToTable(const RegistrySnapshot& snapshot);

/**
 * Snapshot the default registry and write it to @p path (format by
 * extension: .csv selects CSV, otherwise JSONL), preceded by the
 * run-metadata header (a "# "-prefixed comment line in CSV). Returns
 * false on I/O error.
 */
bool WriteMetricsFile(const std::string& path);

/**
 * Honor RUMBA_METRICS_OUT: when the variable names a file, write the
 * current default-registry snapshot there and return the path; when
 * unset (or on I/O failure, after a warning) return "". Idempotent —
 * each call rewrites the file with the latest snapshot, and the
 * flush hook InstallAtExitExport registers makes the final call.
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
 * registry sampler (its final RUMBA_STREAM_OUT line included), then
 * run every registered flush hook. Called automatically by
 * Registry::Default(); registers the RUMBA_METRICS_OUT hook when that
 * variable is set.
 */
void InstallAtExitExport();

/**
 * Register a best-effort flush hook, invoked (in registration order)
 * by both the at-exit export and the SIGINT/SIGTERM flush, and arm
 * that signal flush. The table is the one list of sinks: a module
 * registers its hook only when its sink is configured, so a killed
 * run still writes its partial results. Hooks run in signal context,
 * on the thread the signal interrupted: they must not allocate
 * unboundedly, and the forensics, profile and report hooks only
 * try-lock (the four other env dumps take their collectors' short
 * locks, best effort).
 * Re-registering the same function is a no-op; the table holds 16
 * slots (false, with a warning, when full or @p hook is null).
 */
bool RegisterFlushHook(void (*hook)());

}  // namespace rumba::obs

#endif  // RUMBA_OBS_EXPORT_H_
