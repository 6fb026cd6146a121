#ifndef RUMBA_COMMON_LOGGING_H_
#define RUMBA_COMMON_LOGGING_H_

/**
 * @file
 * Minimal logging and error-reporting helpers, modeled after gem5's
 * logging split: fatal() for user errors, panic() for internal bugs,
 * warn()/inform() for status messages.
 */

#include <cstdarg>
#include <string>

namespace rumba {

/** Severity of a log message. */
enum class LogLevel {
    kDebug,
    kInform,
    kWarn,
    kFatal,
    kPanic,
};

/**
 * Global log verbosity control. Messages below the threshold are
 * suppressed; fatal/panic are never suppressed.
 *
 * The initial threshold comes from the RUMBA_LOG environment variable
 * (see ParseLogLevel), read on first use; a value it does not list
 * warns and keeps inform. SetLogThreshold() overrides it. Emission is
 * serialized by a mutex so concurrent threads (or benches sharing a
 * terminal) do not interleave lines.
 */
void SetLogThreshold(LogLevel level);

/**
 * A RUMBA_LOG value as a threshold: "debug"; "inform" or "info";
 * "warn" or "warning"; "fatal" or "quiet" (only fatal and panic
 * print), each in any case. nullptr, empty and anything else give
 * kInform.
 */
LogLevel ParseLogLevel(const char* value);

/** Current verbosity threshold. */
LogLevel LogThreshold();

/** Print a debug message (suppressed unless RUMBA_LOG=debug). */
void Debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message (printf-style). */
void Inform(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about suspicious but non-fatal conditions. */
void Warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable *user* error (bad configuration, bad
 * arguments) and exit(1).
 */
[[noreturn]] void Fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (a bug in this library) and
 * abort().
 */
[[noreturn]] void Panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Panic unless @p cond holds. Cheap enough to keep in release builds. */
#define RUMBA_CHECK(cond)                                                  \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::rumba::Panic("check failed at %s:%d: %s", __FILE__,          \
                           __LINE__, #cond);                               \
        }                                                                  \
    } while (0)

}  // namespace rumba

#endif  // RUMBA_COMMON_LOGGING_H_
