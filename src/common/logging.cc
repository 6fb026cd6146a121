#include "common/logging.h"

#include <strings.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>

namespace rumba {

namespace {

/** Serializes emission so concurrent logs do not interleave lines. */
std::mutex g_emit_mu;

/** ParseLogLevel's words; any other value is not a level. */
constexpr struct {
    const char* word;
    LogLevel level;
} kLevelWords[] = {
    {"debug", LogLevel::kDebug}, {"inform", LogLevel::kInform},
    {"info", LogLevel::kInform}, {"warn", LogLevel::kWarn},
    {"warning", LogLevel::kWarn}, {"fatal", LogLevel::kFatal},
    {"quiet", LogLevel::kFatal},
};

std::optional<LogLevel>
MatchLevelWord(const char* value)
{
    if (value == nullptr)
        return std::nullopt;
    for (const auto& [word, level] : kLevelWords)
        if (strcasecmp(value, word) == 0)
            return level;
    return std::nullopt;
}

/** Threshold storage, initialized from RUMBA_LOG at first use. */
std::atomic<LogLevel>&
Threshold()
{
    static std::atomic<LogLevel> threshold{[] {
        const char* env = std::getenv("RUMBA_LOG");
        const std::optional<LogLevel> level = MatchLevelWord(env);
        if (!level.has_value() && env != nullptr && env[0] != '\0')
            std::fprintf(stderr,
                         "warn: RUMBA_LOG=%s not recognized (want debug, "
                         "inform, warn, or fatal); keeping inform\n",
                         env);
        return level.value_or(LogLevel::kInform);
    }()};
    return threshold;
}

void VPrint(const char* tag, const char* fmt, va_list args)
{
    std::lock_guard<std::mutex> lock(g_emit_mu);
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

}  // namespace

LogLevel
ParseLogLevel(const char* value)
{
    return MatchLevelWord(value).value_or(LogLevel::kInform);
}

void
SetLogThreshold(LogLevel level)
{
    Threshold().store(level, std::memory_order_relaxed);
}

LogLevel
LogThreshold()
{
    return Threshold().load(std::memory_order_relaxed);
}

void
Debug(const char* fmt, ...)
{
    if (LogThreshold() > LogLevel::kDebug)
        return;
    va_list args;
    va_start(args, fmt);
    VPrint("debug", fmt, args);
    va_end(args);
}

void
Inform(const char* fmt, ...)
{
    if (LogThreshold() > LogLevel::kInform)
        return;
    va_list args;
    va_start(args, fmt);
    VPrint("info", fmt, args);
    va_end(args);
}

void
Warn(const char* fmt, ...)
{
    if (LogThreshold() > LogLevel::kWarn)
        return;
    va_list args;
    va_start(args, fmt);
    VPrint("warn", fmt, args);
    va_end(args);
}

void
Fatal(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VPrint("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
Panic(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VPrint("panic", fmt, args);
    va_end(args);
    std::abort();
}

}  // namespace rumba
