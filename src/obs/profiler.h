#ifndef RUMBA_OBS_PROFILER_H_
#define RUMBA_OBS_PROFILER_H_

/**
 * @file
 * Live cost & efficiency profiler: where does the CPU time go, and
 * what do the paper's efficiency figures look like *right now*?
 *
 * Three cooperating pieces:
 *
 * 1. Per-stage thread-CPU attribution. The serving pipeline's stages
 *    (queue_wait / device / predict_check / recover / merge / audit /
 *    verify) are each bracketed once by a StageScope that reads
 *    CLOCK_THREAD_CPUTIME_ID at both ends into one StageRecord per
 *    invocation (see RumbaRuntime's cpu_attribution mode), and the
 *    record accumulates into `cpu_stage_seconds.<stage>`
 *    DoubleCounters (exposed as `rumba_cpu_stage_seconds_*_total`)
 *    plus per-shard variants and per-invocation stage-share
 *    histograms — the paper's Figure 18 CPU-activity breakdown as a
 *    live /metrics series.
 *
 * 2. A sampling profiler. Every worker thread keeps a lock-free
 *    fixed-depth stack of stage tags in a per-thread slot; a
 *    background ticker wakes at RUMBA_PROFILE_HZ (see
 *    ParseProfilePeriodNs; neither knob set spawns no thread at all)
 *    and appends one sample of every registered thread's current
 *    stack. Samples fold into
 *    flamegraph-compatible "shard0;predict_check 42" lines
 *    (RUMBA_PROFILE_OUT), independently validating the exact
 *    attribution.
 *
 * 3. An online efficiency estimator. Each invocation's modeled
 *    sim::SystemCosts feed a rolling sim::EfficiencyWindow; the
 *    aggregate exports `efficiency.speedup_estimate` and
 *    `efficiency.energy_ratio` gauges — Figures 14/15 as live
 *    series.
 *
 * Concurrency: stage tag pushes/pops are relaxed atomic stores into
 * the calling thread's own slot (safe to tear against the sampler —
 * a torn read misattributes one sample, it cannot corrupt). CPU
 * accounting adds two clock_gettime syscalls per scope, so scopes
 * are stage-granular, never per-element. The estimator serializes
 * behind a mutex (one push per invocation).
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/ticker.h"
#include "sim/system_model.h"

namespace rumba::obs {

/** Pipeline stages the profiler attributes time to. */
enum class ProfileStage : uint8_t {
    kIdle = 0,       ///< registered but outside any stage.
    kQueueWait,      ///< worker blocked popping the shard queue.
    kDevice,         ///< accelerator (NPU) streaming.
    kPredictCheck,   ///< per-element quality-checker prediction.
    kRecover,        ///< exact re-execution (drain + breaker tail).
    kCompensate,     ///< compensate-tier in-place correction.
    kMerge,          ///< scatter of shard outputs into responses.
    kAudit,          ///< ground-truth shadow re-execution.
    kVerify,         ///< trainer-mode verification pass.
    kOther,          ///< instrumented but unnamed work.
    kStageCount,     ///< number of stages (array sizing).
};

/** Stable lowercase name for @p stage ("queue_wait", "device", ...). */
const char* ProfileStageName(ProfileStage stage);

inline constexpr size_t kProfileStageCount =
    static_cast<size_t>(ProfileStage::kStageCount);

/**
 * Where one invocation's time went: wall clock and thread CPU per
 * stage, in ns, indexed by ProfileStage. StageScope writes it; the
 * runtime carries it on its InvocationReport, and the serving engine
 * adds its own stages before handing it to
 * CpuProfiler::RecordInvocation. Stages are disjoint, so each
 * column sums to the time the bracketed stages took.
 */
struct StageRecord {
    int64_t wall_ns[kProfileStageCount] = {};
    int64_t cpu_ns[kProfileStageCount] = {};

    int64_t& Wall(ProfileStage s) { return wall_ns[Index(s)]; }
    int64_t Wall(ProfileStage s) const { return wall_ns[Index(s)]; }
    int64_t& Cpu(ProfileStage s) { return cpu_ns[Index(s)]; }
    int64_t Cpu(ProfileStage s) const { return cpu_ns[Index(s)]; }

  private:
    static size_t Index(ProfileStage s) { return static_cast<size_t>(s); }
};

/** Current thread's CPU time (CLOCK_THREAD_CPUTIME_ID), in ns. */
int64_t ThreadCpuNowNs();

/**
 * One thread's lock-free sampling slot: a fixed-depth stack of stage
 * tags plus the owning shard. The owner thread pushes/pops with
 * relaxed stores; the sampler thread reads with relaxed loads.
 */
struct ThreadSlot {
    static constexpr size_t kMaxDepth = 8;

    std::atomic<uint32_t> depth{0};
    std::atomic<uint8_t> stack[kMaxDepth] = {};
    std::atomic<int32_t> shard{-1};  ///< -1 = not a shard worker.
    std::atomic<bool> alive{true};   ///< false once the thread exits.
};

/**
 * Per-process stage-attribution sink. Registers its instruments in a
 * Registry and accumulates CPU seconds per stage (total and per
 * shard), per-invocation stage shares, and the rolling efficiency
 * window.
 */
class CpuProfiler {
  public:
    /** @param registry instrument sink (tests pass their own). */
    explicit CpuProfiler(Registry* registry);

    /** Add @p ns of CPU time to @p stage for @p shard (shard < 0
     *  skips the per-shard series). Used for stages recorded outside
     *  an invocation (the audit pool). */
    void AddStageCpuNs(ProfileStage stage, int shard, int64_t ns);

    /** Record one invocation's stage CPU (@p stages' cpu_ns column):
     *  accumulates the stage counters and observes the
     *  per-invocation stage-share histograms (share of the
     *  invocation's total attributed CPU). */
    void RecordInvocation(int shard, const StageRecord& stages);

    /** Feed one invocation's modeled costs into the rolling
     *  efficiency window and refresh the estimate gauges. */
    void RecordCosts(const sim::SystemCosts& costs);

    /** Current rolling efficiency estimate. */
    sim::EfficiencyEstimate Efficiency() const;

    /** Total attributed CPU seconds for @p stage. */
    double StageSeconds(ProfileStage stage) const;

    /** Invocations recorded via RecordInvocation. */
    uint64_t Invocations() const;

    /**
     * The process-wide profiler every serving engine feeds
     * (instruments live in Registry::Default()).
     */
    static CpuProfiler& Default();

  private:
    Registry* registry_;
    /** cpu_stage_seconds.<stage> totals, indexed by stage. */
    DoubleCounter* stage_seconds_[kProfileStageCount] = {};
    /** stage-share-of-invocation histograms, indexed by stage. */
    Histogram* stage_share_[kProfileStageCount] = {};
    Counter* invocations_;

    /** Per-shard counters register lazily (shard count is dynamic). */
    std::mutex shard_mu_;
    std::vector<std::array<DoubleCounter*, kProfileStageCount>>
        shard_seconds_;

    DoubleCounter* ShardStageCounter(int shard, ProfileStage stage);

    mutable std::mutex window_mu_;
    sim::EfficiencyWindow window_;
    Gauge* speedup_gauge_;
    Gauge* energy_gauge_;
    Gauge* window_gauge_;
};

/**
 * RAII stage bracket. Construction pushes @p stage onto the calling
 * thread's sampling slot (always — relaxed stores are nearly free);
 * destruction pops it. Given a @p record, it also adds its wall time
 * (steady clock) to record->Wall(stage) and, when @p cpu, its thread
 * CPU time (CLOCK_THREAD_CPUTIME_ID) to record->Cpu(stage): two or
 * four clock reads, so a scope with a record brackets a whole stage,
 * never a single element.
 */
class StageScope {
  public:
    explicit StageScope(ProfileStage stage, StageRecord* record = nullptr,
                        bool cpu = false);
    ~StageScope();

    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

  private:
    ProfileStage stage_;
    StageRecord* record_;
    bool cpu_;
    uint64_t wall_start_ns_ = 0;
    int64_t cpu_start_ns_ = 0;
    /** False when the parent frame already carries the same tag (the
     *  frame is elided so "device;device" never appears). */
    bool pushed_ = true;
};

/** Bind the calling thread to @p shard in its sampling slot (shows
 *  up as the "shardN" frame in folded stacks and routes queue-wait
 *  attribution). Call once from each worker thread. */
void BindThreadShard(int shard);

/** One captured folded stack with its occurrence count. */
struct FoldedStack {
    std::string stack;  ///< "shard0;predict_check".
    uint64_t count = 0;
};

/** RUMBA_PROFILE_HZ when only RUMBA_PROFILE_OUT is set: prime, so
 *  the sampler cannot alias against millisecond-periodic work. */
inline constexpr int64_t kDefaultProfilePeriodNs = 1'000'000'000 / 101;

/**
 * Parse a RUMBA_PROFILE_HZ value into a sampling period in ns, the
 * way ParseTsdbPeriodMs parses its period: unset, empty, unparseable
 * or non-finite values select kDefaultProfilePeriodNs (101 Hz); a
 * rate <= 0 returns 0, meaning off; anything else becomes the period
 * 1e9 / hz clamped to [kMinTickNs, kMaxTickNs] (1000 Hz down to one
 * sample a minute).
 */
int64_t ParseProfilePeriodNs(const char* value);

/**
 * The background sampling profiler, on the Ticker lifecycle
 * (obs/ticker.h). Start() samples every registered thread's stack
 * once per period (period <= 0 is a no-op: no thread, no samples);
 * Stop() takes a final sample, joins, and, when an output path was
 * given, writes the folded-stacks dump. AcquireFromEnv()/Release()
 * refcount a process-wide instance configured by RUMBA_PROFILE_HZ /
 * RUMBA_PROFILE_OUT so several engines share one sampler.
 */
class SamplingProfiler {
  public:
    SamplingProfiler() = default;

    SamplingProfiler(const SamplingProfiler&) = delete;
    SamplingProfiler& operator=(const SamplingProfiler&) = delete;

    /** Sample every @p period_ns (clamped to the Ticker's range);
     *  @p out_path ("" = none) receives the folded dump on Stop().
     *  No-op if period_ns <= 0 or running. */
    void Start(int64_t period_ns, const std::string& out_path);

    /** Final sample, join, write the folded dump. Safe to call when
     *  not running. */
    void Stop() { ticker_.Stop(); }

    /** True while the sampler thread is live. */
    bool Running() const { return ticker_.Running(); }

    /** Samples captured so far (one per registered thread per tick). */
    uint64_t Samples() const;

    /** Effective sampling rate of the last Start (0 when never
     *  started). */
    double Hz() const;

    /** Current folded stacks, sorted by stack text. */
    std::vector<FoldedStack> Folded() const;

    /**
     * Refcounted process-wide sampler, opt-in via RUMBA_PROFILE_HZ
     * and/or RUMBA_PROFILE_OUT (neither set: no thread; otherwise
     * ParseProfilePeriodNs(RUMBA_PROFILE_HZ)). The first acquire
     * starts it; the last release stops it and writes the dump.
     * Always returns the instance (running or not).
     */
    static SamplingProfiler* AcquireFromEnv();
    static void Release();

    /** The shared env sampler. The at-exit exporter Stop()s it
     *  whatever refs remain, so RUMBA_PROFILE_OUT survives code paths
     *  that never release (e.g. leaked engines). */
    static SamplingProfiler& Default();

  private:
    /** Fold one stack per live thread; the final tick dumps the
     *  fold as "stack count\n" lines (flamegraph input). */
    void Tick(bool final);

    mutable std::mutex mu_;
    std::map<std::string, uint64_t> folded_;
    uint64_t samples_ = 0;
    std::string out_path_;
    /** Last: destroyed (stopped and joined) before what Tick reads. */
    Ticker ticker_{[this](bool final) { Tick(final); }};
};

/**
 * /profilez JSON body: stage CPU totals and shares, sampler state,
 * and the rolling efficiency estimate. Flat/nested objects only (no
 * arrays — rumba-stat's mini parser flattens dotted keys).
 */
std::string ProfilezJson();

}  // namespace rumba::obs

#endif  // RUMBA_OBS_PROFILER_H_
