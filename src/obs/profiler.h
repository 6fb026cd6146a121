#ifndef RUMBA_OBS_PROFILER_H_
#define RUMBA_OBS_PROFILER_H_

/**
 * @file
 * Live cost & efficiency profiler: where does the CPU time go, and
 * what do the paper's efficiency figures look like *right now*?
 *
 * Two cooperating pieces:
 *
 * 1. Per-stage thread-CPU attribution. The serving pipeline's stages
 *    (queue_wait / device / predict_check / recover / merge / audit /
 *    verify) are each bracketed once by a StageScope that reads
 *    CLOCK_THREAD_CPUTIME_ID at both ends into one StageRecord per
 *    invocation (see RumbaRuntime's cpu_attribution mode), and the
 *    record accumulates into `cpu_stage_seconds.<stage>`
 *    DoubleCounters (exposed as `rumba_cpu_stage_seconds_*_total`)
 *    plus per-shard variants — the paper's Figure 18 CPU-activity
 *    breakdown as a live /metrics series; /profilez divides them
 *    into stage shares. With RUMBA_PROFILE_OUT set, the per-shard
 *    split is also written as flamegraph-compatible folded stacks
 *    ("shard0;predict_check 42", in µs of CPU) at exit and on
 *    SIGINT/SIGTERM, through the flush-hook table (obs/export.h).
 *
 * 2. An online efficiency estimator. Each invocation's modeled
 *    sim::SystemCosts feed a rolling sim::EfficiencyWindow; the
 *    aggregate exports `efficiency.speedup_estimate` and
 *    `efficiency.energy_ratio` gauges — Figures 14/15 as live
 *    series.
 *
 * Cost: CPU accounting adds two clock_gettime syscalls per scope, so
 * scopes are stage-granular, never per-element. Recording an
 * invocation's stages takes no lock (each shard records through the
 * counter row it fetched once); the estimator serializes behind a
 * mutex (one push per invocation).
 */

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/system_model.h"

namespace rumba::obs {

/** Pipeline stages the profiler attributes time to. */
enum class ProfileStage : uint8_t {
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
 * Per-process stage-attribution sink. Registers its instruments in a
 * Registry and accumulates CPU seconds per stage (total and per
 * shard) and the rolling efficiency window.
 */
class CpuProfiler {
  public:
    /** One shard's cpu_stage_seconds.shard<k>.<stage>, by stage. */
    using ShardRow = std::array<DoubleCounter*, kProfileStageCount>;

    /** @param registry instrument sink (tests pass their own). */
    explicit CpuProfiler(Registry* registry);

    /** @p shard's counter row, registering it (and any lower shard's)
     *  on first use; all null when @p shard < 0. Takes the shard
     *  table's lock, so a recorder fetches its row once (the serving
     *  engine at shard creation) and records through it. */
    ShardRow ShardCounters(int shard);

    /** Add @p ns of CPU time to @p stage for @p shard (shard < 0
     *  skips the per-shard series). Used for stages recorded outside
     *  an invocation (the audit pool); takes the shard table's lock. */
    void AddStageCpuNs(ProfileStage stage, int shard, int64_t ns);

    /** Record one invocation's stage CPU (@p stages' cpu_ns column)
     *  into the stage counters, total and @p row's (a null row entry
     *  skips that shard series), and count the invocation. Takes no
     *  lock. */
    void RecordInvocation(const ShardRow& row, const StageRecord& stages);

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
     * Write the per-shard split to @p path as folded stacks, the
     * flamegraph input format: one "shard<k>;<stage> <count>" line per
     * shard and stage, in shard then ProfileStage order, where count
     * is cpu_stage_seconds.shard<k>.<stage> rounded to whole µs and
     * only counts > 0 are written. Try-locks the shard table, so it
     * is safe from the signal flush: false, and nothing written, when
     * another thread holds it; false too when the write fails.
     */
    bool WriteFoldedBestEffort(const std::string& path);

    /**
     * The process-wide profiler every serving engine feeds
     * (instruments live in Registry::Default()). When
     * RUMBA_PROFILE_OUT is set at its first use, it registers the
     * flush hook that writes WriteFoldedBestEffort there.
     */
    static CpuProfiler& Default();

  private:
    Registry* registry_;
    /** cpu_stage_seconds.<stage> totals, indexed by stage. */
    DoubleCounter* stage_seconds_[kProfileStageCount] = {};
    Counter* invocations_;

    /** Per-shard counters register lazily (shard count is dynamic).
     *  The lock guards the table: registration, AddStageCpuNs and
     *  the folded dump's try-lock. */
    std::mutex shard_mu_;
    std::vector<ShardRow> shard_seconds_;

    mutable std::mutex window_mu_;
    sim::EfficiencyWindow window_;
    Gauge* speedup_gauge_;
    Gauge* energy_gauge_;
    Gauge* window_gauge_;
};

/**
 * RAII stage bracket. Given a @p record, it adds its wall time
 * (steady clock) to record->Wall(stage) and, when @p cpu, its thread
 * CPU time (CLOCK_THREAD_CPUTIME_ID) to record->Cpu(stage): two or
 * four clock reads, so a scope brackets a whole stage, never a single
 * element. Without a record it does nothing.
 */
class StageScope {
  public:
    StageScope(ProfileStage stage, StageRecord* record, bool cpu);
    ~StageScope();

    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

  private:
    ProfileStage stage_;
    StageRecord* record_;
    bool cpu_;
    uint64_t wall_start_ns_ = 0;
    int64_t cpu_start_ns_ = 0;
};

/**
 * /profilez JSON body: stage CPU totals and shares and the rolling
 * efficiency estimate. Flat/nested objects only (no arrays —
 * rumba-stat's mini parser flattens dotted keys).
 */
std::string ProfilezJson();

}  // namespace rumba::obs

#endif  // RUMBA_OBS_PROFILER_H_
