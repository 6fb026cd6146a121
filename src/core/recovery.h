#ifndef RUMBA_CORE_RECOVERY_H_
#define RUMBA_CORE_RECOVERY_H_

/**
 * @file
 * Rumba's recovery module (Section 3.3), redesigned around the typed
 * RecoveryPolicy seam (core/recovery_policy.h). When a check fires,
 * the detector side pushes a RecoveryDecision — element identity,
 * tier, and the predicted error it was tiered on — into the recovery
 * queue. The CPU-side drain executes each decision: re-execute tier
 * entries run the exact kernel and the output merger commits exact
 * over approximate; compensate tier entries apply the trained signed
 * residual correction in place (predict/compensator.h), orders of
 * magnitude cheaper. The per-element `fixed` mask records which:
 * 0 = untouched, 1 = exact re-execution, 2 = compensated.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/benchmark.h"
#include "core/batch_view.h"
#include "core/recovery_policy.h"
#include "npu/fifo.h"

namespace rumba::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace rumba::obs

namespace rumba::core {

/** Per-element `fixed`-mask values the recovery layer writes. */
inline constexpr char kFixedNone = 0;
inline constexpr char kFixedExact = 1;
inline constexpr char kFixedCompensated = 2;

/** The CPU<->accelerator recovery queue of Figure 4, now carrying
 *  typed decisions instead of raw iteration bits. */
using RecoveryQueue = npu::Fifo<RecoveryDecision>;

/** What one drain (or several, accumulated) actually did. */
struct DrainStats {
    size_t reexecuted = 0;      ///< exact CPU re-executions.
    size_t compensated = 0;     ///< in-place residual corrections.
    uint64_t reexec_ns = 0;     ///< wall time in the exact kernel.
    uint64_t compensate_ns = 0; ///< wall time applying corrections.

    size_t Total() const { return reexecuted + compensated; }
};

/** Executes queued recovery decisions and merges outputs. */
class RecoveryModule {
  public:
    /**
     * In-place correction of one element: given its raw inputs,
     * adjust its raw outputs. @return true when a correction was
     * applied; false demotes the entry to exact re-execution (e.g.
     * non-finite inputs the compensator refuses to touch).
     */
    using CompensateFn =
        std::function<bool(const double* raw_in, double* raw_out)>;

    /**
     * @param bench the application whose pure kernel is re-executed.
     * @param queue_capacity recovery-queue depth (from
     *        RuntimeConfig::recovery_queue_capacity; the runtime
     *        drains continuously so a small queue suffices). The
     *        configured value is exported as the
     *        `recovery.queue_capacity` gauge so /buildz can report
     *        it.
     */
    RecoveryModule(const apps::Benchmark* bench, size_t queue_capacity);

    /** The recovery queue the detector side pushes into. */
    RecoveryQueue& Queue() { return queue_; }

    /** Read-only queue inspection. */
    const RecoveryQueue& Queue() const { return queue_; }

    /**
     * Install the compensate-tier executor. Without one (the
     * default), compensate-tier entries are demoted to exact
     * re-execution — the queue contract stays safe when no trained
     * compensator is deployed.
     */
    void
    SetCompensator(CompensateFn compensate)
    {
        compensate_ = std::move(compensate);
    }

    /** True when a compensate-tier executor is installed. */
    bool HasCompensator() const { return compensate_ != nullptr; }

    /**
     * Drain the queue: execute every queued decision by tier and
     * merge the results into @p outputs (the output-merger step).
     *
     * @param inputs all element inputs of the invocation (raw domain).
     * @param outputs in/out: flat approximate outputs
     *        (inputs.count() x out_width), corrected in place.
     * @param out_width doubles per element in @p outputs.
     * @param fixed optional per-element mask updated with
     *        kFixedExact / kFixedCompensated (may be nullptr).
     * @param stats optional accumulator for what this drain did (may
     *        be nullptr); *added to*, not reset, so one invocation's
     *        backpressure drains and merge drain sum naturally.
     * @return decisions executed during this drain.
     */
    size_t Drain(const BatchView& inputs, double* outputs,
                 size_t out_width, std::vector<char>* fixed,
                 DrainStats* stats = nullptr);

    /** Total exact re-executions since construction. */
    size_t TotalReexecutions() const { return reexecutions_; }

    /** Total in-place compensations since construction. */
    size_t TotalCompensations() const { return compensations_; }

    /**
     * Record one queue-full backpressure stall (the detector side had
     * to force a drain before it could push). Feeds the
     * recovery.queue_full_stalls telemetry counter.
     */
    void RecordQueueFullStall();

    /**
     * Record one dropped recovery entry: the queue was full and the
     * CPU-side drain was unavailable, so the flagged iteration keeps
     * its approximate result. Drop-and-count is the defined overflow
     * policy — the loss is visible in the rumba.recovery.queue_drops
     * counter (registered as "recovery.queue_drops") and in the
     * invocation trace, never silent.
     */
    void RecordQueueDrop();

    /** Entries dropped on overflow since construction. */
    size_t QueueDrops() const { return queue_drops_; }

  private:
    const apps::Benchmark* bench_;
    RecoveryQueue queue_;
    CompensateFn compensate_;
    size_t reexecutions_ = 0;
    size_t compensations_ = 0;
    size_t queue_drops_ = 0;
    /** Process-wide telemetry: per-tier executions, backpressure
     *  stalls, overflow drops, and drain latency. */
    obs::Counter* obs_reexecutions_;
    obs::Counter* obs_compensations_;
    obs::Counter* obs_queue_full_stalls_;
    obs::Counter* obs_queue_drops_;
    obs::Histogram* obs_drain_ns_;
};

/**
 * Standalone exact CPU re-execution of one application's kernel,
 * reusable outside the recovery path (the quality auditor's shadow
 * re-execution, offline label generation). Owns its Benchmark
 * instance, so callers holding a reference can re-execute elements
 * without touching the serving runtime's RecoveryModule or its
 * telemetry. All methods are const and thread-safe: the Table 1
 * kernels are pure.
 */
class ExactReexecutor {
  public:
    /** @return nullptr when @p benchmark is not a known application. */
    static std::unique_ptr<ExactReexecutor> Create(
        const std::string& benchmark);

    size_t InputWidth() const { return bench_->NumInputs(); }
    size_t OutputWidth() const { return bench_->NumOutputs(); }

    /** Exact kernel for one element (@p in InputWidth() doubles,
     *  @p out OutputWidth() doubles). */
    void RunElement(const double* in, double* out) const;

    /** Benchmark-defined scalar error of one element. */
    double ElementError(const std::vector<double>& exact,
                        const std::vector<double>& approx) const;

    /** Benchmark-defined whole-run output error (percent). */
    double AggregateError(
        const std::vector<double>& element_errors) const;

  private:
    explicit ExactReexecutor(std::unique_ptr<apps::Benchmark> bench);

    std::unique_ptr<apps::Benchmark> bench_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_RECOVERY_H_
