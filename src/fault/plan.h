#ifndef RUMBA_FAULT_PLAN_H_
#define RUMBA_FAULT_PLAN_H_

/**
 * @file
 * Deterministic fault-injection plans. The paper's premise is an
 * unreliable accelerator whose errors Rumba must contain online; a
 * FaultPlan makes that unreliability a first-class, replayable input.
 * A plan names a set of fault classes with per-opportunity rates and
 * a seed; armed into the process-wide FaultInjector (fault/injector.h)
 * it corrupts the simulated stack at well-defined sites — the NPU
 * fixed-point datapath, the accelerator's output interface, the
 * activation LUT SRAM, artifact blobs, the recovery queue's CPU-side
 * drain, and the checker's verdicts — so any bench, example, or test
 * can replay an identical fault schedule.
 *
 * Plans serialize to a compact spec string, also accepted from the
 * RUMBA_FAULT_PLAN environment variable:
 *
 *   seed=42;npu.output_nan=0.01;npu.bitflip=0.002;queue.stall=0.5
 *
 * Each clause is `class=rate` with an optional `:param` whose meaning
 * is class-specific (e.g. the stuck-at value). Rates and params must
 * be finite; the seed is plain decimal digits that fit uint64_t.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace rumba::fault {

/** Everything the harness knows how to break. */
enum class FaultClass {
    kNpuBitFlip,       ///< flip one bit of a PE's fixed-point result.
    kNpuOutputNan,     ///< output-queue word replaced with quiet NaN.
    kNpuOutputInf,     ///< output-queue word replaced with +/-Inf.
    kNpuOutputStuck,   ///< output-queue word stuck at `param`.
    kNpuLutCorrupt,    ///< activation-LUT SRAM entry bit flipped.
    kArtifactTruncate, ///< artifact blob loses its tail (param = keep fraction).
    kArtifactBitrot,   ///< artifact blob bytes bit-flipped at `rate`.
    kQueueStall,       ///< recovery drain unavailable at a full queue.
    kCheckerMispredict,///< detector verdict inverted.
};

/** Number of fault classes (stream/table sizing). */
inline constexpr size_t kNumFaultClasses = 9;

/** Stable spec-string name of a class ("npu.bitflip", ...). */
const char* FaultClassName(FaultClass fault);

/** One armed fault class. */
struct FaultRule {
    FaultClass fault = FaultClass::kNpuOutputNan;
    /** Probability per opportunity in [0, 1]. */
    double rate = 0.0;
    /** Class-specific parameter (stuck-at value, truncate keep
     *  fraction). Zero when the class takes none. */
    double param = 0.0;
};

/** A complete, replayable fault schedule. */
struct FaultPlan {
    /** Seeds every class's decision stream (deterministic replay). */
    uint64_t seed = 0;
    std::vector<FaultRule> rules;

    /** True when no rule has a positive rate. */
    bool Empty() const;

    /** Render as a spec string Parse() accepts. */
    std::string ToSpec() const;

    /**
     * Parse a spec string. On success fills @p plan and returns true;
     * on failure returns false and, when @p error is non-null, a
     * one-line description of the offending clause. An empty spec
     * parses to an empty plan.
     */
    static bool Parse(const std::string& spec, FaultPlan* plan,
                      std::string* error);
};

}  // namespace rumba::fault

#endif  // RUMBA_FAULT_PLAN_H_
