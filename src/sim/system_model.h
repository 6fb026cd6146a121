#ifndef RUMBA_SIM_SYSTEM_MODEL_H_
#define RUMBA_SIM_SYSTEM_MODEL_H_

/**
 * @file
 * Whole-application timing/energy composition. Combines the CPU
 * model, the accelerator's static schedule and the checker cost into
 * the numbers Figures 14-17 plot: whole-app energy and speedup versus
 * a CPU-only baseline, for an unchecked accelerator or for Rumba with
 * a given number of re-executed iterations.
 *
 * Timing follows the paper's pipelined-recovery model (Section 3.3):
 * the CPU re-computes flagged iterations while the accelerator keeps
 * executing, so the region's time is max(accelerator time, recovery
 * time). The checker runs concurrently inside the accelerator
 * (placement Configuration 2, Section 3.5) and is validated to be
 * faster than the accelerator (Figure 17), so it adds no latency.
 */

#include <cstddef>

#include "common/ring.h"
#include "sim/cpu_model.h"
#include "sim/energy_model.h"

namespace rumba::sim {

/** The approximated region of an application. */
struct RegionProfile {
    OpCounts cpu_ops_per_iter;    ///< exact kernel's per-iteration mix.
    size_t iterations = 0;        ///< data-parallel iterations in the run.
    /** Fraction of whole-application baseline time spent in the
     *  region (Amdahl term for whole-app numbers). */
    double region_fraction = 1.0;
};

/** Accelerator execution profile for the same region. */
struct AcceleratorProfile {
    size_t cycles_per_invocation = 0;  ///< from the static schedule.
    double frequency_ghz = 1.0;        ///< accelerator clock.
    double macs_per_invocation = 0;    ///< fixed-point MACs.
    double luts_per_invocation = 0;    ///< activation lookups.
    double queue_words_per_invocation = 0;  ///< in+out+recovery words.
};

/** Whole-app and region-level costs for one scheme. */
struct SystemCosts {
    double baseline_region_ns = 0.0;
    double baseline_region_nj = 0.0;
    double baseline_app_ns = 0.0;
    double baseline_app_nj = 0.0;
    double scheme_region_ns = 0.0;
    double scheme_region_nj = 0.0;
    double scheme_app_ns = 0.0;
    double scheme_app_nj = 0.0;
    double checker_ns = 0.0;  ///< checker busy time (Figure 17).
    double npu_ns = 0.0;      ///< accelerator busy time.
    double recovery_ns = 0.0; ///< CPU re-execution time.

    /** Whole-application speedup over the CPU baseline. */
    double Speedup() const { return baseline_app_ns / scheme_app_ns; }

    /** Whole-application energy-saving factor over the baseline. */
    double EnergySaving() const { return baseline_app_nj / scheme_app_nj; }

    /** Normalized whole-app energy (scheme / baseline). */
    double NormalizedEnergy() const
    {
        return scheme_app_nj / baseline_app_nj;
    }
};

/** Rolling-window estimate derived from recent SystemCosts. */
struct EfficiencyEstimate {
    /** Whole-app speedup over the CPU baseline (Figure 14/15),
     *  aggregated over the window: sum(baseline) / sum(scheme). */
    double speedup = 0.0;
    /** Normalized whole-app energy, scheme / baseline (Figure 15). */
    double energy_ratio = 0.0;
    size_t window = 0;       ///< invocations currently in the window.
    size_t invocations = 0;  ///< invocations pushed since creation.

    /** True once at least one invocation has been pushed. */
    bool Valid() const { return window > 0; }
};

/**
 * Fixed-capacity ring of per-invocation SystemCosts that turns the
 * offline Figure 14/15 composition into a live rolling estimate:
 * each serving invocation pushes its modeled costs, Estimate()
 * aggregates the window by summing baseline and scheme app totals
 * (so long invocations weigh proportionally, matching how the
 * offline bench composes whole runs).
 *
 * Not thread-safe; callers serialize pushes (the profiler holds a
 * mutex around its window).
 */
class EfficiencyWindow {
  public:
    /** @param capacity rolling-window size in invocations (>= 1). */
    explicit EfficiencyWindow(size_t capacity = 256);

    /** Record one invocation's modeled costs. */
    void Push(const SystemCosts& costs);

    /** Aggregate the current window. */
    EfficiencyEstimate Estimate() const;

    /** Drop all recorded invocations. */
    void Reset();

  private:
    /** The per-invocation sums Estimate() needs. */
    struct Entry {
        double baseline_app_ns = 0.0;
        double baseline_app_nj = 0.0;
        double scheme_app_ns = 0.0;
        double scheme_app_nj = 0.0;
    };

    Ring<Entry> ring_;
};

/** Combines timing and energy into per-scheme whole-app costs. */
class SystemModel {
  public:
    SystemModel(const CoreParams& core, const EnergyParams& energy);

    /**
     * Cost the region (and whole app) under a scheme.
     *
     * @param region the approximated region.
     * @param accel the accelerator profile (schedule + events).
     * @param checker per-element checker cost, or nullptr when the
     *        scheme runs unchecked (plain NPU).
     * @param fixes number of iterations re-executed exactly on the
     *        host CPU (0 for the unchecked accelerator).
     */
    SystemCosts Evaluate(const RegionProfile& region,
                         const AcceleratorProfile& accel,
                         const CheckerCost* checker, size_t fixes) const;

    /** Baseline-only costs (the whole app on the CPU). */
    SystemCosts Baseline(const RegionProfile& region) const;

    /** The CPU timing model in use. */
    const CpuModel& Cpu() const { return cpu_; }

    /** The energy model in use. */
    const EnergyModel& Energy() const { return energy_; }

  private:
    CpuModel cpu_;
    EnergyModel energy_;
};

}  // namespace rumba::sim

#endif  // RUMBA_SIM_SYSTEM_MODEL_H_
