#include "sim/system_model.h"

#include <algorithm>

#include "common/logging.h"

namespace rumba::sim {

SystemModel::SystemModel(const CoreParams& core, const EnergyParams& energy)
    : cpu_(core), energy_(energy)
{
}

EfficiencyWindow::EfficiencyWindow(size_t capacity) : ring_(capacity)
{
}

void
EfficiencyWindow::Push(const SystemCosts& costs)
{
    Entry entry;
    entry.baseline_app_ns = costs.baseline_app_ns;
    entry.baseline_app_nj = costs.baseline_app_nj;
    entry.scheme_app_ns = costs.scheme_app_ns;
    entry.scheme_app_nj = costs.scheme_app_nj;
    ring_.Push(entry);
}

EfficiencyEstimate
EfficiencyWindow::Estimate() const
{
    EfficiencyEstimate est;
    est.window = ring_.Size();
    est.invocations = ring_.Pushed();
    if (ring_.Empty())
        return est;
    // Storage order, as always: the sums stay bit-identical no matter
    // where the ring's next write lands.
    double base_ns = 0.0, base_nj = 0.0, scheme_ns = 0.0, scheme_nj = 0.0;
    for (const Entry& e : ring_.Slots()) {
        base_ns += e.baseline_app_ns;
        base_nj += e.baseline_app_nj;
        scheme_ns += e.scheme_app_ns;
        scheme_nj += e.scheme_app_nj;
    }
    est.speedup = scheme_ns > 0.0 ? base_ns / scheme_ns : 0.0;
    est.energy_ratio = base_nj > 0.0 ? scheme_nj / base_nj : 0.0;
    return est;
}

void
EfficiencyWindow::Reset()
{
    ring_.Clear();
}

SystemCosts
SystemModel::Baseline(const RegionProfile& region) const
{
    RUMBA_CHECK(region.iterations > 0);
    RUMBA_CHECK(region.region_fraction > 0.0 &&
                region.region_fraction <= 1.0);

    SystemCosts costs;
    const double iters = static_cast<double>(region.iterations);
    const double iter_ns = cpu_.Nanoseconds(region.cpu_ops_per_iter);
    const double iter_nj =
        energy_.CpuDynamicNj(region.cpu_ops_per_iter) +
        energy_.CpuBusyStaticNj(iter_ns);

    costs.baseline_region_ns = iter_ns * iters;
    costs.baseline_region_nj = iter_nj * iters;
    // The rest of the application is modeled with the same
    // energy/time density as the region (documented simplification).
    costs.baseline_app_ns =
        costs.baseline_region_ns / region.region_fraction;
    costs.baseline_app_nj =
        costs.baseline_region_nj / region.region_fraction;
    return costs;
}

SystemCosts
SystemModel::Evaluate(const RegionProfile& region,
                      const AcceleratorProfile& accel,
                      const CheckerCost* checker, size_t fixes) const
{
    RUMBA_CHECK(accel.cycles_per_invocation > 0);
    RUMBA_CHECK(accel.frequency_ghz > 0.0);
    RUMBA_CHECK(fixes <= region.iterations);

    SystemCosts costs = Baseline(region);
    const double iters = static_cast<double>(region.iterations);
    const double fixed = static_cast<double>(fixes);

    // --- Region timing ---------------------------------------------------
    const double accel_ns =
        static_cast<double>(accel.cycles_per_invocation) /
        accel.frequency_ghz * iters;
    const double cpu_iter_ns = cpu_.Nanoseconds(region.cpu_ops_per_iter);
    const double recovery_ns = cpu_iter_ns * fixed;
    // Pipelined recovery: CPU re-computation overlaps accelerator
    // execution; whichever side is longer bounds the region.
    const double region_ns = std::max(accel_ns, recovery_ns);

    costs.npu_ns = accel_ns;
    costs.recovery_ns = recovery_ns;
    costs.scheme_region_ns = region_ns;

    // --- Region energy ---------------------------------------------------
    const double npu_dynamic = energy_.NpuDynamicNj(
        accel.macs_per_invocation * iters,
        accel.luts_per_invocation * iters,
        accel.queue_words_per_invocation * iters);
    const double npu_static = energy_.NpuStaticNj(region_ns);

    // CPU: dynamic work for the re-executed iterations; busy static
    // power while recovering; idle static power while only waiting.
    const double cpu_dynamic =
        energy_.CpuDynamicNj(region.cpu_ops_per_iter) * fixed;
    const double cpu_busy_static = energy_.CpuBusyStaticNj(recovery_ns);
    const double cpu_idle_static =
        energy_.CpuIdleStaticNj(std::max(0.0, region_ns - recovery_ns));

    double checker_nj = 0.0;
    costs.checker_ns = 0.0;
    if (checker != nullptr) {
        checker_nj = energy_.CheckerDynamicNj(*checker, iters) +
                     energy_.CheckerStaticNj(region_ns);
        costs.checker_ns =
            checker->cycles / accel.frequency_ghz * iters;
    }

    costs.scheme_region_nj = npu_dynamic + npu_static + cpu_dynamic +
                             cpu_busy_static + cpu_idle_static + checker_nj;

    // --- Whole application -----------------------------------------------
    const double rest_ns =
        costs.baseline_app_ns - costs.baseline_region_ns;
    const double rest_nj =
        costs.baseline_app_nj - costs.baseline_region_nj;
    costs.scheme_app_ns = rest_ns + costs.scheme_region_ns;
    costs.scheme_app_nj = rest_nj + costs.scheme_region_nj;
    return costs;
}

}  // namespace rumba::sim
