/**
 * @file
 * Cheaper recovery: the three-tier accept / compensate / re-execute
 * policy against the paper's two-tier baseline.
 *
 * Exact CPU re-execution of flagged iterations is the dominant cost
 * of online quality management (Figure 18). Since the error
 * predictors estimate the error itself, a mid-range predicted error
 * can be *compensated* in place — approximate output plus a predicted
 * signed residual — reserving exact re-execution for the worst tail.
 * This example trains one artifact (with the compensation model),
 * streams identical traffic through a two-tier and a tiered runtime,
 * and shows the split: same checker, same fired set, measurably less
 * recovery CPU, quality still at target.
 *
 * The second half serves the same artifact through the sharded
 * engine with ground-truth auditing on: compensated elements are
 * audit-eligible — the shadow exact re-execution measures the true
 * residual the compensator left behind — and that measured truth
 * tunes the compensate/re-execute boundary online, so compensation
 * can never silently violate the TOQ contract.
 *
 *   $ ./tiered_recovery
 */

#include <cstdio>
#include <vector>

#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/engine.h"

using namespace rumba;

namespace {

/** Everything one runtime reported across the streamed rounds. */
struct Tally {
    size_t fixes = 0;
    size_t reexecuted = 0;
    size_t compensated = 0;
    size_t elements = 0;
    double err_weighted = 0.0;
    double recover_cpu_ms = 0.0;
    double compensate_cpu_ms = 0.0;

    double
    MeanErrPct() const
    {
        return elements == 0
                   ? 0.0
                   : err_weighted / static_cast<double>(elements);
    }
};

Tally
Stream(core::RumbaRuntime& runtime, const std::vector<double>& flat,
       size_t pool, size_t in_w, size_t rounds, size_t batch)
{
    Tally tally;
    std::vector<double> outputs(batch *
                                runtime.Bench().NumOutputs());
    for (size_t r = 0; r < rounds; ++r) {
        const size_t start = (r * batch) % (pool - batch);
        const core::BatchView view(flat.data() + start * in_w, batch,
                                   in_w);
        const core::InvocationReport report =
            runtime.ProcessInvocation(view, outputs.data());
        tally.fixes += report.fixes;
        tally.reexecuted += report.tier_reexecuted;
        tally.compensated += report.tier_compensated;
        tally.elements += report.elements;
        tally.err_weighted += report.output_error_pct *
                              static_cast<double>(report.elements);
        auto cpu_ms = [&](obs::ProfileStage stage) {
            return static_cast<double>(report.stages.Cpu(stage)) / 1e6;
        };
        tally.recover_cpu_ms += cpu_ms(obs::ProfileStage::kRecover);
        tally.compensate_cpu_ms += cpu_ms(obs::ProfileStage::kCompensate);
    }
    return tally;
}

}  // namespace

int
main()
{
    // 1. Train once, compensation model included, and export. The
    //    artifact carries the networks, the checker, the calibrated
    //    threshold and the compensator — both runtimes below deploy
    //    from it, so they share every trained parameter.
    const core::RuntimeConfig tiered_config =
        core::RuntimeConfig::Builder()
            .WithChecker(core::Scheme::kTree)
            .WithTunerMode(core::TuningMode::kToq)
            .WithTargetErrorPct(10.0)
            .WithCompensation()
            .WithCpuAttribution()
            .Build();
    std::printf("training accelerator network, error predictor and "
                "compensation model...\n");
    core::RumbaRuntime trained(apps::MakeBenchmark("fft"),
                               tiered_config);
    const core::Artifact artifact = trained.ExportArtifact();

    const core::RuntimeConfig two_tier_config =
        core::RuntimeConfig::Builder(tiered_config)
            .WithCompensation(false)
            .Build();
    core::RumbaRuntime two_tier(artifact, two_tier_config);
    core::RumbaRuntime tiered(artifact, tiered_config);

    // 2. Identical traffic through both.
    const auto inputs = tiered.Bench().TestInputs();
    const std::vector<double> flat = core::FlattenBatch(inputs);
    const size_t in_w = tiered.Bench().NumInputs();
    const size_t kRounds = 12, kBatch = 500;
    const Tally base = Stream(two_tier, flat, inputs.size(), in_w,
                              kRounds, kBatch);
    const Tally tier = Stream(tiered, flat, inputs.size(), in_w,
                              kRounds, kBatch);

    std::printf("\n%zu rounds x %zu elements, TOQ target %.0f%%\n",
                kRounds, kBatch,
                tiered_config.tuner.target_error_pct);
    std::printf("%-22s %-8s %-12s %-12s %-14s %s\n", "recovery",
                "fired", "re-executed", "compensated", "recover CPU",
                "output err %");
    std::printf("%-22s %-8zu %-12zu %-12zu %-11.1f ms %.2f\n",
                "two-tier (paper)", base.fixes, base.reexecuted,
                base.compensated, base.recover_cpu_ms,
                base.MeanErrPct());
    std::printf("%-22s %-8zu %-12zu %-12zu %-11.1f ms %.2f\n",
                "tiered (compensate)", tier.fixes, tier.reexecuted,
                tier.compensated,
                tier.recover_cpu_ms + tier.compensate_cpu_ms,
                tier.MeanErrPct());
    std::printf("\nthe tuned compensate/re-execute boundary ended at "
                "%.2fx the check threshold\n(%zu ground-truth "
                "adjustments); exact re-executions dropped %.1f%%.\n",
                tiered.Policy().Multiple(),
                tiered.Policy().Adjustments(),
                base.reexecuted == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(base.reexecuted -
                                              tier.reexecuted) /
                          static_cast<double>(base.reexecuted));

    // The split is deterministic: same checker + threshold fires the
    // same set, the policy only divides it.
    bool ok = tier.compensated > 0 &&
              tier.reexecuted < base.reexecuted &&
              tier.fixes == tier.reexecuted + tier.compensated;
    // Quality must hold near target, not collapse: compensation is
    // bounded by the audited-residual budget.
    ok = ok && tier.MeanErrPct() <
                   2.0 * tiered_config.tuner.target_error_pct;
    // The recover-stage CPU win is the point (the compensate tier's
    // own cost lands in its own stage and is printed above) — but
    // wall/CPU ratios are only meaningful on an unsanitized build
    // (ci.sh runs this under ASan/TSan too, where instrumentation
    // swamps the comparison).
    if (obs::CollectRunMetadata().sanitizers.empty() &&
        base.recover_cpu_ms > 0.0) {
        ok = ok && tier.recover_cpu_ms < base.recover_cpu_ms;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "tiered recovery did not beat the two-tier "
                     "baseline\n");
        return 1;
    }

    // 3. Serve the same artifact with ground-truth auditing: every
    //    invocation is shadow re-executed exactly, compensated
    //    elements report their true residual, and that measured
    //    truth feeds the policy's boundary tuning. One shard and
    //    synchronous submits keep the run deterministic.
    serve::ServeConfig serve_config;
    serve_config.shards = 1;
    serve_config.audit.sample_every = 1;
    serve_config.audit.queue_capacity = 256;
    serve_config.audit.result_capacity = 256;
    // The TOQ tuner deliberately rides AT the target, so
    // per-invocation means on small batches fluctuate a couple of
    // points above it even with every fix exact. The audited bound
    // exists to catch compensation *collapsing* (residuals way past
    // the budget), not that normal ripple — give it headroom above
    // the tuner's operating band.
    serve_config.slo.quality_margin_pct = 5.0;
    auto engine_or = serve::ShardedEngine::Create(
        artifact, tiered_config, serve_config);
    if (!engine_or.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     engine_or.status().ToString().c_str());
        return 1;
    }
    serve::ShardedEngine& engine = **engine_or;
    const size_t kServeBatches = 16, kServeBatch = 250;
    for (size_t r = 0; r < kServeBatches; ++r) {
        serve::InvocationRequest request;
        const size_t start =
            (r * kServeBatch) % (inputs.size() - kServeBatch);
        request.inputs.assign(
            flat.begin() + static_cast<ptrdiff_t>(start * in_w),
            flat.begin() +
                static_cast<ptrdiff_t>((start + kServeBatch) * in_w));
        request.count = kServeBatch;
        request.width = in_w;
        request.shard = 0;
        const auto result = engine.Submit(std::move(request)).get();
        if (!result.status.ok()) {
            std::fprintf(stderr, "serve: %s\n",
                         result.status.ToString().c_str());
            return 1;
        }
    }
    if (engine.Auditor() == nullptr) {
        engine.Shutdown();
        std::printf("\nserved %zu batches with auditing off "
                    "(RUMBA_AUDIT_SAMPLE_N=0): the audited quality "
                    "contract is not checked.\n",
                    kServeBatches);
        return 0;
    }
    engine.Auditor()->Flush();
    const obs::AuditorStats audit = engine.Auditor()->Stats();
    const double multiple = engine.Runtime(0).Policy().Multiple();
    const double budget =
        engine.Runtime(0).Policy().ResidualBudgetPct();
    engine.Shutdown();

    std::printf("\nserved %zu batches with shadow exact auditing "
                "on:\n", kServeBatches);
    std::printf("  audited invocations:            %llu (%llu "
                "elements)\n",
                static_cast<unsigned long long>(audit.audited),
                static_cast<unsigned long long>(
                    audit.audited_elements));
    std::printf("  compensated elements audited:   %llu\n",
                static_cast<unsigned long long>(
                    audit.compensated_elements));
    std::printf("  measured mean residual:         %.2f%% (budget "
                "%.2f%%)\n",
                audit.mean_compensated_residual_pct, budget);
    std::printf("  audited-TOQ SLO:                %s (%llu "
                "violations, bound %.1f%%)\n",
                audit.slo_alerting ? "FIRING" : "clean",
                static_cast<unsigned long long>(audit.toq_violations),
                audit.toq_bound_pct);
    std::printf("  tuned boundary after serving:   %.2fx the check "
                "threshold\n", multiple);

    // The quality contract with compensation on: audited ground
    // truth sees no TOQ violations and the audited SLO stays quiet.
    if (audit.audited == 0 || audit.compensated_elements == 0 ||
        audit.slo_alerting || audit.toq_violations > 0) {
        std::fprintf(stderr, "audited quality contract violated "
                             "under compensation\n");
        return 1;
    }
    std::printf("\ncompensation paid for the boundary it rides on: "
                "measured residuals stayed\ninside the budget, so "
                "the cheap tier kept its share of the fix set.\n");
    return 0;
}
