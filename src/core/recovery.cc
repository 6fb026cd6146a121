#include "core/recovery.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace rumba::core {

RecoveryModule::RecoveryModule(const apps::Benchmark* bench,
                               size_t queue_capacity)
    : bench_(bench),
      queue_(queue_capacity),
      obs_reexecutions_(
          obs::Registry::Default().GetCounter("recovery.reexecutions")),
      obs_compensations_(obs::Registry::Default().GetCounter(
          "recovery.compensations")),
      obs_queue_full_stalls_(obs::Registry::Default().GetCounter(
          "recovery.queue_full_stalls")),
      obs_queue_drops_(obs::Registry::Default().GetCounter(
          "recovery.queue_drops")),
      obs_drain_ns_(
          obs::Registry::Default().GetHistogram("recovery.drain_ns"))
{
    RUMBA_CHECK(bench != nullptr);
    RUMBA_CHECK(queue_capacity > 0);
    // The configured depth is deploy-time identity, surfaced in
    // /buildz next to the build metadata.
    obs::Registry::Default()
        .GetGauge("recovery.queue_capacity")
        ->Set(static_cast<double>(queue_capacity));
}

size_t
RecoveryModule::Drain(const BatchView& inputs, double* outputs,
                      size_t out_width, std::vector<char>* fixed,
                      DrainStats* stats)
{
    RUMBA_CHECK(outputs != nullptr);
    RUMBA_CHECK(out_width == bench_->NumOutputs());
    const obs::ScopedTimer timer(obs_drain_ns_);
    const obs::Span drain_span("recovery.drain");
    size_t drained = 0;
    size_t reexecuted = 0;
    size_t compensated = 0;
    uint64_t reexec_ns = 0;
    uint64_t compensate_ns = 0;
    while (!queue_.Empty()) {
        const RecoveryDecision decision = queue_.Pop();
        RUMBA_CHECK(decision.iteration < inputs.count());
        const double* in = inputs[decision.iteration].data();
        double* out = outputs + decision.iteration * out_width;
        bool did_compensate = false;
        if (decision.tier == RecoveryTier::kCompensate &&
            compensate_ != nullptr) {
            const uint64_t start = obs::NowNs();
            did_compensate = compensate_(in, out);
            compensate_ns += obs::NowNs() - start;
        }
        if (!did_compensate) {
            // Re-execute tier, or a compensation the executor refused
            // (no compensator installed, non-finite element): the
            // merger writes straight into the element's output slot;
            // re-execution of a pure kernel is idempotent.
            const uint64_t start = obs::NowNs();
            bench_->RunExact(in, out);
            reexec_ns += obs::NowNs() - start;
        }
        if (fixed != nullptr) {
            RUMBA_CHECK(decision.iteration < fixed->size());
            (*fixed)[decision.iteration] =
                did_compensate ? kFixedCompensated : kFixedExact;
        }
        ++drained;
        if (did_compensate)
            ++compensated;
        else
            ++reexecuted;
    }
    reexecutions_ += reexecuted;
    compensations_ += compensated;
    obs_reexecutions_->Increment(reexecuted);
    obs_compensations_->Increment(compensated);
    if (stats != nullptr) {
        stats->reexecuted += reexecuted;
        stats->compensated += compensated;
        stats->reexec_ns += reexec_ns;
        stats->compensate_ns += compensate_ns;
    }
    return drained;
}

void
RecoveryModule::RecordQueueFullStall()
{
    obs_queue_full_stalls_->Increment();
}

void
RecoveryModule::RecordQueueDrop()
{
    ++queue_drops_;
    obs_queue_drops_->Increment();
}

}  // namespace rumba::core
