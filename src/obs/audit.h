#ifndef RUMBA_OBS_AUDIT_H_
#define RUMBA_OBS_AUDIT_H_

/**
 * @file
 * Ground-truth quality auditing: a shadow exact re-execution sampler.
 *
 * Every quality signal the serving engine exposes is derived from the
 * checker's *predicted* error — the system has no production view of
 * how wrong its own checkers are. The QualityAuditor closes that
 * loop. Serving workers offer every served request as a borrowed
 * view (AuditOffer); the auditor alone decides which to audit
 * (forced inclusion of degraded, breaker and fault-touched requests,
 * a 1-in-4 gate for the routine recovered ones, 1-in-N for the rest)
 * and queues a copy of only the elements it will audit, at most 128
 * per request. A background audit pool re-executes each one through
 * the exact CPU path to compute
 *
 *   - the true per-invocation output error and true TOQ-violation
 *     rate (`audit.true_error_pct`, `audit.true_toq_violations`,
 *     `audit.true_toq_violation_rate`),
 *   - checker-calibration labels per accelerator-served element:
 *     true-positive fires, false-positive recoveries (fired but the
 *     approximate output was fine), false-negative accepts (did not
 *     fire but the approximate output exceeded the threshold), and
 *     per-shard precision/recall gauges (`audit.shard<k>.precision`),
 *   - an audited-truth SLO (obs/slo.h, default name
 *     "audited_quality") whose burn rate runs on *measured* TOQ
 *     violations rather than the proxy predicted-error stream.
 *
 * Completed audits are retained in a bounded ring and exported as
 * labeled JSONL (`RUMBA_AUDIT_OUT`): one "audit" line per invocation
 * plus one "audit_element" line per element carrying (inputs,
 * predicted error, true error, fired/fixed labels) — exactly the
 * supervised substrate error-predictor retraining needs.
 *
 * Layering: obs cannot see apps::Benchmark, so exact re-execution and
 * the application's error metric arrive as AuditHooks std::functions;
 * the serving engine wires them from core::ExactReexecutor. The hooks
 * must be thread-safe (the Table 1 kernels are pure).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/ring.h"
#include "obs/slo.h"

namespace rumba::obs {

class Counter;
class Gauge;
class Histogram;

/**
 * One served request, lent to QualityAuditor::Offer for the length of
 * the call: the spans view the caller's buffers and hold @c count
 * elements each (inputs count x in_width, outputs count x out_width,
 * one entry per element otherwise). Nothing is copied unless the
 * auditor picks the request.
 */
struct AuditOffer {
    uint64_t trace_id = 0;   ///< reqtrace id (joins traces + flights).
    uint32_t shard = 0;
    size_t count = 0;        ///< elements in the request.
    size_t in_width = 0;
    size_t out_width = 0;
    std::span<const double> inputs;
    std::span<const double> served_outputs;  ///< post-merge, as delivered.
    /** Pre-merge accelerator outputs (breaker exact-tail elements
     *  hold their exact outputs). */
    std::span<const double> approx_outputs;
    std::span<const double> predicted_error; ///< checker estimate / element.
    std::span<const char> fired;             ///< acted-on verdict / element.
    /** Recovery-tier mask per element: 0 = accepted as-is, 1 = exact
     *  re-execution (core::kFixedExact), 2 = compensated in place
     *  (core::kFixedCompensated). Compensated elements are NOT ground
     *  truth — the auditor re-executes them to measure the residual
     *  the compensator left behind. */
    std::span<const char> fixed;
    std::span<const char> exact_path;        ///< breaker exact tail mask.
    double threshold_used = 0.0;
    double reported_error_pct = 0.0;   ///< runtime's verified error.
    double estimated_error_pct = 0.0;  ///< checker invocation estimate.
    uint32_t breaker_state = 0;
    /** Overload rung the request was served at (core::DegradeMode;
     *  0 = full service). */
    uint32_t degrade = 0;
    /** The invocation saw non-finite outputs or recovery-queue drops. */
    bool fault = false;
};

/** One audited element: a labeled (input, true error) pair. */
struct AuditedElement {
    /** Element index within the original request (sparse when the
     *  request was strided down to the per-audit element budget). */
    size_t index = 0;
    std::vector<double> inputs;
    double predicted_error = 0.0;
    /** True error of the pre-merge approximate output (what the
     *  checker was judging). */
    double approx_error = 0.0;
    /** True error of the served (post-merge) output. */
    double served_error = 0.0;
    bool fired = false;
    /** Recovered by exact re-execution (served output IS ground
     *  truth; served_error is 0 by construction). */
    bool fixed = false;
    /** Corrected in place by the compensate tier; served_error is the
     *  *measured* residual the compensator left behind. */
    bool compensated = false;
    bool exact_path = false;
    /** Ground truth: the approximate output exceeded the threshold the
     *  checker was enforcing, so a correct checker fires. */
    bool needs_fix = false;
};

/** One completed audit. */
struct AuditResult {
    uint64_t trace_id = 0;
    uint32_t shard = 0;
    bool forced = false;
    std::string forced_reason;
    size_t elements = 0;          ///< request size.
    /** Elements actually audited (== elements unless the request was
     *  strided down to QualityAuditor::kMaxAuditedElements). */
    size_t audited_elements = 0;
    double threshold_used = 0.0;
    double estimated_error_pct = 0.0;
    double reported_error_pct = 0.0;
    /** Independently re-measured output error of the served batch. */
    double true_error_pct = 0.0;
    bool toq_violation = false;
    double toq_bound_pct = 0.0;
    uint64_t true_positives = 0;
    uint64_t false_positives = 0;   ///< false-positive recoveries.
    uint64_t false_negatives = 0;   ///< false-negative accepts.
    uint64_t true_negatives = 0;
    uint32_t breaker_state = 0;
    uint64_t fixes = 0;
    /** Audited elements the compensate tier corrected in place. */
    size_t compensated_elements = 0;
    /** Mean measured residual of those elements, in percent (same
     *  units as true_error_pct) — the ground-truth feedback the
     *  RecoveryPolicy's upper-threshold tuner consumes. */
    double mean_compensated_residual_pct = 0.0;
    std::vector<AuditedElement> labeled;  ///< per-element labels.
};

/** Exact-path callbacks the auditor re-executes through. All three
 *  must be thread-safe; run_exact maps in_width inputs to out_width
 *  outputs for ONE element. */
struct AuditHooks {
    std::function<void(const double* in, double* out)> run_exact;
    std::function<double(const std::vector<double>& exact,
                         const std::vector<double>& approx)>
        element_error;
    /** Whole-invocation output error in percent. */
    std::function<double(const std::vector<double>& element_errors)>
        aggregate_error;
    /** Optional: invoked once per audited invocation that contained
     *  compensated elements, with the measured mean residual (percent)
     *  and the audited compensated-element count. The serving engine
     *  wires this to the shard runtime's OnAuditedCompensation so the
     *  compensate/re-execute boundary is tuned by measured truth, not
     *  by the compensator's own opinion of itself. Must be
     *  thread-safe; may be null. */
    std::function<void(uint32_t shard, double mean_residual_pct,
                       size_t elements)>
        on_compensated;
};

/** Auditor policy. */
struct AuditConfig {
    /** Healthy requests sampled 1-in-N (1 = audit everything,
     *  0 = forced samples only). */
    size_t sample_every = 16;
    /** Bounded sample queue; overflow is drop-and-count
     *  (audit.queue_drops), never backpressure on serving. */
    size_t queue_capacity = 64;
    size_t threads = 1;
    /** True-error bound defining an audited TOQ violation (percent);
     *  the engine sets it to the tuner target + SLO margin so proxy
     *  and audited SLOs judge the same objective. */
    double toq_bound_pct = 10.0;
    /** Completed audits retained for statusz / JSONL export. */
    size_t result_capacity = 256;
    uint32_t shards = 1;           ///< per-shard calibration gauges.
    bool slo_enabled = true;
    /** Audited-truth SLO (burn rate over measured TOQ violations). */
    SloConfig slo;
};

/** Point-in-time auditor summary (the /statusz quality section). */
struct AuditorStats {
    uint64_t enqueued = 0;
    uint64_t forced = 0;
    uint64_t queue_drops = 0;
    uint64_t audited = 0;          ///< completed audits.
    uint64_t audited_elements = 0;
    uint64_t toq_violations = 0;
    double toq_violation_rate = 0.0;
    double toq_bound_pct = 0.0;
    uint64_t true_positives = 0;
    uint64_t false_positives = 0;
    uint64_t false_negatives = 0;
    uint64_t true_negatives = 0;
    double precision = 0.0;  ///< TP / (TP + FP), 1 when no fires.
    double recall = 0.0;     ///< TP / (TP + FN), 1 when nothing needed.
    double mean_true_error_pct = 0.0;
    /** Audited compensate-tier elements and the mean measured
     *  residual (percent) they carried. */
    uint64_t compensated_elements = 0;
    double mean_compensated_residual_pct = 0.0;
    size_t queue_depth = 0;
    bool slo_alerting = false;
    double slo_fast_burn = 0.0;
    double slo_slow_burn = 0.0;
};

/**
 * Background ground-truth auditor and the one owner of the audit
 * sampling policy. Thread-safe: serving workers call Offer()
 * concurrently with the audit pool and with Shutdown(). Construction
 * registers the instance as the process's live auditor (consulted by
 * the RUMBA_AUDIT_OUT at-exit/signal export); Shutdown() deregisters
 * it and writes the export itself.
 */
class QualityAuditor {
  public:
    /** Recovered requests are *routine* in Rumba (fix rates of 10-25%
     *  are the design point): forcing every one would audit nearly all
     *  traffic, so they are forced 1-in-this. */
    static constexpr size_t kForcedRecoveredEvery = 4;
    /** Element budget per audit, which bounds its exact re-execution
     *  cost whatever batch sizes clients submit. True error,
     *  calibration counts and labels describe the audited subset. */
    static constexpr size_t kMaxAuditedElements = 128;

    QualityAuditor(const AuditConfig& config, AuditHooks hooks);

    /** Calls Shutdown(). */
    ~QualityAuditor();

    QualityAuditor(const QualityAuditor&) = delete;
    QualityAuditor& operator=(const QualityAuditor&) = delete;

    /**
     * Decide whether to audit @p offer and, when it is picked, queue a
     * copy of the elements the audit reads: every
     * ceil(count / kMaxAuditedElements)-th one. The policy, in order:
     * a degraded request is forced ("degraded": verify was skipped and
     * the proxy SLO is silent); a request with a recovered element is
     * forced when it wins the kForcedRecoveredEvery gate
     * ("recovered"); a non-closed breaker or an exact-tail element
     * forces it ("breaker"); so does a fault ("fault"); anything left,
     * gate losers included, passes the 1-in-sample_every healthy gate
     * ("sampled"). True when the request was queued; false when it was
     * not picked, or the queue is full or shut down (counted in
     * audit.queue_drops).
     */
    bool Offer(const AuditOffer& offer);

    /** Block until every queued sample has been audited. */
    void Flush();

    /** Drain the queue, stop the pool, export RUMBA_AUDIT_OUT, and
     *  deregister the live auditor. Idempotent. */
    void Shutdown();

    AuditorStats Stats() const;

    /** Completed audits retained in the result ring, oldest first. */
    std::vector<AuditResult> RecentResults() const;

    /** The audited-truth SLO monitor (nullptr when disabled). */
    SloMonitor* Slo() { return slo_enabled_ ? &slo_ : nullptr; }

    const AuditConfig& Config() const { return config_; }

    /** Render the retained audits as a labeled JSONL body (metadata
     *  header, "audit" lines, "audit_element" lines). */
    std::string ExportJsonl() const;

    /** The process's live auditor (last constructed, not yet shut
     *  down), or nullptr. */
    static QualityAuditor* Live();

  private:
    /** A queued audit: the offer's scalars plus its audited elements.
     *  Audited element k is request element k * stride; its values
     *  are inputs, served outputs, pre-merge outputs and predicted
     *  error, its masks fired, fixed and exact_path. */
    struct Sample {
        uint64_t trace_id = 0;
        uint32_t shard = 0;
        const char* forced_reason = nullptr;  ///< null: 1-in-N sampled.
        size_t count = 0;   ///< elements in the request.
        size_t stride = 1;
        size_t in_width = 0;
        size_t out_width = 0;
        std::vector<double> values;
        std::vector<char> masks;
        double threshold_used = 0.0;
        double reported_error_pct = 0.0;
        double estimated_error_pct = 0.0;
        uint32_t breaker_state = 0;
        uint64_t fixes = 0;  ///< recovered elements in the request.
    };

    /** Queue @p sample; false (and audit.queue_drops) when the queue
     *  is full or shut down. */
    bool Enqueue(Sample&& sample);
    void WorkerLoop();
    void AuditOne(const Sample& sample);

    const AuditConfig config_;
    const AuditHooks hooks_;
    const bool slo_enabled_;
    SloMonitor slo_;

    std::atomic<uint64_t> healthy_seen_{0};
    std::atomic<uint64_t> recovered_seen_{0};
    /** Per-instance ingress totals (the registry counters are
     *  process-wide and outlive any one auditor). */
    std::atomic<uint64_t> enqueued_{0};
    std::atomic<uint64_t> forced_{0};
    std::atomic<uint64_t> queue_drops_{0};

    mutable std::mutex mu_;
    std::condition_variable cv_work_;   ///< queue became non-empty.
    std::condition_variable cv_idle_;   ///< queue drained + idle.
    std::deque<Sample> queue_;
    size_t in_flight_ = 0;
    bool stopping_ = false;
    bool shut_down_ = false;
    std::vector<std::thread> pool_;

    /** Results + aggregate stats (guarded by results_mu_ so audits
     *  never contend with the enqueue path). */
    mutable std::mutex results_mu_;
    Ring<AuditResult> results_;
    AuditorStats totals_;
    std::vector<uint64_t> shard_tp_, shard_fp_, shard_fn_, shard_tn_;
    double true_error_sum_ = 0.0;
    /** Sum of per-element compensated residuals (unit fraction, not
     *  percent) across all audits, for the running mean. */
    double compensated_residual_sum_ = 0.0;

    Counter* obs_enqueued_;
    Counter* obs_forced_;
    Counter* obs_queue_drops_;
    Counter* obs_samples_;
    Counter* obs_elements_;
    Counter* obs_toq_violations_;
    Counter* obs_true_positives_;
    Counter* obs_false_positives_;
    Counter* obs_false_negatives_;
    Counter* obs_true_negatives_;
    Counter* obs_compensated_;
    Gauge* obs_compensated_residual_;
    Gauge* obs_violation_rate_;
    Gauge* obs_mean_true_error_;
    Histogram* obs_predicted_hist_;
    Histogram* obs_true_hist_;
    Histogram* obs_gap_hist_;
    std::vector<Gauge*> obs_shard_precision_;
    std::vector<Gauge*> obs_shard_recall_;
};

/**
 * Honor RUMBA_AUDIT_OUT: when the variable names a file and a live
 * auditor exists, write its labeled JSONL export there and return the
 * path; otherwise return "". Wired into the at-exit/signal telemetry
 * flush (obs/export.h) and called by QualityAuditor::Shutdown().
 */
std::string ExportAuditIfConfigured();

}  // namespace rumba::obs

#endif  // RUMBA_OBS_AUDIT_H_
