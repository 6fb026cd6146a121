#include "obs/audit.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace rumba::obs {

namespace {

/** The live auditor the at-exit/signal export consults. */
std::mutex g_live_mu;
QualityAuditor* g_live = nullptr;

/** Error-percent histogram bounds (latency defaults are ns-scale). */
std::vector<double>
ErrorPctBounds()
{
    return Histogram::ExponentialBuckets(0.05, 1.6, 24);
}

SloConfig
WithDefaultName(SloConfig slo)
{
    if (slo.name.empty() || slo.name == "objective")
        slo.name = "audited_quality";
    return slo;
}

}  // namespace

QualityAuditor::QualityAuditor(const AuditConfig& config,
                               AuditHooks hooks)
    : config_(config),
      hooks_(std::move(hooks)),
      slo_enabled_(config.slo_enabled),
      slo_(WithDefaultName(config.slo)),
      results_(config.result_capacity)
{
    RUMBA_CHECK(hooks_.run_exact != nullptr);
    RUMBA_CHECK(hooks_.element_error != nullptr);
    RUMBA_CHECK(hooks_.aggregate_error != nullptr);
    auto& registry = Registry::Default();
    obs_enqueued_ = registry.GetCounter("audit.enqueued");
    obs_forced_ = registry.GetCounter("audit.forced");
    obs_queue_drops_ = registry.GetCounter("audit.queue_drops");
    obs_samples_ = registry.GetCounter("audit.samples");
    obs_elements_ = registry.GetCounter("audit.audited_elements");
    obs_toq_violations_ =
        registry.GetCounter("audit.true_toq_violations");
    obs_true_positives_ =
        registry.GetCounter("audit.true_positive_fires");
    obs_false_positives_ =
        registry.GetCounter("audit.false_positive_recoveries");
    obs_false_negatives_ =
        registry.GetCounter("audit.false_negative_accepts");
    obs_true_negatives_ =
        registry.GetCounter("audit.true_negative_accepts");
    obs_compensated_ =
        registry.GetCounter("audit.compensated_elements");
    obs_compensated_residual_ =
        registry.GetGauge("audit.mean_compensated_residual_pct");
    obs_violation_rate_ =
        registry.GetGauge("audit.true_toq_violation_rate");
    obs_mean_true_error_ =
        registry.GetGauge("audit.mean_true_error_pct");
    obs_predicted_hist_ = registry.GetHistogram(
        "audit.predicted_error_pct", ErrorPctBounds());
    obs_true_hist_ =
        registry.GetHistogram("audit.true_error_pct", ErrorPctBounds());
    obs_gap_hist_ = registry.GetHistogram("audit.calibration_gap_pct",
                                          ErrorPctBounds());
    const uint32_t shards = std::max<uint32_t>(1, config_.shards);
    shard_tp_.assign(shards, 0);
    shard_fp_.assign(shards, 0);
    shard_fn_.assign(shards, 0);
    shard_tn_.assign(shards, 0);
    obs_shard_precision_.reserve(shards);
    obs_shard_recall_.reserve(shards);
    for (uint32_t k = 0; k < shards; ++k) {
        const std::string prefix =
            "audit.shard" + std::to_string(k) + ".";
        obs_shard_precision_.push_back(
            registry.GetGauge(prefix + "precision"));
        obs_shard_recall_.push_back(
            registry.GetGauge(prefix + "recall"));
        obs_shard_precision_.back()->Set(1.0);
        obs_shard_recall_.back()->Set(1.0);
    }
    totals_.toq_bound_pct = config_.toq_bound_pct;
    totals_.precision = 1.0;
    totals_.recall = 1.0;

    const size_t threads = std::max<size_t>(1, config_.threads);
    pool_.reserve(threads);
    for (size_t t = 0; t < threads; ++t)
        pool_.emplace_back([this] { WorkerLoop(); });

    {
        std::lock_guard<std::mutex> lock(g_live_mu);
        g_live = this;
    }
}

QualityAuditor::~QualityAuditor()
{
    Shutdown();
}

QualityAuditor*
QualityAuditor::Live()
{
    std::lock_guard<std::mutex> lock(g_live_mu);
    return g_live;
}

bool
QualityAuditor::SampleHealthy()
{
    if (config_.sample_every == 0)
        return false;
    const uint64_t seen =
        healthy_seen_.fetch_add(1, std::memory_order_relaxed);
    return seen % config_.sample_every == 0;
}

bool
QualityAuditor::SampleForcedRecovered()
{
    if (config_.forced_sample_every == 0)
        return false;
    const uint64_t seen =
        forced_candidates_seen_.fetch_add(1, std::memory_order_relaxed);
    return seen % config_.forced_sample_every == 0;
}

bool
QualityAuditor::Enqueue(AuditSample&& sample)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_ || queue_.size() >= config_.queue_capacity) {
            obs_queue_drops_->Increment();
            queue_drops_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        obs_enqueued_->Increment();
        enqueued_.fetch_add(1, std::memory_order_relaxed);
        if (sample.forced) {
            obs_forced_->Increment();
            forced_.fetch_add(1, std::memory_order_relaxed);
        }
        queue_.push_back(std::move(sample));
    }
    cv_work_.notify_one();
    return true;
}

void
QualityAuditor::Flush()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] {
        return queue_.empty() && in_flight_ == 0;
    });
}

void
QualityAuditor::WorkerLoop()
{
    for (;;) {
        AuditSample sample;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_work_.wait(lock, [this] {
                return !queue_.empty() || stopping_;
            });
            if (queue_.empty()) {
                // stopping_ with a drained queue: exit; Shutdown()
                // keeps the pool alive until the backlog is audited.
                return;
            }
            sample = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        {
            // The shadow exact re-execution is the "audit" stage in
            // the cost profiler: tagged for the sampling profiler and
            // accounted into the global stage counters (shard known
            // per sample).
            StageRecord stages;
            {
                const StageScope audit_scope(ProfileStage::kAudit,
                                             &stages, /*cpu=*/true);
                AuditOne(sample);
            }
            CpuProfiler::Default().AddStageCpuNs(
                ProfileStage::kAudit, static_cast<int>(sample.shard),
                stages.Cpu(ProfileStage::kAudit));
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                cv_idle_.notify_all();
        }
    }
}

void
QualityAuditor::AuditOne(const AuditSample& s)
{
    const size_t n = s.count;
    const size_t in_w = s.in_width;
    const size_t out_w = s.out_width;
    if (n == 0 || in_w == 0 || out_w == 0 ||
        s.inputs.size() < n * in_w ||
        s.served_outputs.size() < n * out_w) {
        Warn("audit: dropping malformed sample (trace %llu)",
             static_cast<unsigned long long>(s.trace_id));
        return;
    }
    const bool have_approx = s.approx_outputs.size() >= n * out_w;

    AuditResult result;
    result.trace_id = s.trace_id;
    result.shard = s.shard;
    result.forced = s.forced;
    result.forced_reason = s.forced_reason;
    result.elements = n;
    result.threshold_used = s.threshold_used;
    result.estimated_error_pct = s.estimated_error_pct;
    result.reported_error_pct = s.reported_error_pct;
    result.toq_bound_pct = config_.toq_bound_pct;
    result.breaker_state = s.breaker_state;
    result.fixes = s.fixes;

    // Element budget: stride large invocations down so one audit's
    // exact re-execution cost is bounded by config, not by whatever
    // batch size the client chose. The stride is deterministic — the
    // same invocation always audits the same subset.
    const size_t budget = config_.max_elements_per_sample;
    const size_t stride =
        (budget == 0 || n <= budget) ? 1 : (n + budget - 1) / budget;
    result.labeled.reserve((n + stride - 1) / stride);

    std::vector<double> exact(out_w, 0.0);
    std::vector<double> served(out_w, 0.0);
    std::vector<double> approx(out_w, 0.0);
    std::vector<double> served_errors;
    served_errors.reserve((n + stride - 1) / stride);
    uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
    double compensated_sum = 0.0;  ///< unit-fraction residual sum.
    size_t compensated_count = 0;
    for (size_t i = 0; i < n; i += stride) {
        AuditedElement el;
        el.index = i;
        el.inputs.assign(
            s.inputs.begin() + static_cast<ptrdiff_t>(i * in_w),
            s.inputs.begin() + static_cast<ptrdiff_t>((i + 1) * in_w));
        el.predicted_error =
            i < s.predicted_error.size() ? s.predicted_error[i] : 0.0;
        el.fired = i < s.fired.size() && s.fired[i] != 0;
        el.fixed = i < s.fixed.size() && s.fixed[i] == 1;
        el.compensated = i < s.fixed.size() && s.fixed[i] == 2;
        el.exact_path = i < s.exact_path.size() && s.exact_path[i] != 0;

        served.assign(
            s.served_outputs.begin() +
                static_cast<ptrdiff_t>(i * out_w),
            s.served_outputs.begin() +
                static_cast<ptrdiff_t>((i + 1) * out_w));
        if (el.fixed || el.exact_path) {
            // Exact re-execution and the breaker's exact tail run the
            // same exact kernel the auditor would: the served output
            // IS the ground truth, so re-executing it buys nothing.
            // Compensated elements deliberately do NOT take this
            // shortcut — the compensator is a model, and measuring
            // the residual it left behind is the whole point.
            exact = served;
        } else {
            hooks_.run_exact(s.inputs.data() + i * in_w, exact.data());
        }
        const double served_err =
            (el.fixed || el.exact_path)
                ? 0.0
                : hooks_.element_error(exact, served);
        served_errors.push_back(served_err);
        el.served_error = served_err;
        if (el.compensated) {
            compensated_sum += served_err;
            ++compensated_count;
        }
        if (el.exact_path || !have_approx) {
            // The breaker served it exactly: no approximate output
            // existed, so no checker verdict to calibrate.
            el.approx_error = 0.0;
        } else {
            approx.assign(
                s.approx_outputs.begin() +
                    static_cast<ptrdiff_t>(i * out_w),
                s.approx_outputs.begin() +
                    static_cast<ptrdiff_t>((i + 1) * out_w));
            el.approx_error = hooks_.element_error(exact, approx);
            el.needs_fix = el.approx_error >= s.threshold_used;
            if (el.fired && el.needs_fix)
                ++tp;
            else if (el.fired)
                ++fp;
            else if (el.needs_fix)
                ++fn;
            else
                ++tn;
        }
        result.labeled.push_back(std::move(el));
    }
    result.audited_elements = result.labeled.size();
    result.true_error_pct = hooks_.aggregate_error(served_errors);
    result.toq_violation =
        result.true_error_pct > config_.toq_bound_pct;
    result.true_positives = tp;
    result.false_positives = fp;
    result.false_negatives = fn;
    result.true_negatives = tn;
    result.compensated_elements = compensated_count;
    result.mean_compensated_residual_pct =
        compensated_count == 0
            ? 0.0
            : 100.0 * compensated_sum /
                  static_cast<double>(compensated_count);

    obs_samples_->Increment();
    obs_elements_->Increment(result.audited_elements);
    obs_true_positives_->Increment(tp);
    obs_false_positives_->Increment(fp);
    obs_false_negatives_->Increment(fn);
    obs_true_negatives_->Increment(tn);
    if (compensated_count > 0)
        obs_compensated_->Increment(compensated_count);
    if (result.toq_violation)
        obs_toq_violations_->Increment();
    obs_predicted_hist_->Observe(
        std::max(0.0, result.estimated_error_pct));
    obs_true_hist_->Observe(std::max(0.0, result.true_error_pct));
    obs_gap_hist_->Observe(std::fabs(result.true_error_pct -
                                     result.estimated_error_pct));

    // result is moved into the ring below; copy what outlives it.
    const bool toq_violation = result.toq_violation;
    {
        std::lock_guard<std::mutex> lock(results_mu_);
        ++totals_.audited;
        totals_.audited_elements += result.audited_elements;
        totals_.true_positives += tp;
        totals_.false_positives += fp;
        totals_.false_negatives += fn;
        totals_.true_negatives += tn;
        if (result.toq_violation)
            ++totals_.toq_violations;
        totals_.toq_violation_rate =
            static_cast<double>(totals_.toq_violations) /
            static_cast<double>(totals_.audited);
        true_error_sum_ += result.true_error_pct;
        totals_.mean_true_error_pct =
            true_error_sum_ / static_cast<double>(totals_.audited);
        totals_.compensated_elements += compensated_count;
        compensated_residual_sum_ += compensated_sum;
        totals_.mean_compensated_residual_pct =
            totals_.compensated_elements == 0
                ? 0.0
                : 100.0 * compensated_residual_sum_ /
                      static_cast<double>(
                          totals_.compensated_elements);
        obs_compensated_residual_->Set(
            totals_.mean_compensated_residual_pct);
        const uint64_t fires =
            totals_.true_positives + totals_.false_positives;
        const uint64_t needed =
            totals_.true_positives + totals_.false_negatives;
        totals_.precision =
            fires == 0 ? 1.0
                       : static_cast<double>(totals_.true_positives) /
                             static_cast<double>(fires);
        totals_.recall =
            needed == 0 ? 1.0
                        : static_cast<double>(totals_.true_positives) /
                              static_cast<double>(needed);
        obs_violation_rate_->Set(totals_.toq_violation_rate);
        obs_mean_true_error_->Set(totals_.mean_true_error_pct);

        const uint32_t k =
            std::min<uint32_t>(result.shard,
                               static_cast<uint32_t>(
                                   shard_tp_.size() - 1));
        shard_tp_[k] += tp;
        shard_fp_[k] += fp;
        shard_fn_[k] += fn;
        shard_tn_[k] += tn;
        const uint64_t shard_fires = shard_tp_[k] + shard_fp_[k];
        const uint64_t shard_needed = shard_tp_[k] + shard_fn_[k];
        obs_shard_precision_[k]->Set(
            shard_fires == 0
                ? 1.0
                : static_cast<double>(shard_tp_[k]) /
                      static_cast<double>(shard_fires));
        obs_shard_recall_[k]->Set(
            shard_needed == 0
                ? 1.0
                : static_cast<double>(shard_tp_[k]) /
                      static_cast<double>(shard_needed));

        if (config_.result_capacity > 0)
            results_.Push(std::move(result));
    }

    // The audited-truth SLO judges measured violations; recorded
    // outside both locks so a slow sink never blocks the pool.
    if (slo_enabled_)
        slo_.Record(!toq_violation);

    // Ground-truth feedback for the compensate/re-execute boundary:
    // the RecoveryPolicy tunes its upper threshold on measured
    // residuals, never on the compensator's own predictions. Outside
    // the locks — the sink may take the shard runtime's policy mutex.
    if (hooks_.on_compensated && compensated_count > 0) {
        hooks_.on_compensated(
            s.shard,
            100.0 * compensated_sum /
                static_cast<double>(compensated_count),
            compensated_count);
    }
}

AuditorStats
QualityAuditor::Stats() const
{
    AuditorStats stats;
    {
        std::lock_guard<std::mutex> lock(results_mu_);
        stats = totals_;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats.queue_depth = queue_.size() + in_flight_;
    }
    stats.enqueued = enqueued_.load(std::memory_order_relaxed);
    stats.forced = forced_.load(std::memory_order_relaxed);
    stats.queue_drops = queue_drops_.load(std::memory_order_relaxed);
    if (slo_enabled_) {
        stats.slo_alerting = slo_.Alerting();
        stats.slo_fast_burn = slo_.FastBurnRate();
        stats.slo_slow_burn = slo_.SlowBurnRate();
    }
    return stats;
}

std::vector<AuditResult>
QualityAuditor::RecentResults() const
{
    std::lock_guard<std::mutex> lock(results_mu_);
    return results_.Snapshot();
}

namespace {

std::string
Bool(bool v)
{
    return v ? "true" : "false";
}

}  // namespace

std::string
QualityAuditor::ExportJsonl() const
{
    const std::vector<AuditResult> results = RecentResults();
    std::string body = MetadataJsonLine() + "\n";
    for (const AuditResult& r : results) {
        body += "{\"type\":\"audit\",\"trace_id\":" +
                std::to_string(r.trace_id) +
                ",\"shard\":" + std::to_string(r.shard) +
                ",\"forced\":" + Bool(r.forced) +
                ",\"forced_reason\":" + JsonQuote(r.forced_reason) +
                ",\"elements\":" + std::to_string(r.elements) +
                ",\"audited_elements\":" +
                std::to_string(r.audited_elements) +
                ",\"threshold\":" + JsonNum(r.threshold_used) +
                ",\"estimated_error_pct\":" +
                JsonNum(r.estimated_error_pct) +
                ",\"reported_error_pct\":" +
                JsonNum(r.reported_error_pct) +
                ",\"true_error_pct\":" + JsonNum(r.true_error_pct) +
                ",\"toq_violation\":" + Bool(r.toq_violation) +
                ",\"toq_bound_pct\":" + JsonNum(r.toq_bound_pct) +
                ",\"tp\":" + std::to_string(r.true_positives) +
                ",\"fp\":" + std::to_string(r.false_positives) +
                ",\"fn\":" + std::to_string(r.false_negatives) +
                ",\"tn\":" + std::to_string(r.true_negatives) +
                ",\"breaker_state\":" +
                std::to_string(r.breaker_state) +
                ",\"fixes\":" + std::to_string(r.fixes) +
                ",\"compensated_elements\":" +
                std::to_string(r.compensated_elements) +
                ",\"mean_compensated_residual_pct\":" +
                JsonNum(r.mean_compensated_residual_pct) + "}\n";
        // One labeled line per element; inputs land as flat input_<j>
        // keys so the line stays array-free (rumba-stat's JSON mini
        // parser, and most JSONL tooling, prefers flat objects).
        for (size_t i = 0; i < r.labeled.size(); ++i) {
            const AuditedElement& el = r.labeled[i];
            body += "{\"type\":\"audit_element\",\"trace_id\":" +
                    std::to_string(r.trace_id) +
                    ",\"shard\":" + std::to_string(r.shard) +
                    ",\"index\":" + std::to_string(el.index) +
                    ",\"predicted_error\":" +
                    JsonNum(el.predicted_error) +
                    ",\"approx_error\":" + JsonNum(el.approx_error) +
                    ",\"served_error\":" + JsonNum(el.served_error) +
                    ",\"fired\":" + Bool(el.fired) +
                    ",\"fixed\":" + Bool(el.fixed) +
                    ",\"compensated\":" + Bool(el.compensated) +
                    ",\"exact_path\":" + Bool(el.exact_path) +
                    ",\"needs_fix\":" + Bool(el.needs_fix);
            for (size_t j = 0; j < el.inputs.size(); ++j) {
                body += ",\"input_" + std::to_string(j) +
                        "\":" + JsonNum(el.inputs[j]);
            }
            body += "}\n";
        }
    }
    return body;
}

void
QualityAuditor::Shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shut_down_)
            return;
        stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : pool_) {
        if (t.joinable())
            t.join();
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        shut_down_ = true;
    }
    {
        std::lock_guard<std::mutex> lock(g_live_mu);
        if (g_live == this)
            g_live = nullptr;
    }
    // Final labeled-data export while the results are still alive;
    // the at-exit hook finds no live auditor afterwards and leaves
    // this file untouched.
    const char* path = std::getenv("RUMBA_AUDIT_OUT");
    if (path != nullptr && path[0] != '\0') {
        const std::string body = ExportJsonl();
        std::FILE* f = std::fopen(path, "w");
        if (f == nullptr) {
            Warn("RUMBA_AUDIT_OUT: cannot open %s: %s", path,
                 std::strerror(errno));
            return;
        }
        const size_t written =
            std::fwrite(body.data(), 1, body.size(), f);
        if (std::fclose(f) != 0 || written != body.size())
            Warn("RUMBA_AUDIT_OUT: short write to %s", path);
        else
            Inform("RUMBA_AUDIT_OUT: wrote labeled audits to %s",
                   path);
    }
}

std::string
ExportAuditIfConfigured()
{
    const char* path = std::getenv("RUMBA_AUDIT_OUT");
    if (path == nullptr || path[0] == '\0')
        return "";
    std::string body;
    {
        std::lock_guard<std::mutex> lock(g_live_mu);
        if (g_live == nullptr)
            return "";
        body = g_live->ExportJsonl();
    }
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        Warn("RUMBA_AUDIT_OUT: cannot open %s: %s", path,
             std::strerror(errno));
        return "";
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    if (std::fclose(f) != 0 || written != body.size()) {
        Warn("RUMBA_AUDIT_OUT: short write to %s", path);
        return "";
    }
    return path;
}

}  // namespace rumba::obs
