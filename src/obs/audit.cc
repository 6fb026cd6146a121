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

/** One 1-in-@p every draw on @p seen (never when @p every is 0). */
bool
OneIn(std::atomic<uint64_t>* seen, size_t every)
{
    return every != 0 &&
           seen->fetch_add(1, std::memory_order_relaxed) % every == 0;
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
QualityAuditor::Offer(const AuditOffer& offer)
{
    const size_t n = offer.count;
    const size_t in_w = offer.in_width;
    const size_t out_w = offer.out_width;
    RUMBA_CHECK(n > 0 && in_w > 0 && out_w > 0);
    RUMBA_CHECK(offer.inputs.size() == n * in_w &&
                offer.served_outputs.size() == n * out_w &&
                offer.approx_outputs.size() == n * out_w &&
                offer.predicted_error.size() == n &&
                offer.fired.size() == n && offer.fixed.size() == n &&
                offer.exact_path.size() == n);

    uint64_t fixes = 0;
    bool exact_tail = false;
    for (size_t i = 0; i < n; ++i) {
        fixes += offer.fixed[i] != 0 ? 1 : 0;
        exact_tail |= offer.exact_path[i] != 0;
    }
    // The policy of audit.h, in its order: each gate advances only
    // when the request reaches it.
    const char* reason = nullptr;
    if (offer.degrade != 0)
        reason = "degraded";
    else if (fixes > 0 && OneIn(&recovered_seen_, kForcedRecoveredEvery))
        reason = "recovered";
    else if (offer.breaker_state != 0 || exact_tail)
        reason = "breaker";
    else if (offer.fault)
        reason = "fault";
    if (reason == nullptr && !OneIn(&healthy_seen_, config_.sample_every))
        return false;

    Sample s;
    s.trace_id = offer.trace_id;
    s.shard = offer.shard;
    s.forced_reason = reason;
    s.count = n;
    s.stride = (n + kMaxAuditedElements - 1) / kMaxAuditedElements;
    s.in_width = in_w;
    s.out_width = out_w;
    s.threshold_used = offer.threshold_used;
    s.reported_error_pct = offer.reported_error_pct;
    s.estimated_error_pct = offer.estimated_error_pct;
    s.breaker_state = offer.breaker_state;
    s.fixes = fixes;
    const size_t kept = (n + s.stride - 1) / s.stride;
    s.values.reserve(kept * (in_w + 2 * out_w + 1));
    s.masks.reserve(kept * 3);
    for (size_t i = 0; i < n; i += s.stride) {
        const auto append = [&s, i](std::span<const double> view,
                                    size_t width) {
            const auto element = view.subspan(i * width, width);
            s.values.insert(s.values.end(), element.begin(), element.end());
        };
        append(offer.inputs, in_w);
        append(offer.served_outputs, out_w);
        append(offer.approx_outputs, out_w);
        append(offer.predicted_error, 1);
        s.masks.insert(s.masks.end(), {offer.fired[i], offer.fixed[i],
                                       offer.exact_path[i]});
    }
    return Enqueue(std::move(s));
}

bool
QualityAuditor::Enqueue(Sample&& sample)
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
        if (sample.forced_reason != nullptr) {
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
        Sample sample;
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
QualityAuditor::AuditOne(const Sample& s)
{
    const size_t in_w = s.in_width;
    const size_t out_w = s.out_width;
    const size_t kept = s.masks.size() / 3;

    AuditResult result;
    result.trace_id = s.trace_id;
    result.shard = s.shard;
    result.forced = s.forced_reason != nullptr;
    result.forced_reason = result.forced ? s.forced_reason : "sampled";
    result.elements = s.count;
    result.threshold_used = s.threshold_used;
    result.estimated_error_pct = s.estimated_error_pct;
    result.reported_error_pct = s.reported_error_pct;
    result.toq_bound_pct = config_.toq_bound_pct;
    result.breaker_state = s.breaker_state;
    result.fixes = s.fixes;
    result.labeled.reserve(kept);

    std::vector<double> exact(out_w, 0.0);
    std::vector<double> served(out_w, 0.0);
    std::vector<double> approx(out_w, 0.0);
    std::vector<double> served_errors;
    served_errors.reserve(kept);
    uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
    double compensated_sum = 0.0;  ///< unit-fraction residual sum.
    size_t compensated_count = 0;
    for (size_t k = 0; k < kept; ++k) {
        const double* in = s.values.data() + k * (in_w + 2 * out_w + 1);
        const double* served_at = in + in_w;
        const double* approx_at = served_at + out_w;
        const char* mask = s.masks.data() + 3 * k;
        served.assign(served_at, served_at + out_w);
        approx.assign(approx_at, approx_at + out_w);
        AuditedElement el;
        el.index = k * s.stride;
        el.inputs.assign(in, in + in_w);
        el.predicted_error = approx_at[out_w];
        el.fired = mask[0] != 0;
        el.fixed = mask[1] == 1;
        el.compensated = mask[1] == 2;
        el.exact_path = mask[2] != 0;

        if (el.fixed || el.exact_path) {
            // Exact re-execution and the breaker's exact tail run the
            // same exact kernel the auditor would: the served output
            // IS the ground truth, so re-executing it buys nothing.
            // Compensated elements deliberately do NOT take this
            // shortcut — the compensator is a model, and measuring
            // the residual it left behind is the whole point.
            exact = served;
        } else {
            hooks_.run_exact(in, exact.data());
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
        if (el.exact_path) {
            // The breaker served it exactly: no approximate output
            // existed, so no checker verdict to calibrate.
            el.approx_error = 0.0;
        } else {
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
