#include "serve/engine.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "apps/benchmark.h"
#include "common/logging.h"
#include "core/batch_view.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tsdb.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace rumba::serve {

namespace {

/** Immediately-resolved future for requests that never enqueue. */
std::future<InvocationResult>
Resolved(InvocationResult result)
{
    std::promise<InvocationResult> promise;
    std::future<InvocationResult> future = promise.get_future();
    promise.set_value(std::move(result));
    return future;
}

/** Objective of the latency and quality SLOs. */
constexpr double kServeSloObjective = 0.99;

const char*
TuningModeName(core::TuningMode mode)
{
    switch (mode) {
      case core::TuningMode::kToq: return "toq";
      case core::TuningMode::kEnergy: return "energy";
      case core::TuningMode::kQuality: return "quality";
    }
    return "unknown";
}

}  // namespace

std::optional<size_t>
ParseAuditSampleN(const char* value)
{
    if (value == nullptr || value[0] == '\0')
        return std::nullopt;
    // strtoull alone would take "abc" as 0 (auditing off) and "-1" as
    // 2^64-1 (healthy traffic never audited): digits only.
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE) {
        Warn("RUMBA_AUDIT_SAMPLE_N='%s' is not a non-negative integer; "
             "keeping the configured audit rate",
             value);
        return std::nullopt;
    }
    return static_cast<size_t>(parsed);
}

ShardedEngine::ShardedEngine(const ServeConfig& config,
                             size_t input_width, size_t output_width)
    : config_(config),
      input_width_(input_width),
      output_width_(output_width)
{
    auto& registry = obs::Registry::Default();
    obs_submitted_ = registry.GetCounter("serve.submitted");
    obs_rejected_ = registry.GetCounter("serve.rejected");
    obs_completed_ = registry.GetCounter("serve.completed");
    obs_cancelled_ = registry.GetCounter("serve.cancelled");
    obs_enqueue_to_complete_ns_ =
        registry.GetHistogram("serve.enqueue_to_complete_ns");
    obs_batch_elements_ = registry.GetHistogram("serve.batch_elements");
    obs_adm_admitted_ = registry.GetCounter("serve.admission.admitted");
    obs_adm_compensated_ =
        registry.GetCounter("serve.admission.compensated");
    obs_adm_degraded_ = registry.GetCounter("serve.admission.degraded");
    obs_adm_bypassed_ = registry.GetCounter("serve.admission.bypassed");
    obs_adm_shed_ = registry.GetCounter("serve.admission.shed");
    obs_adm_expired_ = registry.GetCounter("serve.admission.expired");
    obs_adm_rejected_ = registry.GetCounter("serve.admission.rejected");
}

core::Result<std::unique_ptr<ShardedEngine>>
ShardedEngine::Create(const core::Artifact& artifact,
                      const core::RuntimeConfig& runtime_config,
                      const ServeConfig& serve_config)
{
    if (serve_config.shards == 0) {
        return core::Status(core::StatusCode::kInvalidArgument,
                            "a serving engine needs at least one shard");
    }
    if (serve_config.queue_capacity == 0) {
        return core::Status(
            core::StatusCode::kInvalidArgument,
            "queue_capacity 0 would reject every submission");
    }
    if (!(serve_config.slo.quality_margin_pct >= 0.0)) {
        return core::Status(core::StatusCode::kInvalidArgument,
                            "slo.quality_margin_pct must be >= 0");
    }

    // Request tracing needs per-stage wall clock from every replica;
    // everything else in the runtime config passes through untouched.
    core::RuntimeConfig shard_runtime_config = runtime_config;
    if (serve_config.trace.enabled)
        shard_runtime_config.stage_timings = true;
    // Cost profiling needs per-stage thread CPU from every replica.
    if (serve_config.profile.enabled)
        shard_runtime_config.cpu_attribution = true;

    // Validate the artifact once, then replicate: every shard is
    // instantiated from the same deployment blob (train-once,
    // replicate-everywhere), so one failure mode covers all shards.
    std::vector<std::unique_ptr<core::RumbaRuntime>> replicas;
    replicas.reserve(serve_config.shards);
    for (size_t i = 0; i < serve_config.shards; ++i) {
        auto replica = core::RumbaRuntime::FromArtifact(
            artifact, shard_runtime_config);
        if (!replica.ok())
            return replica.status();
        replicas.push_back(std::move(replica).value());
    }

    const size_t in_w = replicas.front()->Bench().NumInputs();
    const size_t out_w = replicas.front()->Bench().NumOutputs();
    std::unique_ptr<ShardedEngine> engine(
        new ShardedEngine(serve_config, in_w, out_w));

    auto& registry = obs::Registry::Default();
    engine->shards_.reserve(serve_config.shards);
    for (size_t i = 0; i < serve_config.shards; ++i) {
        auto shard = std::make_unique<Shard>(serve_config.queue_capacity);
        shard->runtime = std::move(replicas[i]);
        const std::string prefix =
            "serve.shard" + std::to_string(i) + ".";
        shard->obs_queue_depth =
            registry.GetGauge(prefix + "queue_depth");
        shard->obs_breaker_state =
            registry.GetGauge(prefix + "breaker_state");
        shard->obs_threshold = registry.GetGauge(prefix + "threshold");
        shard->obs_served = registry.GetCounter(prefix + "served");
        shard->obs_threshold->Set(shard->runtime->Threshold());
        if (serve_config.flight.capacity > 0) {
            // The flight view keeps every record, so the lead-in to
            // an incident is never sampled away.
            shard->flight = std::make_unique<obs::RequestTraceCollector>(
                serve_config.flight.capacity, /*sample_every=*/1);
        }
        engine->shards_.push_back(std::move(shard));
    }

    // RUMBA_ADMISSION=off reverts to pure reject-on-full backpressure
    // without a rebuild — the overload drills use it to demonstrate
    // what the admission ladder is buying.
    AdmissionConfig admission_config = serve_config.admission;
    if (const char* knob = std::getenv("RUMBA_ADMISSION");
        knob != nullptr && std::string_view(knob) == "off")
        admission_config.enabled = false;
    engine->admission_ =
        std::make_unique<AdmissionController>(admission_config);

    engine->tuner_mode_ = TuningModeName(runtime_config.tuner.mode);
    if (serve_config.trace.enabled) {
        obs::RequestTraceCollector::Default().SetSampleEvery(
            serve_config.trace.sample_every);
    }
    if (serve_config.slo.enabled) {
        engine->latency_slo_ = std::make_unique<obs::SloMonitor>(
            "serve_latency", kServeSloObjective);
        engine->quality_slo_ = std::make_unique<obs::SloMonitor>(
            "serve_quality", kServeSloObjective);
        engine->quality_bound_pct_ =
            runtime_config.tuner.target_error_pct +
            serve_config.slo.quality_margin_pct;
    }

    // Ground-truth auditor: background exact re-execution of sampled
    // invocations. RUMBA_AUDIT_SAMPLE_N overrides the configured
    // sampling rate; 0 disables the auditor entirely.
    ServeConfig::AuditOptions audit_opts = serve_config.audit;
    if (const std::optional<size_t> every = ParseAuditSampleN(
            std::getenv("RUMBA_AUDIT_SAMPLE_N"))) {
        audit_opts.sample_every = *every;
        if (*every == 0)
            audit_opts.enabled = false;
    }
    if (audit_opts.enabled) {
        obs::AuditConfig audit_config;
        audit_config.sample_every = audit_opts.sample_every;
        audit_config.queue_capacity = audit_opts.queue_capacity;
        audit_config.threads = audit_opts.threads;
        const double margin = audit_opts.margin_pct >= 0.0
                                  ? audit_opts.margin_pct
                                  : serve_config.slo.quality_margin_pct;
        audit_config.toq_bound_pct =
            runtime_config.tuner.target_error_pct + margin;
        audit_config.result_capacity = audit_opts.result_capacity;
        audit_config.shards = static_cast<uint32_t>(serve_config.shards);
        audit_config.slo_objective = audit_opts.objective;
        // The auditor's own kernel instance (FromArtifact() validated
        // the name above): its methods are const and the Table 1
        // kernels pure, so the pool threads share it.
        const std::shared_ptr<const apps::Benchmark> bench =
            apps::MakeBenchmark(artifact.benchmark);
        obs::AuditHooks hooks;
        hooks.run_exact = [bench](const double* in, double* out) {
            bench->RunExact(in, out);
        };
        hooks.element_error =
            [bench](const std::vector<double>& exact_out,
                    const std::vector<double>& approx_out) {
                return bench->ElementError(exact_out, approx_out);
            };
        hooks.aggregate_error =
            [bench](const std::vector<double>& element_errors) {
                return bench->AggregateError(element_errors);
            };
        // Close the tiered-recovery feedback loop: measured
        // compensator residuals flow back into the serving shard's
        // RecoveryPolicy, which tunes the compensate/re-execute
        // boundary on audited truth. Safe across shutdown: auditor_
        // is declared after shards_, so its pool joins before any
        // shard runtime dies.
        hooks.on_compensated =
            [raw = engine.get()](uint32_t shard, double mean_residual_pct,
                                 size_t elements) {
                if (shard < raw->shards_.size()) {
                    raw->shards_[shard]->runtime->OnAuditedCompensation(
                        mean_residual_pct, elements);
                }
            };
        engine->auditor_ = std::make_unique<obs::QualityAuditor>(
            audit_config, std::move(hooks));
    }

    // Live observability surface: honor RUMBA_METRICS_PORT and serve
    // this engine's status at /statusz. The engine pointer doubles as
    // the owner token: a second engine takes over the route, and each
    // engine's Shutdown clears the provider only if it still owns it.
    // The server invokes the provider under its provider lock, so the
    // owner-checked clear in Shutdown waits out in-flight scrapes
    // before the engine is torn down.
    obs::ObservabilityServer::StartFromEnv();
    obs::ObservabilityServer::Default().SetStatusProvider(
        [raw = engine.get()] { return raw->StatuszJson(); },
        engine.get());
    engine->statusz_installed_ = true;

    // Cost profiling: this engine's shards feed the process-wide
    // CpuProfiler, whose first use registers the RUMBA_PROFILE_OUT
    // flush hook. Each shard fetches its counter row once here, so
    // the per-invocation record takes no lock.
    engine->profiling_ = serve_config.profile.enabled;
    if (engine->profiling_) {
        obs::CpuProfiler& profiler = obs::CpuProfiler::Default();
        for (size_t i = 0; i < serve_config.shards; ++i) {
            engine->shards_[i]->profile_row =
                profiler.ShardCounters(static_cast<int>(i));
        }
    }

    // Incident forensics: hand the incident manager this engine's
    // flight records (engine pointer as owner token, cleared in
    // Shutdown after the workers join), and hold one ref on the
    // background tsdb sampler that drives the whole pipeline.
    engine->forensics_ = serve_config.forensics.enabled;
    if (engine->forensics_) {
        obs::IncidentManager::Default().SetFlightProvider(
            [raw = engine.get()] {
                return raw->IncidentFlightRecords();
            },
            engine.get());
        obs::TsdbSampler::Acquire();
    }

    for (size_t i = 0; i < serve_config.shards; ++i) {
        engine->shards_[i]->worker =
            std::thread([raw = engine.get(), i] { raw->WorkerLoop(i); });
    }
    return engine;
}

ShardedEngine::~ShardedEngine()
{
    Shutdown();
}

const core::RumbaRuntime&
ShardedEngine::Runtime(size_t i) const
{
    RUMBA_CHECK(i < shards_.size());
    return *shards_[i]->runtime;
}

std::future<InvocationResult>
ShardedEngine::Submit(InvocationRequest request)
{
    obs_submitted_->Increment();
    const uint64_t trace_id =
        obs::RequestTraceCollector::Default().NextTraceId();
    const uint64_t submit_ns = obs::NowNs();

    InvocationResult reject;
    reject.trace_id = trace_id;
    if (shutdown_.load(std::memory_order_acquire)) {
        reject.status =
            core::Status(core::StatusCode::kUnavailable,
                         "engine is shut down");
        obs_rejected_->Increment();
        RecordRequest(0, false, trace_id, submit_ns, request.count,
                      obs::RequestOutcome::kRejected,
                      reject.status.code());
        return Resolved(std::move(reject));
    }
    if (request.count == 0 || request.width != input_width_ ||
        request.inputs.size() != request.count * request.width) {
        reject.status = core::Status(
            core::StatusCode::kInvalidArgument,
            "request shape must be count x " +
                std::to_string(input_width_) + " contiguous doubles");
        obs_rejected_->Increment();
        RecordRequest(0, false, trace_id, submit_ns, request.count,
                      obs::RequestOutcome::kRejected,
                      reject.status.code());
        return Resolved(std::move(reject));
    }
    if (request.shard != InvocationRequest::kAnyShard &&
        (request.shard < 0 ||
         static_cast<size_t>(request.shard) >= shards_.size())) {
        reject.status =
            core::Status(core::StatusCode::kInvalidArgument,
                         "no such shard " +
                             std::to_string(request.shard));
        obs_rejected_->Increment();
        RecordRequest(0, false, trace_id, submit_ns, request.count,
                      obs::RequestOutcome::kRejected,
                      reject.status.code());
        return Resolved(std::move(reject));
    }

    const size_t shard_index =
        request.shard == InvocationRequest::kAnyShard
            ? next_shard_.fetch_add(1, std::memory_order_relaxed) %
                  shards_.size()
            : static_cast<size_t>(request.shard);
    Shard& shard = *shards_[shard_index];

    // A dead-on-arrival deadline never costs the queue a slot.
    if (request.deadline_ns != 0 && submit_ns > request.deadline_ns) {
        reject.status = core::Status(
            core::StatusCode::kDeadlineExceeded,
            "deadline already expired at submit (shard " +
                std::to_string(shard_index) + ")");
        reject.shard = shard_index;
        obs_rejected_->Increment();
        obs_adm_expired_->Increment();
        RecordRequest(shard_index, true, trace_id, submit_ns,
                      request.count, obs::RequestOutcome::kExpired,
                      reject.status.code());
        return Resolved(std::move(reject));
    }

    // Admission: one observation of this shard's pressure steps the
    // state machine, then the shedding ladder maps (state, class) to
    // full service, a degrade rung, or a shed.
    const size_t queue_depth = shard.queue.Size();
    const double fill =
        static_cast<double>(queue_depth) /
        static_cast<double>(config_.queue_capacity);
    const bool slo_alerting =
        latency_slo_ != nullptr && latency_slo_->Alerting();
    const AdmissionAction action =
        admission_->Decide(request.quality, fill, slo_alerting);
    if (action == AdmissionAction::kShed) {
        reject.status = core::Status(
            core::StatusCode::kUnavailable,
            std::string("admission ") +
                AdmissionStateName(admission_->state()) + ": " +
                QualityClassName(request.quality) +
                " request shed (shard " +
                std::to_string(shard_index) + " queue " +
                std::to_string(queue_depth) + "/" +
                std::to_string(config_.queue_capacity) +
                "; retry later)");
        reject.shard = shard_index;
        obs_rejected_->Increment();
        obs_adm_shed_->Increment();
        RecordRequest(shard_index, true, trace_id, submit_ns,
                      request.count, obs::RequestOutcome::kShed,
                      reject.status.code());
        return Resolved(std::move(reject));
    }

    Pending pending;
    pending.request = std::move(request);
    pending.enqueue_ns = submit_ns;
    pending.trace_id = trace_id;
    // The rung's counter moves only once the request is queued: a
    // backpressure refusal lands in serve.admission.rejected alone.
    obs::Counter* rung_counter = obs_adm_admitted_;
    switch (action) {
      case AdmissionAction::kAdmit:
        break;
      case AdmissionAction::kCompensateOnly:
        pending.degrade = core::DegradeMode::kCompensateOnly;
        rung_counter = obs_adm_compensated_;
        break;
      case AdmissionAction::kDegrade:
        pending.degrade = core::DegradeMode::kSkipRecovery;
        rung_counter = obs_adm_degraded_;
        break;
      case AdmissionAction::kBypassCheck:
        pending.degrade = core::DegradeMode::kSkipCheck;
        rung_counter = obs_adm_bypassed_;
        break;
      case AdmissionAction::kShed:
        break;  // handled above.
    }
    std::future<InvocationResult> future =
        pending.promise.get_future();

    // Count the request in-flight *before* the push: the worker may
    // complete it (and decrement) the instant it lands.
    {
        std::lock_guard<std::mutex> lock(drain_mu_);
        ++in_flight_;
    }
    if (!shard.queue.TryPush(pending)) {
        {
            std::lock_guard<std::mutex> lock(drain_mu_);
            --in_flight_;
        }
        drain_cv_.notify_all();
        reject.status = core::Status(
            core::StatusCode::kResourceExhausted,
            "shard " + std::to_string(shard_index) +
                " queue is full at " +
                std::to_string(shard.queue.Size()) + "/" +
                std::to_string(config_.queue_capacity) +
                " (backpressure; retry later)");
        reject.shard = shard_index;
        obs_rejected_->Increment();
        obs_adm_rejected_->Increment();
        RecordRequest(shard_index, true, trace_id, submit_ns,
                      pending.request.count,
                      obs::RequestOutcome::kRejected,
                      reject.status.code());
        // The promise in `pending` dies unused; the caller holds the
        // resolved future below instead.
        return Resolved(std::move(reject));
    }
    rung_counter->Increment();
    shard.obs_queue_depth->Set(
        static_cast<double>(shard.queue.Size()));
    return future;
}

void
ShardedEngine::Drain()
{
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ShardedEngine::Shutdown()
{
    bool expected = false;
    if (!shutdown_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel))
        return;  // idempotent: someone already shut us down.

    // This engine's status must not outlive it on the scrape surface.
    // Owner-checked (a newer engine may have taken over /statusz) and
    // blocking: on return no scrape thread can still be inside this
    // engine's StatuszJson().
    if (statusz_installed_) {
        obs::ObservabilityServer::Default().ClearStatusProvider(this);
        statusz_installed_ = false;
    }

    // Cancel everything still queued; workers finish their in-flight
    // request (its future resolves kOk), then see the closed queue and
    // exit.
    size_t shard_index = 0;
    for (auto& shard : shards_) {
        std::deque<Pending> leftovers;
        shard->queue.Close(&leftovers);
        for (auto& pending : leftovers) {
            InvocationResult cancelled;
            cancelled.status =
                core::Status(core::StatusCode::kCancelled,
                             "engine shut down before the request ran");
            cancelled.trace_id = pending.trace_id;
            cancelled.shard = shard_index;
            obs_cancelled_->Increment();
            RecordRequest(shard_index, false, pending.trace_id,
                          pending.enqueue_ns, pending.request.count,
                          obs::RequestOutcome::kCancelled,
                          cancelled.status.code());
            FinishOne(&pending, std::move(cancelled));
        }
        ++shard_index;
    }
    for (auto& shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
    }
    // With the workers gone no new samples can arrive; drain the
    // audit backlog, stop the pool, and write RUMBA_AUDIT_OUT while
    // the results are still alive.
    if (auditor_ != nullptr)
        auditor_->Shutdown();
    // Forensics teardown mirrors /statusz: owner-checked and
    // blocking, so no incident finalizing on another thread can still
    // be inside this engine's flight rings once we return; then
    // drop the tsdb sampler ref.
    if (forensics_) {
        obs::IncidentManager::Default().ClearFlightProvider(this);
        obs::TsdbSampler::Release();
        forensics_ = false;
    }
}

void
ShardedEngine::Pause()
{
    for (auto& shard : shards_)
        shard->queue.SetPaused(true);
}

void
ShardedEngine::Resume()
{
    for (auto& shard : shards_)
        shard->queue.SetPaused(false);
}

void
ShardedEngine::FinishOne(Pending* pending, InvocationResult result)
{
    pending->promise.set_value(std::move(result));
    {
        std::lock_guard<std::mutex> lock(drain_mu_);
        --in_flight_;
    }
    drain_cv_.notify_all();
}

void
ShardedEngine::RecordRequest(size_t shard_index, bool to_flight,
                             uint64_t trace_id, uint64_t submit_ns,
                             uint64_t elements,
                             obs::RequestOutcome outcome,
                             core::StatusCode code, const Served* served)
{
    obs::RequestTraceCollector* flight =
        to_flight ? shards_[shard_index]->flight.get() : nullptr;
    if (flight == nullptr && !config_.trace.enabled)
        return;
    obs::RequestTrace trace;
    trace.trace_id = trace_id;
    trace.shard = static_cast<uint32_t>(shard_index);
    trace.outcome = outcome;
    trace.status_code = static_cast<uint32_t>(code);
    trace.submit_ns = submit_ns;
    trace.elements = elements;
    if (served == nullptr) {
        trace.total_ns = obs::NowNs() - submit_ns;
    } else {
        const core::InvocationReport& report = *served->report;
        trace.total_ns = served->merge_end_ns - submit_ns;
        trace.fixes = report.fixes;
        trace.breaker_state =
            static_cast<uint32_t>(report.breaker_state);
        trace.audited = served->audited;
        trace.threshold = report.threshold_used;
        trace.predicted_error_pct = report.estimated_error_pct;
        trace.actual_error_pct = report.output_error_pct;
        trace.queue_wait_ns = served->pickup_ns - submit_ns;
        trace.device_ns = served->device_ns;
        trace.check_ns = static_cast<uint64_t>(
            report.stages.Wall(obs::ProfileStage::kPredictCheck));
        trace.recover_ns = static_cast<uint64_t>(
            report.stages.Wall(obs::ProfileStage::kRecover) +
            report.stages.Wall(obs::ProfileStage::kCompensate));
        trace.merge_start_ns = served->merge_start_ns;
        trace.merge_ns = served->merge_end_ns - served->merge_start_ns;
    }
    if (flight != nullptr)
        flight->Record(trace);
    if (config_.trace.enabled)
        obs::RequestTraceCollector::Default().Record(trace);
}

std::string
ShardedEngine::DumpFlight(size_t shard_index, const std::string& reason)
{
    Shard& shard = *shards_[shard_index];
    return obs::WriteFlightDump(
        config_.flight.dump_dir, static_cast<uint32_t>(shard_index),
        shard.flight_dumps.fetch_add(1, std::memory_order_relaxed),
        reason, shard.flight->Dump());
}

std::vector<std::string>
ShardedEngine::DumpFlightRecords(const std::string& reason)
{
    std::vector<std::string> paths;
    for (size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->flight == nullptr)
            continue;
        std::string path = DumpFlight(i, reason);
        if (!path.empty())
            paths.push_back(std::move(path));
    }
    return paths;
}

const obs::RequestTraceCollector&
ShardedEngine::Flight(size_t i) const
{
    RUMBA_CHECK(i < shards_.size() && shards_[i]->flight != nullptr);
    return *shards_[i]->flight;
}

obs::IncidentFlightExtract
ShardedEngine::IncidentFlightRecords() const
{
    // The tail of each shard's ring: enough to read the lead-in to a
    // breaker trip without ballooning the bundle. Numeric-string keys
    // keep the fragment array-free for rumba-stat's mini parser.
    constexpr size_t kPerShard = 8;
    obs::IncidentFlightExtract extract;
    std::string& json = extract.json;
    json = "{";
    size_t kept = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->flight == nullptr)
            continue;
        const std::vector<obs::RequestTrace> records =
            shards_[i]->flight->Dump();
        const size_t skip =
            records.size() > kPerShard ? records.size() - kPerShard : 0;
        for (size_t r = skip; r < records.size(); ++r) {
            json += "\"" + std::to_string(kept) +
                    "\":" + obs::FlightRecordJson(records[r]) + ",";
            extract.trace_ids.push_back(records[r].trace_id);
            ++kept;
        }
    }
    json += "\"count\":" + std::to_string(kept) + "}";
    return extract;
}

std::string
ShardedEngine::StatuszJson() const
{
    size_t in_flight;
    {
        std::lock_guard<std::mutex> lock(drain_mu_);
        in_flight = in_flight_;
    }
    std::string out = "{\"healthy\":";
    out += shutdown_.load(std::memory_order_acquire) ? "false" : "true";
    out += ",\"tuner_mode\":\"";
    out += tuner_mode_;
    out += "\",\"in_flight\":" + std::to_string(in_flight);
    out += ",\"submitted\":" + std::to_string(obs_submitted_->Value());
    out += ",\"completed\":" + std::to_string(obs_completed_->Value());
    out += ",\"rejected\":" + std::to_string(obs_rejected_->Value());
    out += ",\"cancelled\":" + std::to_string(obs_cancelled_->Value());
    out += ",\"admission\":{\"state\":\"";
    out += AdmissionStateName(admission_->state());
    out += "\",\"enabled\":";
    out += admission_->config().enabled ? "true" : "false";
    out += ",\"transitions\":" +
           std::to_string(admission_->Transitions());
    out += ",\"admitted\":" + std::to_string(obs_adm_admitted_->Value());
    out += ",\"compensated\":" +
           std::to_string(obs_adm_compensated_->Value());
    out += ",\"degraded\":" + std::to_string(obs_adm_degraded_->Value());
    out += ",\"bypassed\":" + std::to_string(obs_adm_bypassed_->Value());
    out += ",\"shed\":" + std::to_string(obs_adm_shed_->Value());
    out += ",\"expired\":" + std::to_string(obs_adm_expired_->Value());
    out += ",\"backpressure_rejected\":" +
           std::to_string(obs_adm_rejected_->Value());
    out += "}";
    if (latency_slo_ != nullptr) {
        out += ",\"latency_slo_alerting\":";
        out += latency_slo_->Alerting() ? "true" : "false";
    }
    if (quality_slo_ != nullptr) {
        out += ",\"quality_slo_alerting\":";
        out += quality_slo_->Alerting() ? "true" : "false";
    }
    if (auditor_ != nullptr) {
        const obs::AuditorStats audit = auditor_->Stats();
        out += ",\"quality\":{\"audited\":" +
               std::to_string(audit.audited);
        out += ",\"enqueued\":" + std::to_string(audit.enqueued);
        out += ",\"forced\":" + std::to_string(audit.forced);
        out += ",\"queue_drops\":" +
               std::to_string(audit.queue_drops);
        out += ",\"queue_depth\":" +
               std::to_string(audit.queue_depth);
        out += ",\"true_toq_violations\":" +
               std::to_string(audit.toq_violations);
        out += ",\"true_toq_violation_rate\":" +
               obs::JsonNum(audit.toq_violation_rate);
        out += ",\"toq_bound_pct\":" +
               obs::JsonNum(audit.toq_bound_pct);
        out += ",\"mean_true_error_pct\":" +
               obs::JsonNum(audit.mean_true_error_pct);
        out += ",\"checker_precision\":" +
               obs::JsonNum(audit.precision);
        out += ",\"checker_recall\":" + obs::JsonNum(audit.recall);
        out += ",\"false_positive_recoveries\":" +
               std::to_string(audit.false_positives);
        out += ",\"false_negative_accepts\":" +
               std::to_string(audit.false_negatives);
        out += ",\"audited_slo_alerting\":";
        out += audit.slo_alerting ? "true" : "false";
        out += "}";
    }
    out += ",\"shards\":[";
    for (size_t i = 0; i < shards_.size(); ++i) {
        const Shard& shard = *shards_[i];
        if (i > 0)
            out += ",";
        out += "{\"shard\":" + std::to_string(i);
        out += ",\"queue_depth\":" +
               std::to_string(static_cast<uint64_t>(
                   shard.obs_queue_depth->Value()));
        out += ",\"breaker_state\":" +
               std::to_string(static_cast<uint64_t>(
                   shard.obs_breaker_state->Value()));
        out += ",\"threshold\":" +
               obs::JsonNum(shard.obs_threshold->Value());
        out += ",\"served\":" +
               std::to_string(shard.obs_served->Value());
        if (shard.flight != nullptr) {
            out += ",\"flight_records\":" +
                   std::to_string(shard.flight->TotalRecorded());
        }
        out += "}";
    }
    out += "]}";
    return out;
}

void
ShardedEngine::WorkerLoop(size_t shard_index)
{
    Shard& shard = *shards_[shard_index];
    for (;;) {
        Pending pending;
        bool popped;
        {
            // Blocked-on-queue time is a stage of its own: its (tiny)
            // CPU cost folds into the next invocation's attribution.
            const obs::StageScope wait_scope(
                obs::ProfileStage::kQueueWait,
                profiling_ ? &shard.queue_wait : nullptr, /*cpu=*/true);
            popped = shard.queue.Pop(&pending);
        }
        if (!popped)
            break;
        shard.obs_queue_depth->Set(
            static_cast<double>(shard.queue.Size()));
        ProcessRequest(shard, shard_index, &pending);
    }
}

void
ShardedEngine::ProcessRequest(Shard& shard, size_t shard_index,
                              Pending* pending)
{
    const obs::Span request_span("serve.request");
    const uint64_t pickup_ns = obs::NowNs();

    // Deadline-expired queued work never reaches the device: resolve
    // it kDeadlineExceeded here, before the invocation runs, and leave
    // the same counter/flight/trace trail a Submit-side expiry would.
    const uint64_t deadline = pending->request.deadline_ns;
    if (deadline != 0 && pickup_ns > deadline) {
        InvocationResult expired;
        expired.status = core::Status(
            core::StatusCode::kDeadlineExceeded,
            "deadline expired while queued (shard " +
                std::to_string(shard_index) + ")");
        expired.trace_id = pending->trace_id;
        expired.shard = shard_index;
        obs_adm_expired_->Increment();
        RecordRequest(shard_index, true, pending->trace_id,
                      pending->enqueue_ns, pending->request.count,
                      obs::RequestOutcome::kExpired,
                      expired.status.code());
        FinishOne(pending, std::move(expired));
        return;
    }

    const size_t count = pending->request.count;
    obs_batch_elements_->Observe(static_cast<double>(count));
    shard.scratch_out.resize(count * output_width_);

    // The request is the invocation: served straight out of its own
    // buffer, at the rung admission assigned it.
    const core::BatchView view(pending->request.inputs.data(), count,
                               input_width_);
    core::AuditCapture* capture =
        auditor_ != nullptr ? &shard.audit_capture : nullptr;
    const core::InvocationReport report =
        shard.runtime->ProcessInvocation(view, shard.scratch_out.data(),
                                         capture, pending->degrade);

    // Modeled accelerator occupancy (see ServeConfig): the shard's
    // virtual device stays busy for the invocation's element count;
    // other shards' devices run during the wait, which is exactly the
    // overlap a multi-accelerator deployment gets.
    if (config_.emulated_device_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            config_.emulated_device_ns * count));
    }

    shard.obs_breaker_state->Set(
        static_cast<double>(static_cast<int>(report.breaker_state)));
    shard.obs_threshold->Set(report.threshold_used);
    shard.obs_served->Increment(count);

    const uint32_t breaker_state =
        static_cast<uint32_t>(report.breaker_state);
    const bool fault =
        report.non_finite_outputs > 0 || report.queue_drops > 0;
    // Per-invocation quality SLO event: one verified error per request.
    // Degraded invocations skip the verify pass, so they have no
    // proxy error to judge — their quality is protected by the
    // audited SLO instead (every degraded request is force-sampled).
    if (quality_slo_ != nullptr &&
        report.degrade == core::DegradeMode::kNone) {
        quality_slo_->Record(report.output_error_pct <=
                             quality_bound_pct_);
    }

    Served served;
    served.report = &report;
    served.pickup_ns = pickup_ns;
    served.device_ns =
        static_cast<uint64_t>(report.stages.Wall(obs::ProfileStage::kDevice)) +
        config_.emulated_device_ns * count;

    // The invocation's stage record; the engine adds its own stages:
    // the queue wait since the last request, and merge and audit.
    obs::StageRecord stages = report.stages;
    stages.Cpu(obs::ProfileStage::kQueueWait) =
        shard.queue_wait.Cpu(obs::ProfileStage::kQueueWait);
    shard.queue_wait = {};
    obs::StageRecord* const engine_stages = profiling_ ? &stages : nullptr;

    const uint64_t done_ns = obs::NowNs();
    InvocationResult result;
    result.status = core::Status::Ok();
    result.trace_id = pending->trace_id;
    result.shard = shard_index;
    result.report = report;
    served.merge_start_ns = obs::NowNs();
    {
        const obs::StageScope merge_scope(obs::ProfileStage::kMerge,
                                          engine_stages, /*cpu=*/true);
        result.outputs.assign(shard.scratch_out.begin(),
                              shard.scratch_out.end());
    }
    served.merge_end_ns = obs::NowNs();

    if (auditor_ != nullptr) {
        // The auditor's sampling decision and its copy of the audited
        // elements land on "audit" (the shadow re-execution itself is
        // tagged in the audit pool).
        const obs::StageScope audit_scope(obs::ProfileStage::kAudit,
                                          engine_stages, /*cpu=*/true);
        obs::AuditOffer offer;
        offer.trace_id = pending->trace_id;
        offer.shard = static_cast<uint32_t>(shard_index);
        offer.count = count;
        offer.in_width = input_width_;
        offer.out_width = output_width_;
        offer.inputs = pending->request.inputs;
        offer.served_outputs = result.outputs;
        offer.approx_outputs = capture->approx_outputs;
        offer.predicted_error = capture->predicted_error;
        offer.fired = capture->fired;
        offer.fixed = capture->fixed;
        offer.exact_path = capture->exact_path;
        offer.threshold_used = report.threshold_used;
        offer.reported_error_pct = report.output_error_pct;
        offer.estimated_error_pct = report.estimated_error_pct;
        offer.breaker_state = breaker_state;
        offer.degrade = static_cast<uint32_t>(report.degrade);
        offer.fault = fault;
        served.audited = auditor_->Offer(offer);
    }
    const uint64_t latency_ns = done_ns - pending->enqueue_ns;
    obs_enqueue_to_complete_ns_->Observe(static_cast<double>(latency_ns));
    obs_completed_->Increment();
    if (latency_slo_ != nullptr) {
        latency_slo_->Record(latency_ns <=
                             ServeConfig::SloOptions::kLatencyBoundNs);
    }
    RecordRequest(shard_index, true, pending->trace_id,
                  pending->enqueue_ns, count,
                  obs::RequestOutcome::kCompleted, core::StatusCode::kOk,
                  &served);
    FinishOne(pending, std::move(result));

    // Fold this invocation's stage CPU into the live profiler and
    // feed the modeled costs to the rolling efficiency estimator.
    if (profiling_) {
        obs::CpuProfiler::Default().RecordInvocation(shard.profile_row,
                                                     stages);
        obs::CpuProfiler::Default().RecordCosts(report.costs);
    }

    // Incident hooks: dump the shard's flight ring the moment its
    // breaker transitions to open, and once per fault episode when a
    // fault first surfaces (non-finite outputs or recovery-queue
    // drops) — the ring then still holds the requests leading in.
    const bool opened =
        breaker_state ==
            static_cast<uint32_t>(core::BreakerState::kOpen) &&
        shard.last_breaker_state != breaker_state;
    if (shard.flight != nullptr) {
        if (opened) {
            DumpFlight(shard_index, "breaker_open");
        } else if (fault && !shard.fault_dump_latched) {
            // Latch stays set for the shard's lifetime: the dump
            // captures the first fault's lead-in; a fault storm must
            // not turn into a dump storm.
            DumpFlight(shard_index, "fault");
            shard.fault_dump_latched = true;
        }
    }
    if (opened && forensics_) {
        // A breaker-open transition is a first-class incident signal;
        // the request that tripped it ties it to a trace.
        obs::IncidentSignal signal;
        signal.source = "breaker";
        signal.name = "serve.shard" + std::to_string(shard_index);
        signal.detail = "open";
        signal.series = "serve.shard" + std::to_string(shard_index) +
                        ".breaker_state";
        signal.trace_id = pending->trace_id;
        obs::IncidentManager::Default().OnSignal(std::move(signal));
    }
    shard.last_breaker_state = breaker_state;
}

}  // namespace rumba::serve
