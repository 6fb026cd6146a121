/**
 * @file
 * Declarative overload/chaos scenario matrix for the serving engine.
 *
 * Each scenario crosses one workload with an arrival process
 * (serve/loadgen.h), a fault plan (fault/plan.h), and an admission
 * policy, runs the open-loop generator against a fresh ShardedEngine,
 * and then asserts the robustness invariants this repository promises
 * under overload:
 *
 *   - accounting: every offered request resolves to exactly one
 *     outcome — overload is never a silent drop;
 *   - expired work is never executed (kDeadlineExceeded results carry
 *     no outputs);
 *   - loss (shed + rejected + expired) stays inside the scenario's
 *     bound;
 *   - with admission on, gold traffic is never shed or check-bypassed,
 *     and in the protected scenarios survives a sustained 2x-capacity
 *     burst with its p99 inside the deadline;
 *   - with admission off, the same burst demonstrably fails gold (the
 *     scenario PASSES only when protection is lost — proving the
 *     ladder is what buys survival);
 *   - the audited-truth quality SLO stays quiet where required;
 *   - a breaker tripped by an armed fault plan walks back to closed
 *     once the faults stop.
 *
 * Offered rates are expressed as multiples of a measured per-workload
 * capacity (a closed-loop calibration run), so "2x capacity" means 2x
 * on whatever machine CI lands on. Results print as a PASS / FAIL /
 * ERROR / SKIP summary table and export as JSONL (--out or
 * RUMBA_SCENARIO_OUT) for `rumba-stat scenarios` to diff against the
 * checked-in baseline; a SIGINT/SIGTERM mid-matrix still flushes the
 * scenarios finished so far (obs::RegisterFlushHook).
 *
 * Environment interplay: an external RUMBA_FAULT_PLAN takes
 * precedence — scenarios that would arm their own plan SKIP rather
 * than fight over the process-wide injector. RUMBA_ADMISSION=off
 * force-disables admission in every engine, so admission-dependent
 * scenarios SKIP under it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/benchmark.h"
#include "common/random.h"
#include "common/table.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/timer.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

namespace {

using rumba::Table;
using rumba::serve::ArrivalProcess;
using rumba::serve::QualityClass;

/** Modeled device occupancy per element — makes each workload's
 *  service time (and so "capacity") dominated by a deterministic
 *  virtual-device term instead of host CPU noise. */
constexpr uint64_t kDeviceNsPerElement = 50'000;
constexpr size_t kElementsPerRequest = 4;
constexpr size_t kShards = 2;
constexpr size_t kQueueCapacity = 32;

enum class ScenarioStatus { kPass, kFail, kError, kSkip };

const char*
StatusName(ScenarioStatus status)
{
    switch (status) {
      case ScenarioStatus::kPass: return "pass";
      case ScenarioStatus::kFail: return "fail";
      case ScenarioStatus::kError: return "error";
      case ScenarioStatus::kSkip: return "skip";
    }
    return "unknown";
}

/** One cell of the matrix: workload x arrival x faults x admission,
 *  plus which invariants apply and how much loss overload may cost. */
struct ScenarioSpec {
    std::string name;
    std::string workload = "inversek2j";
    ArrivalProcess arrival = ArrivalProcess::kPoisson;
    /** Mean offered rate as a multiple of measured capacity. */
    double load_factor = 0.4;
    /** Bursty shape (peak rate = load_factor x burst_factor). @{ */
    double burst_factor = 4.0;
    double idle_factor = 0.1;
    uint64_t burst_on_ms = 100;
    uint64_t burst_off_ms = 100;
    /** @} */
    double diurnal_peak_factor = 3.0;
    std::string fault_spec;  ///< "" = no faults.
    bool admission = true;
    uint64_t duration_ms = 400;
    /** Per-class relative deadlines (0 = none). @{ */
    uint64_t gold_deadline_ms = 50;
    uint64_t silver_deadline_ms = 100;
    uint64_t best_effort_deadline_ms = 150;
    /** @} */
    double gold_share = 0.25, silver_share = 0.25, best_share = 0.50;
    /** Max tolerated (shed + rejected + expired) / offered. */
    double max_loss_fraction = 0.05;
    /** Gold must ride out the scenario untouched (no rejections, p99
     *  inside deadline). */
    bool expect_gold_protected = false;
    /** Inverted scenario: PASS only when gold protection FAILS. */
    bool expect_overload_failure = false;
    /** Audited-truth SLO must not be alerting at the end. */
    bool check_audit = false;
    /** Breaker must return to closed after the faults stop. */
    bool check_breaker_recovers = false;
};

/** What one scenario produced (summary row + JSONL line). */
struct ScenarioResult {
    ScenarioSpec spec;
    ScenarioStatus status = ScenarioStatus::kError;
    std::vector<std::string> violations;
    rumba::serve::LoadReport report;
    double gold_p99_ms = 0.0;
    double loss_fraction = 0.0;
    bool breaker_recovered = true;
    bool audit_alerting = false;
};

/** Completed-scenario JSONL lines, shared with the signal-flush hook
 *  so a killed matrix still writes what it finished. */
struct ResultSink {
    std::mutex mu;
    std::string path;
    std::vector<std::string> lines;
};

ResultSink&
Sink()
{
    static ResultSink sink;
    return sink;
}

void
WriteSinkLocked(const ResultSink& sink)
{
    if (sink.path.empty())
        return;
    std::FILE* f = std::fopen(sink.path.c_str(), "w");
    if (f == nullptr)
        return;
    const std::string meta = rumba::obs::MetadataJsonLine() + "\n";
    std::fwrite(meta.data(), 1, meta.size(), f);
    for (const std::string& line : sink.lines) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
}

/** Flush hook: best-effort, signal context — try-lock only. */
void
FlushScenarioResults()
{
    ResultSink& sink = Sink();
    if (!sink.mu.try_lock())
        return;
    WriteSinkLocked(sink);
    sink.mu.unlock();
}

std::string
JoinViolations(const std::vector<std::string>& violations)
{
    std::string out;
    for (const std::string& v : violations) {
        if (!out.empty())
            out += "; ";
        out += v;
    }
    return out;
}

std::string
ResultJsonLine(const ScenarioResult& result)
{
    using rumba::obs::JsonNum;
    using rumba::obs::JsonQuote;
    const rumba::serve::ClassStats total = result.report.Total();
    const rumba::serve::ClassStats& gold =
        result.report
            .per_class[static_cast<size_t>(QualityClass::kGold)];
    return std::string("{\"type\":\"scenario\",\"name\":") +
           JsonQuote(result.spec.name) +
           ",\"status\":" + JsonQuote(StatusName(result.status)) +
           ",\"workload\":" + JsonQuote(result.spec.workload) +
           ",\"arrival\":" +
           JsonQuote(ArrivalProcessName(result.spec.arrival)) +
           ",\"fault\":" + JsonQuote(result.spec.fault_spec) +
           ",\"admission\":" +
           (result.spec.admission ? "true" : "false") +
           ",\"offered\":" + std::to_string(result.report.offered) +
           ",\"served\":" + std::to_string(total.Served()) +
           ",\"degraded\":" + std::to_string(total.degraded) +
           ",\"compensated\":" + std::to_string(total.compensated) +
           ",\"bypassed\":" + std::to_string(total.bypassed) +
           ",\"shed\":" + std::to_string(total.shed) +
           ",\"expired\":" + std::to_string(total.expired) +
           ",\"rejected\":" + std::to_string(total.rejected) +
           ",\"gold_submitted\":" + std::to_string(gold.submitted) +
           ",\"gold_served\":" + std::to_string(gold.Served()) +
           ",\"gold_rejected\":" + std::to_string(gold.rejected) +
           ",\"gold_shed\":" + std::to_string(gold.shed) +
           ",\"gold_deadline_misses\":" +
           std::to_string(gold.deadline_misses) +
           ",\"gold_p99_ms\":" + JsonNum(result.gold_p99_ms) +
           ",\"loss_fraction\":" + JsonNum(result.loss_fraction) +
           ",\"expired_with_output\":" +
           std::to_string(result.report.expired_with_output) +
           ",\"late_submits\":" +
           std::to_string(result.report.late_submits) +
           ",\"breaker_recovered\":" +
           (result.breaker_recovered ? "true" : "false") +
           ",\"audit_alerting\":" +
           (result.audit_alerting ? "true" : "false") +
           ",\"violations\":" +
           JsonQuote(JoinViolations(result.violations)) + "}";
}

/** The checked-in matrix. Axes covered: 3 arrival processes, 3 fault
 *  plans (none / NaN storm / recovery stall), admission on and off,
 *  2 workloads — 10 scenarios. */
std::vector<ScenarioSpec>
BuildSpecs()
{
    std::vector<ScenarioSpec> specs;

    {
        ScenarioSpec s;
        s.name = "steady-poisson";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kPoisson;
        s.load_factor = 0.4;
        s.max_loss_fraction = 0.05;
        s.expect_gold_protected = true;
        s.check_audit = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "steady-diurnal";
        s.workload = "fft";
        s.arrival = ArrivalProcess::kDiurnal;
        s.load_factor = 0.3;
        s.diurnal_peak_factor = 2.0;
        s.max_loss_fraction = 0.05;
        s.expect_gold_protected = true;
        s.check_audit = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "burst-2x-admission";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kBursty;
        s.load_factor = 0.5;  // peak = 0.5 x 4 = 2x capacity.
        s.burst_factor = 4.0;
        s.duration_ms = 600;
        s.max_loss_fraction = 0.90;
        s.expect_gold_protected = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "burst-2x-no-admission";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kBursty;
        s.load_factor = 0.5;
        s.burst_factor = 4.0;
        s.duration_ms = 600;
        s.admission = false;
        s.max_loss_fraction = 0.90;
        s.expect_overload_failure = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "sustained-2x-poisson";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kPoisson;
        s.load_factor = 2.0;
        s.duration_ms = 500;
        // Sustained (not transient) 2x: gold must be a minority tier
        // for protection to be possible at all — at a 25% share its
        // demand alone would equal service capacity and every queue
        // would sit pinned at full, making queue-full gold rejections
        // a coin flip rather than a regression signal.
        s.gold_share = 0.15;
        s.silver_share = 0.25;
        s.best_share = 0.60;
        s.max_loss_fraction = 0.90;
        s.expect_gold_protected = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "deadline-burst";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kBursty;
        s.load_factor = 0.5;
        s.burst_factor = 4.0;
        s.duration_ms = 600;
        s.silver_deadline_ms = 6;       // expires in a deep queue.
        s.best_effort_deadline_ms = 6;
        s.max_loss_fraction = 0.90;
        s.expect_gold_protected = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "all-gold-burst";
        s.workload = "fft";
        s.arrival = ArrivalProcess::kBursty;
        s.load_factor = 0.5;
        s.burst_factor = 4.0;
        s.duration_ms = 600;
        s.gold_share = 1.0;
        s.silver_share = 0.0;
        s.best_share = 0.0;
        // All-gold at 2x exceeds what shedding others can buy, so
        // genuine backpressure rejections are expected and loss is
        // bounded only loosely; admission must still never shed gold.
        s.max_loss_fraction = 0.90;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "fault-nan-breaker";
        s.workload = "inversek2j";
        s.arrival = ArrivalProcess::kPoisson;
        s.load_factor = 0.4;
        s.fault_spec = "seed=7;npu.output_nan=0.3";
        s.max_loss_fraction = 0.10;
        s.check_breaker_recovers = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "fault-stall-burst";
        s.workload = "fft";
        s.arrival = ArrivalProcess::kBursty;
        s.load_factor = 0.5;
        s.burst_factor = 4.0;
        s.duration_ms = 600;
        s.fault_spec = "seed=11;npu.output_nan=0.05;queue.stall=0.5";
        s.max_loss_fraction = 0.90;
        s.check_breaker_recovers = true;
        specs.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "diurnal-2x-admission";
        s.workload = "fft";
        s.arrival = ArrivalProcess::kDiurnal;
        s.load_factor = 0.8;
        s.diurnal_peak_factor = 2.5;  // peak = 2x capacity.
        s.duration_ms = 500;
        s.gold_share = 0.15;  // minority premium tier (see above).
        s.silver_share = 0.25;
        s.best_share = 0.60;
        s.max_loss_fraction = 0.90;
        s.expect_gold_protected = true;
        specs.push_back(s);
    }
    return specs;
}

rumba::core::RuntimeConfig
ScenarioRuntimeConfig()
{
    return rumba::core::RuntimeConfig::Builder()
        .WithChecker(rumba::core::Scheme::kTree)
        .WithTargetErrorPct(10.0)
        .WithTrainEpochs(30)
        .WithElementCaps(800, 400)
        .Build();
}

rumba::serve::ServeConfig
ScenarioServeConfig(bool admission_enabled)
{
    rumba::serve::ServeConfig config;
    config.shards = kShards;
    config.queue_capacity = kQueueCapacity;
    config.emulated_device_ns = kDeviceNsPerElement;
    config.admission.enabled = admission_enabled;
    // Scenario requests carry only a handful of elements, so the
    // per-invocation audited error is far noisier than the large
    // batches the default audited-SLO bound (tuner target + 2%) was
    // sized for: a healthy checker at a 10% target sees individual
    // 4-element invocations beyond 35% error ~1% of the time. Widen
    // the audited bound and objective so the audited TOQ SLO fires on
    // genuine quality collapse (checker bypassed / drifted), not on
    // small-sample noise.
    config.audit.margin_pct = 30.0;
    config.audit.objective = 0.95;
    // Auto-dumps (breaker trips, first fault) go to scratch — the
    // fault scenarios trip them on purpose and the artifacts would
    // otherwise litter the caller's working directory.
    config.flight.dump_dir = "/tmp";
    return config;
}

/** One in-distribution request drawn from the workload's test pool. */
rumba::serve::InvocationRequest
PoolRequest(size_t width, const std::vector<double>& pool,
            rumba::Rng& rng)
{
    rumba::serve::InvocationRequest request;
    request.count = kElementsPerRequest;
    request.width = width;
    request.inputs.resize(request.count * width);
    const size_t pool_elements = pool.size() / width;
    for (size_t e = 0; e < request.count; ++e) {
        const size_t pick =
            static_cast<size_t>(rng.Below(pool_elements));
        std::copy_n(pool.begin() + static_cast<ptrdiff_t>(pick * width),
                    width,
                    request.inputs.begin() +
                        static_cast<ptrdiff_t>(e * width));
    }
    return request;
}

/**
 * Closed-loop capacity calibration: back-to-back requests through a
 * single-shard engine give the per-request service time; capacity is
 * kShards shards running at that rate.
 */
double
MeasureCapacityHz(const rumba::core::Artifact& artifact,
                  const std::vector<double>& pool)
{
    rumba::serve::ServeConfig config = ScenarioServeConfig(false);
    config.shards = 1;
    config.queue_capacity = 64;
    config.slo.enabled = false;
    config.audit.enabled = false;
    config.profile.enabled = false;
    auto engine = rumba::serve::ShardedEngine::Create(
        artifact, ScenarioRuntimeConfig(), config);
    if (!engine.ok())
        return 0.0;
    rumba::Rng rng(99);
    const size_t width = (*engine)->InputWidth();
    for (int i = 0; i < 16; ++i)  // warm the tuner and caches.
        (void)(*engine)->Submit(PoolRequest(width, pool, rng));
    (*engine)->Drain();
    constexpr int kTimed = 48;
    std::vector<std::future<rumba::serve::InvocationResult>> futures;
    const uint64_t t0 = rumba::obs::NowNs();
    for (int i = 0; i < kTimed; ++i)
        futures.push_back(
            (*engine)->Submit(PoolRequest(width, pool, rng)));
    (*engine)->Drain();
    const uint64_t elapsed_ns = rumba::obs::NowNs() - t0;
    (*engine)->Shutdown();
    if (elapsed_ns == 0)
        return 0.0;
    const double per_request_s =
        static_cast<double>(elapsed_ns) / kTimed / 1e9;
    return static_cast<double>(kShards) / per_request_s;
}

/** Trickle clean gold traffic until every shard's breaker closes (the
 *  breaker advances per invocation: hold-off, probes, close). */
bool
DriveBreakerClosed(rumba::serve::ShardedEngine& engine,
                   const std::vector<double>& pool)
{
    rumba::Rng rng(123);
    const size_t width = engine.InputWidth();
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 16; ++i)
            (void)engine.Submit(PoolRequest(width, pool, rng));
        engine.Drain();
        bool all_closed = true;
        for (size_t s = 0; s < engine.Shards(); ++s)
            all_closed = all_closed &&
                         engine.Runtime(s).Breaker().State() ==
                             rumba::core::BreakerState::kClosed;
        if (all_closed)
            return true;
    }
    return false;
}

ScenarioResult
RunScenario(const ScenarioSpec& spec,
            const rumba::core::Artifact& artifact,
            const std::vector<double>& pool, double capacity_hz,
            uint64_t seed, bool external_fault_plan,
            bool admission_forced_off)
{
    ScenarioResult result;
    result.spec = spec;

    if (external_fault_plan && !spec.fault_spec.empty()) {
        result.status = ScenarioStatus::kSkip;
        result.violations.push_back(
            "external RUMBA_FAULT_PLAN armed; not overriding");
        return result;
    }
    if (admission_forced_off && spec.admission) {
        result.status = ScenarioStatus::kSkip;
        result.violations.push_back(
            "RUMBA_ADMISSION=off forces admission off");
        return result;
    }

    rumba::fault::FaultInjector& injector =
        rumba::fault::FaultInjector::Default();
    if (!spec.fault_spec.empty()) {
        rumba::fault::FaultPlan plan;
        std::string error;
        if (!rumba::fault::FaultPlan::Parse(spec.fault_spec, &plan,
                                            &error)) {
            result.status = ScenarioStatus::kError;
            result.violations.push_back("bad fault spec: " + error);
            return result;
        }
        injector.Arm(plan);
    }

    auto engine_or = rumba::serve::ShardedEngine::Create(
        artifact, ScenarioRuntimeConfig(),
        ScenarioServeConfig(spec.admission));
    if (!engine_or.ok()) {
        if (!spec.fault_spec.empty())
            injector.Disarm();
        result.status = ScenarioStatus::kError;
        result.violations.push_back("engine: " +
                                    engine_or.status().ToString());
        return result;
    }
    std::unique_ptr<rumba::serve::ShardedEngine> engine =
        std::move(engine_or).value();

    rumba::serve::LoadGenConfig load;
    load.arrival = spec.arrival;
    load.rate_hz = std::max(100.0, spec.load_factor * capacity_hz);
    load.duration_ns = spec.duration_ms * 1'000'000ull;
    load.burst_factor = spec.burst_factor;
    load.idle_factor = spec.idle_factor;
    load.burst_on_ns = spec.burst_on_ms * 1'000'000ull;
    load.burst_off_ns = spec.burst_off_ms * 1'000'000ull;
    load.diurnal_peak_factor = spec.diurnal_peak_factor;
    load.seed = seed;
    load.elements = kElementsPerRequest;
    load.element_jitter = 1;
    load.mix.gold = spec.gold_share;
    load.mix.silver = spec.silver_share;
    load.mix.best_effort = spec.best_share;
    load.gold_deadline_ns = spec.gold_deadline_ms * 1'000'000ull;
    load.silver_deadline_ns = spec.silver_deadline_ms * 1'000'000ull;
    load.best_effort_deadline_ns =
        spec.best_effort_deadline_ms * 1'000'000ull;
    load.input_pool = pool;

    rumba::serve::LoadGenerator generator(*engine, load);
    result.report = generator.Run();

    if (!spec.fault_spec.empty())
        injector.Disarm();

    // Settle the audit pipeline before judging its SLO.
    if (engine->Auditor() != nullptr)
        engine->Auditor()->Flush();
    result.audit_alerting = engine->Auditor() != nullptr &&
                            engine->Auditor()->Slo() != nullptr &&
                            engine->Auditor()->Slo()->Alerting();

    if (spec.check_breaker_recovers)
        result.breaker_recovered = DriveBreakerClosed(*engine, pool);

    // ----------------------------------------------- invariants
    const rumba::serve::ClassStats total = result.report.Total();
    const rumba::serve::ClassStats& gold =
        result.report
            .per_class[static_cast<size_t>(QualityClass::kGold)];
    std::vector<std::string>& violations = result.violations;

    const uint64_t accounted = total.ok + total.degraded +
                               total.compensated + total.bypassed +
                               total.shed + total.expired +
                               total.rejected + total.cancelled +
                               total.failed;
    if (accounted != result.report.offered)
        violations.push_back(
            "silent drop: offered " +
            std::to_string(result.report.offered) + " accounted " +
            std::to_string(accounted));
    if (total.failed > 0)
        violations.push_back(std::to_string(total.failed) +
                             " unexpected failures");
    if (total.cancelled > 0)
        violations.push_back(std::to_string(total.cancelled) +
                             " unexpected cancellations");
    if (result.report.expired_with_output > 0)
        violations.push_back(
            "expired work executed (" +
            std::to_string(result.report.expired_with_output) +
            " kDeadlineExceeded results carried outputs)");

    const uint64_t lost = total.shed + total.rejected + total.expired;
    result.loss_fraction =
        result.report.offered == 0
            ? 0.0
            : static_cast<double>(lost) /
                  static_cast<double>(result.report.offered);
    if (result.loss_fraction > spec.max_loss_fraction)
        violations.push_back(
            "loss " + Table::Num(result.loss_fraction, 3) +
            " exceeds bound " +
            Table::Num(spec.max_loss_fraction, 3));

    if (spec.admission && gold.shed > 0)
        violations.push_back("admission shed gold (" +
                             std::to_string(gold.shed) + ")");
    if (gold.bypassed > 0)
        violations.push_back("gold served without checker (" +
                             std::to_string(gold.bypassed) + ")");

    result.gold_p99_ms = gold.LatencyQuantileNs(0.99) / 1e6;
    const uint64_t miss_budget =
        std::max<uint64_t>(2, gold.submitted / 50);
    // Admission observes fill at Submit, so a handful of gold
    // requests can race a queue-full edge even while the ladder holds
    // — protection means gold loss stays under 1%, not literally 0
    // (admission-off loses a quarter of gold, two orders worse).
    const uint64_t reject_budget =
        std::max<uint64_t>(2, gold.submitted / 100);
    const bool gold_protected =
        gold.rejected <= reject_budget && gold.shed == 0 &&
        gold.deadline_misses + gold.expired <= miss_budget &&
        (spec.gold_deadline_ms == 0 ||
         result.gold_p99_ms <=
             static_cast<double>(spec.gold_deadline_ms));
    if (spec.expect_gold_protected && !gold_protected)
        violations.push_back(
            "gold not protected: rejected " +
            std::to_string(gold.rejected) + ", expired " +
            std::to_string(gold.expired) + ", misses " +
            std::to_string(gold.deadline_misses) + ", p99 " +
            Table::Num(result.gold_p99_ms, 1) + " ms vs deadline " +
            std::to_string(spec.gold_deadline_ms) + " ms");
    if (spec.expect_overload_failure && gold_protected)
        violations.push_back(
            "admission-off run unexpectedly protected gold — the "
            "overload is not actually overloading");

    if (spec.check_audit && result.audit_alerting)
        violations.push_back("audited quality SLO is alerting");
    if (spec.check_breaker_recovers && !result.breaker_recovered)
        violations.push_back(
            "breaker did not return to closed after faults stopped");

    engine->Shutdown();
    result.status = violations.empty() ? ScenarioStatus::kPass
                                       : ScenarioStatus::kFail;
    return result;
}

int
Usage()
{
    std::fprintf(
        stderr,
        "usage: rumba_scenarios [--list] [--filter <substr>]\n"
        "                       [--out <results.jsonl>] [--seed <n>]\n"
        "\n"
        "Runs the overload/chaos scenario matrix against the serving\n"
        "engine and prints a PASS/FAIL/ERROR/SKIP summary table.\n"
        "--out (or RUMBA_SCENARIO_OUT) writes JSONL results for\n"
        "`rumba-stat scenarios`; exit 1 on any FAIL or ERROR.\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool list_only = false;
    std::string filter;
    std::string out_path;
    uint64_t base_seed = 1234;
    if (const char* env = std::getenv("RUMBA_SCENARIO_OUT");
        env != nullptr && env[0] != '\0')
        out_path = env;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list_only = true;
        } else if (arg == "--filter" && i + 1 < argc) {
            filter = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            base_seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return Usage();
        }
    }

    std::vector<ScenarioSpec> specs = BuildSpecs();
    if (!filter.empty()) {
        specs.erase(std::remove_if(specs.begin(), specs.end(),
                                   [&](const ScenarioSpec& s) {
                                       return s.name.find(filter) ==
                                              std::string::npos;
                                   }),
                    specs.end());
    }
    if (list_only) {
        for (const ScenarioSpec& spec : specs)
            std::printf("%s\n", spec.name.c_str());
        return 0;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "rumba_scenarios: no scenario matches\n");
        return 2;
    }

    {
        std::lock_guard<std::mutex> lock(Sink().mu);
        Sink().path = out_path;
    }
    if (!out_path.empty())
        rumba::obs::RegisterFlushHook(&FlushScenarioResults);

    const char* fault_env = std::getenv("RUMBA_FAULT_PLAN");
    const bool external_plan =
        fault_env != nullptr && fault_env[0] != '\0';
    const char* admission_env = std::getenv("RUMBA_ADMISSION");
    const bool admission_forced_off =
        admission_env != nullptr &&
        std::strcmp(admission_env, "off") == 0;
    if (external_plan)
        std::printf("note: external RUMBA_FAULT_PLAN=%s armed; "
                    "fault scenarios will SKIP\n",
                    fault_env);
    if (admission_forced_off)
        std::printf("note: RUMBA_ADMISSION=off; admission scenarios "
                    "will SKIP\n");

    // Train each workload once, keep its test inputs as the traffic
    // pool, and calibrate its capacity.
    std::map<std::string, rumba::core::Artifact> artifacts;
    std::map<std::string, std::vector<double>> pools;
    std::map<std::string, double> capacities;
    for (const ScenarioSpec& spec : specs) {
        if (artifacts.count(spec.workload) != 0)
            continue;
        std::printf("training %s...\n", spec.workload.c_str());
        std::fflush(stdout);
        auto bench = rumba::apps::MakeBenchmark(spec.workload);
        pools[spec.workload] =
            rumba::core::FlattenBatch(bench->TestInputs());
        rumba::core::RumbaRuntime trained(std::move(bench),
                                          ScenarioRuntimeConfig());
        artifacts[spec.workload] = trained.ExportArtifact();
        const double capacity = MeasureCapacityHz(
            artifacts[spec.workload], pools[spec.workload]);
        if (capacity <= 0.0) {
            std::fprintf(stderr,
                         "rumba_scenarios: capacity calibration "
                         "failed for %s\n",
                         spec.workload.c_str());
            return 2;
        }
        capacities[spec.workload] = capacity;
        std::printf("  capacity ~%.0f req/s (%zu shards, %zu-element "
                    "requests, %.0f us/element device)\n",
                    capacity, kShards, kElementsPerRequest,
                    kDeviceNsPerElement / 1e3);
    }

    std::vector<ScenarioResult> results;
    size_t failures = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        const ScenarioSpec& spec = specs[i];
        std::printf("[%zu/%zu] %s...\n", i + 1, specs.size(),
                    spec.name.c_str());
        std::fflush(stdout);
        ScenarioResult result =
            RunScenario(spec, artifacts[spec.workload],
                        pools[spec.workload],
                        capacities[spec.workload],
                        base_seed + i * 7919, external_plan,
                        admission_forced_off);
        // One retry (fresh seed) on FAIL: the invariants are about
        // the engine, but a transient host stall — scheduler noise,
        // a noisy neighbor pausing the workers mid-run — can starve
        // even an underloaded engine and fail a bound for reasons no
        // code change caused. A genuine regression fails both runs.
        if (result.status == ScenarioStatus::kFail) {
            std::printf("  FAIL (%s) — retrying once with a fresh "
                        "seed to rule out host noise\n",
                        JoinViolations(result.violations).c_str());
            std::fflush(stdout);
            result =
                RunScenario(spec, artifacts[spec.workload],
                            pools[spec.workload],
                            capacities[spec.workload],
                            base_seed + i * 7919 + 104729,
                            external_plan, admission_forced_off);
        }
        if (result.status == ScenarioStatus::kFail ||
            result.status == ScenarioStatus::kError)
            ++failures;
        {
            std::lock_guard<std::mutex> lock(Sink().mu);
            Sink().lines.push_back(ResultJsonLine(result));
            WriteSinkLocked(Sink());  // partial results survive kills.
        }
        results.push_back(std::move(result));
    }

    Table table({"scenario", "workload", "arrival", "fault", "adm",
                 "offered", "served", "shed", "expired", "rejected",
                 "gold p99 ms", "status"});
    for (const ScenarioResult& result : results) {
        const rumba::serve::ClassStats total = result.report.Total();
        table.AddRow(
            {result.spec.name, result.spec.workload,
             ArrivalProcessName(result.spec.arrival),
             result.spec.fault_spec.empty() ? "-"
                                            : result.spec.fault_spec,
             result.spec.admission ? "on" : "off",
             Table::Int(static_cast<long>(result.report.offered)),
             Table::Int(static_cast<long>(total.Served())),
             Table::Int(static_cast<long>(total.shed)),
             Table::Int(static_cast<long>(total.expired)),
             Table::Int(static_cast<long>(total.rejected)),
             Table::Num(result.gold_p99_ms, 1),
             StatusName(result.status)});
    }
    table.Print("scenario matrix");
    for (const ScenarioResult& result : results) {
        if (result.violations.empty())
            continue;
        std::printf("%s %s: %s\n",
                    result.status == ScenarioStatus::kSkip ? "skip"
                                                           : "FAIL",
                    result.spec.name.c_str(),
                    JoinViolations(result.violations).c_str());
    }
    size_t passed = 0, skipped = 0;
    for (const ScenarioResult& result : results) {
        passed += result.status == ScenarioStatus::kPass;
        skipped += result.status == ScenarioStatus::kSkip;
    }
    std::printf("%zu scenarios: %zu pass, %zu fail/error, %zu skip\n",
                results.size(), passed, failures, skipped);
    if (!out_path.empty())
        std::printf("results: %s\n", out_path.c_str());
    return failures == 0 ? 0 : 1;
}
