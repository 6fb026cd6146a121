#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <thread>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/timer.h"

namespace rumba::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;

/** Live generators, for the best-effort signal flush. Registration
 *  happens on construction (normal context); the flush hook only
 *  try-locks and iterates, never allocates. */
std::mutex g_loadgen_registry_mu;
std::vector<LoadGenerator*>& LoadgenRegistry()
{
    static std::vector<LoadGenerator*> registry;
    return registry;
}

std::string
ClassStatsJson(const char* cls, const ClassStats& stats)
{
    return std::string("{\"type\":\"loadgen\",\"class\":") +
           obs::JsonQuote(cls) +
           ",\"submitted\":" + std::to_string(stats.submitted) +
           ",\"ok\":" + std::to_string(stats.ok) +
           ",\"degraded\":" + std::to_string(stats.degraded) +
           ",\"compensated\":" + std::to_string(stats.compensated) +
           ",\"bypassed\":" + std::to_string(stats.bypassed) +
           ",\"shed\":" + std::to_string(stats.shed) +
           ",\"expired\":" + std::to_string(stats.expired) +
           ",\"rejected\":" + std::to_string(stats.rejected) +
           ",\"cancelled\":" + std::to_string(stats.cancelled) +
           ",\"failed\":" + std::to_string(stats.failed) +
           ",\"deadline_misses\":" +
           std::to_string(stats.deadline_misses) +
           ",\"served\":" + std::to_string(stats.Served()) +
           ",\"p50_ns\":" + obs::JsonNum(stats.LatencyQuantileNs(0.50)) +
           ",\"p99_ns\":" + obs::JsonNum(stats.LatencyQuantileNs(0.99)) +
           "}";
}

}  // namespace

const char*
ArrivalProcessName(ArrivalProcess arrival)
{
    switch (arrival) {
      case ArrivalProcess::kPoisson: return "poisson";
      case ArrivalProcess::kBursty: return "bursty";
      case ArrivalProcess::kDiurnal: return "diurnal";
    }
    return "unknown";
}

bool
ParseArrivalProcess(const std::string& name, ArrivalProcess* out)
{
    if (name == "poisson")
        *out = ArrivalProcess::kPoisson;
    else if (name == "bursty")
        *out = ArrivalProcess::kBursty;
    else if (name == "diurnal")
        *out = ArrivalProcess::kDiurnal;
    else
        return false;
    return true;
}

double
ClassStats::LatencyQuantileNs(double q) const
{
    if (latencies_ns.empty())
        return 0.0;
    std::vector<double> sorted = latencies_ns;
    const double clamped = std::min(std::max(q, 0.0), 1.0);
    size_t k = static_cast<size_t>(clamped *
                                   static_cast<double>(sorted.size() - 1));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(k),
                     sorted.end());
    return sorted[k];
}

ClassStats
LoadReport::Total() const
{
    ClassStats total;
    for (const ClassStats& stats : per_class) {
        total.submitted += stats.submitted;
        total.ok += stats.ok;
        total.degraded += stats.degraded;
        total.compensated += stats.compensated;
        total.bypassed += stats.bypassed;
        total.shed += stats.shed;
        total.expired += stats.expired;
        total.rejected += stats.rejected;
        total.cancelled += stats.cancelled;
        total.failed += stats.failed;
        total.deadline_misses += stats.deadline_misses;
        total.latencies_ns.insert(total.latencies_ns.end(),
                                  stats.latencies_ns.begin(),
                                  stats.latencies_ns.end());
    }
    return total;
}

/** One submitted request awaiting its future. */
struct LoadGenerator::InFlight {
    std::future<InvocationResult> future;
    QualityClass quality = QualityClass::kGold;
    uint64_t deadline_ns = 0;  ///< absolute (0 = none).
    uint64_t submit_ns = 0;
};

LoadGenerator::LoadGenerator(ShardedEngine& engine,
                             const LoadGenConfig& config)
    : engine_(engine), config_(config)
{
    {
        std::lock_guard<std::mutex> lock(g_loadgen_registry_mu);
        LoadgenRegistry().push_back(this);
    }
    // A generator with a JSONL sink is itself a flush sink, so a
    // mid-run SIGINT/SIGTERM still writes the partial report.
    if (!config_.jsonl_out.empty())
        obs::RegisterFlushHook(&LoadGenerator::FlushAll);
}

LoadGenerator::~LoadGenerator()
{
    std::lock_guard<std::mutex> lock(g_loadgen_registry_mu);
    std::vector<LoadGenerator*>& registry = LoadgenRegistry();
    registry.erase(std::remove(registry.begin(), registry.end(), this),
                   registry.end());
}

uint64_t
LoadGenerator::NextGapNs(uint64_t schedule_ns, Rng& rng) const
{
    double rate_hz = config_.rate_hz;
    switch (config_.arrival) {
      case ArrivalProcess::kPoisson:
        break;
      case ArrivalProcess::kBursty: {
        const uint64_t period =
            config_.burst_on_ns + config_.burst_off_ns;
        const uint64_t phase = period == 0 ? 0 : schedule_ns % period;
        rate_hz *= phase < config_.burst_on_ns ? config_.burst_factor
                                               : config_.idle_factor;
        break;
      }
      case ArrivalProcess::kDiurnal: {
        uint64_t period = config_.diurnal_period_ns;
        if (period == 0)
            period = config_.duration_ns == 0 ? 1 : config_.duration_ns;
        const double swing =
            std::sin(kPi * static_cast<double>(schedule_ns % period) /
                     static_cast<double>(period));
        rate_hz *= 1.0 +
                   (config_.diurnal_peak_factor - 1.0) * swing * swing;
        break;
      }
    }
    if (!(rate_hz > 0.0))
        rate_hz = 1.0;
    // Exponential gap at the instantaneous rate (Uniform() < 1, so
    // the log argument stays in (0, 1]).
    const double gap_s = -std::log(1.0 - rng.Uniform()) / rate_hz;
    const double gap_ns = gap_s * 1e9;
    if (!(gap_ns >= 1.0))
        return 1;
    return static_cast<uint64_t>(gap_ns);
}

void
LoadGenerator::AbsorbLocked(const InFlight& flight,
                            const InvocationResult& result,
                            uint64_t resolve_ns)
{
    ClassStats& stats =
        report_.per_class[static_cast<size_t>(flight.quality)];
    switch (result.status.code()) {
      case core::StatusCode::kOk: {
        switch (result.report.degrade) {
          case core::DegradeMode::kNone: ++stats.ok; break;
          case core::DegradeMode::kCompensateOnly:
            ++stats.compensated;
            break;
          case core::DegradeMode::kSkipRecovery: ++stats.degraded; break;
          case core::DegradeMode::kSkipCheck: ++stats.bypassed; break;
        }
        const uint64_t latency_ns = resolve_ns > flight.submit_ns
                                        ? resolve_ns - flight.submit_ns
                                        : 0;
        stats.latencies_ns.push_back(static_cast<double>(latency_ns));
        if (flight.deadline_ns != 0 && resolve_ns > flight.deadline_ns)
            ++stats.deadline_misses;
        break;
      }
      case core::StatusCode::kDeadlineExceeded:
        ++stats.expired;
        if (!result.outputs.empty())
            ++report_.expired_with_output;
        break;
      case core::StatusCode::kUnavailable: ++stats.shed; break;
      case core::StatusCode::kResourceExhausted: ++stats.rejected; break;
      case core::StatusCode::kCancelled: ++stats.cancelled; break;
      default: ++stats.failed; break;
    }
}

LoadReport
LoadGenerator::Run()
{
    Rng arrival_rng =
        Rng::ForStream(config_.seed, LoadGenConfig::kStreamArrival);
    Rng tenant_rng =
        Rng::ForStream(config_.seed, LoadGenConfig::kStreamTenant);
    Rng inputs_rng =
        Rng::ForStream(config_.seed, LoadGenConfig::kStreamInputs);
    Rng jitter_rng =
        Rng::ForStream(config_.seed, LoadGenConfig::kStreamJitter);

    // Normalized tenant-mix CDF (all-zero weights mean all-gold).
    double gold_w = std::max(config_.mix.gold, 0.0);
    double silver_w = std::max(config_.mix.silver, 0.0);
    double best_w = std::max(config_.mix.best_effort, 0.0);
    double weight_sum = gold_w + silver_w + best_w;
    if (weight_sum <= 0.0) {
        gold_w = 1.0;
        weight_sum = 1.0;
    }
    const double gold_cut = gold_w / weight_sum;
    const double silver_cut = (gold_w + silver_w) / weight_sum;

    const size_t width = engine_.InputWidth();
    const uint64_t start_ns = obs::NowNs();
    std::deque<InFlight> live;
    uint64_t schedule_ns = 0;
    uint64_t late_submits = 0;

    for (;;) {
        schedule_ns += NextGapNs(schedule_ns, arrival_rng);
        if (schedule_ns >= config_.duration_ns)
            break;

        // Draw every request decision up front so the streams advance
        // in schedule order regardless of wall-clock jitter.
        const double tenant_draw = tenant_rng.Uniform();
        QualityClass quality = QualityClass::kBestEffort;
        uint64_t relative_deadline_ns = config_.best_effort_deadline_ns;
        if (tenant_draw < gold_cut) {
            quality = QualityClass::kGold;
            relative_deadline_ns = config_.gold_deadline_ns;
        } else if (tenant_draw < silver_cut) {
            quality = QualityClass::kSilver;
            relative_deadline_ns = config_.silver_deadline_ns;
        }
        size_t count = config_.elements == 0 ? 1 : config_.elements;
        if (config_.element_jitter > 0) {
            const int64_t jitter = jitter_rng.Range(
                -static_cast<int64_t>(config_.element_jitter),
                static_cast<int64_t>(config_.element_jitter));
            const int64_t jittered =
                static_cast<int64_t>(count) + jitter;
            count = jittered < 1 ? 1 : static_cast<size_t>(jittered);
        }
        InvocationRequest request;
        request.count = count;
        request.width = width;
        request.inputs.resize(count * width);
        const size_t pool_elements =
            width == 0 ? 0 : config_.input_pool.size() / width;
        if (pool_elements > 0) {
            for (size_t e = 0; e < count; ++e) {
                const size_t pick = static_cast<size_t>(
                    inputs_rng.Below(pool_elements));
                std::copy_n(
                    config_.input_pool.begin() +
                        static_cast<ptrdiff_t>(pick * width),
                    width,
                    request.inputs.begin() +
                        static_cast<ptrdiff_t>(e * width));
            }
        } else {
            for (double& v : request.inputs)
                v = inputs_rng.Uniform(config_.input_lo,
                                       config_.input_hi);
        }
        request.quality = quality;

        // Open loop: wait for the scheduled arrival when ahead,
        // submit immediately (and count the slip) when behind.
        const uint64_t target_ns = start_ns + schedule_ns;
        uint64_t now_ns = obs::NowNs();
        if (now_ns < target_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(target_ns - now_ns));
            now_ns = obs::NowNs();
        } else if (now_ns > target_ns + 1'000'000) {
            ++late_submits;
        }
        if (relative_deadline_ns != 0)
            request.deadline_ns = now_ns + relative_deadline_ns;

        InFlight flight;
        flight.quality = quality;
        flight.deadline_ns = request.deadline_ns;
        flight.submit_ns = now_ns;
        flight.future = engine_.Submit(std::move(request));
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++report_.offered;
            ++report_.per_class[static_cast<size_t>(quality)].submitted;
            report_.late_submits = late_submits;
            report_.wall_ns = obs::NowNs() - start_ns;
        }
        live.push_back(std::move(flight));

        // Opportunistic FIFO harvest keeps the in-flight window (and
        // the latency-measurement slack) small without ever blocking
        // the schedule.
        while (!live.empty() &&
               live.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            InFlight done = std::move(live.front());
            live.pop_front();
            const InvocationResult result = done.future.get();
            std::lock_guard<std::mutex> lock(mu_);
            AbsorbLocked(done, result, obs::NowNs());
        }
    }

    // Schedule exhausted: let the engine finish, then harvest the
    // tail (every accepted future resolves by Drain()).
    engine_.Drain();
    while (!live.empty()) {
        InFlight done = std::move(live.front());
        live.pop_front();
        const InvocationResult result = done.future.get();
        std::lock_guard<std::mutex> lock(mu_);
        AbsorbLocked(done, result, obs::NowNs());
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        report_.wall_ns = obs::NowNs() - start_ns;
    }

    if (!config_.jsonl_out.empty() &&
        !WriteLoadReportFile(config_.jsonl_out, Snapshot(), config_))
        Warn("loadgen: could not write %s", config_.jsonl_out.c_str());
    return Snapshot();
}

LoadReport
LoadGenerator::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return report_;
}

void
LoadGenerator::FlushAll()
{
    // Called from a signal handler: only try-lock, never block.
    if (!g_loadgen_registry_mu.try_lock())
        return;
    for (LoadGenerator* generator : LoadgenRegistry()) {
        if (generator->config_.jsonl_out.empty())
            continue;
        if (!generator->mu_.try_lock())
            continue;
        const LoadReport report = generator->report_;
        generator->mu_.unlock();
        WriteLoadReportFile(generator->config_.jsonl_out, report,
                            generator->config_);
    }
    g_loadgen_registry_mu.unlock();
}

std::string
LoadReportToJsonl(const LoadReport& report, const LoadGenConfig& config)
{
    std::string out = obs::MetadataJsonLine() + "\n";
    for (size_t i = 0; i < kNumQualityClasses; ++i)
        out += ClassStatsJson(
                   QualityClassName(static_cast<QualityClass>(i)),
                   report.per_class[i]) +
               "\n";
    const ClassStats total = report.Total();
    std::string line = ClassStatsJson("total", total);
    line.pop_back();  // reopen the object for the run-wide fields.
    line += ",\"offered\":" + std::to_string(report.offered) +
            ",\"wall_ns\":" + std::to_string(report.wall_ns) +
            ",\"late_submits\":" + std::to_string(report.late_submits) +
            ",\"expired_with_output\":" +
            std::to_string(report.expired_with_output) +
            ",\"arrival\":" +
            obs::JsonQuote(ArrivalProcessName(config.arrival)) +
            ",\"rate_hz\":" + obs::JsonNum(config.rate_hz) +
            ",\"duration_ns\":" + std::to_string(config.duration_ns) +
            ",\"seed\":" + std::to_string(config.seed) + "}";
    out += line + "\n";
    return out;
}

bool
WriteLoadReportFile(const std::string& path, const LoadReport& report,
                    const LoadGenConfig& config)
{
    const std::string body = LoadReportToJsonl(report, config);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    return std::fclose(f) == 0 && written == body.size();
}

}  // namespace rumba::serve
