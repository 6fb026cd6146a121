#include "obs/profiler.h"

#include <time.h>

#include <cmath>
#include <cstdlib>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/timer.h"

namespace rumba::obs {

namespace {

/** Indexable stage names; order must match ProfileStage. */
constexpr const char* kStageNames[] = {
    "queue_wait", "device", "predict_check", "recover", "compensate",
    "merge",      "audit",  "verify",        "other",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) ==
                  kProfileStageCount,
              "stage name table out of sync with ProfileStage");

/** Flush hook (obs/export.h) for RUMBA_PROFILE_OUT. */
void
WriteProfileOut()
{
    const char* path = std::getenv("RUMBA_PROFILE_OUT");
    if (path != nullptr && path[0] != '\0' &&
        !CpuProfiler::Default().WriteFoldedBestEffort(path))
        Warn("RUMBA_PROFILE_OUT: could not write %s", path);
}

}  // namespace

const char*
ProfileStageName(ProfileStage stage)
{
    const size_t i = static_cast<size_t>(stage);
    return i < kProfileStageCount ? kStageNames[i] : "unknown";
}

int64_t
ThreadCpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ------------------------------------------------------- CpuProfiler

CpuProfiler::CpuProfiler(Registry* registry) : registry_(registry)
{
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        stage_seconds_[s] = registry_->GetDoubleCounter(
            std::string("cpu_stage_seconds.") + kStageNames[s]);
    }
    invocations_ = registry_->GetCounter("profile.invocations");
    speedup_gauge_ =
        registry_->GetGauge("efficiency.speedup_estimate");
    energy_gauge_ = registry_->GetGauge("efficiency.energy_ratio");
    window_gauge_ = registry_->GetGauge("efficiency.window");
}

CpuProfiler::ShardRow
CpuProfiler::ShardCounters(int shard)
{
    if (shard < 0)
        return {};
    std::lock_guard<std::mutex> lock(shard_mu_);
    const size_t index = static_cast<size_t>(shard);
    while (shard_seconds_.size() <= index) {
        const std::string prefix = "cpu_stage_seconds.shard" +
                                   std::to_string(shard_seconds_.size());
        ShardRow row{};
        for (size_t s = 0; s < kProfileStageCount; ++s) {
            row[s] = registry_->GetDoubleCounter(prefix + "." +
                                                 kStageNames[s]);
        }
        shard_seconds_.push_back(row);
    }
    return shard_seconds_[index];
}

void
CpuProfiler::AddStageCpuNs(ProfileStage stage, int shard, int64_t ns)
{
    if (ns <= 0)
        return;
    const size_t s = static_cast<size_t>(stage);
    const double seconds = static_cast<double>(ns) * 1e-9;
    stage_seconds_[s]->Add(seconds);
    if (shard >= 0)
        ShardCounters(shard)[s]->Add(seconds);
}

void
CpuProfiler::RecordInvocation(const ShardRow& row,
                              const StageRecord& stages)
{
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        const int64_t ns = stages.cpu_ns[s];
        if (ns <= 0)
            continue;
        const double seconds = static_cast<double>(ns) * 1e-9;
        stage_seconds_[s]->Add(seconds);
        if (row[s] != nullptr)
            row[s]->Add(seconds);
    }
    invocations_->Increment();
}

void
CpuProfiler::RecordCosts(const sim::SystemCosts& costs)
{
    sim::EfficiencyEstimate est;
    {
        std::lock_guard<std::mutex> lock(window_mu_);
        window_.Push(costs);
        est = window_.Estimate();
    }
    speedup_gauge_->Set(est.speedup);
    energy_gauge_->Set(est.energy_ratio);
    window_gauge_->Set(static_cast<double>(est.window));
}

sim::EfficiencyEstimate
CpuProfiler::Efficiency() const
{
    std::lock_guard<std::mutex> lock(window_mu_);
    return window_.Estimate();
}

double
CpuProfiler::StageSeconds(ProfileStage stage) const
{
    return stage_seconds_[static_cast<size_t>(stage)]->Value();
}

uint64_t
CpuProfiler::Invocations() const
{
    return invocations_->Value();
}

bool
CpuProfiler::WriteFoldedBestEffort(const std::string& path)
{
    std::string body;
    {
        // Signal-flush path: never block on a worker registering its
        // shard's counters.
        std::unique_lock<std::mutex> lock(shard_mu_, std::try_to_lock);
        if (!lock.owns_lock())
            return false;
        for (size_t shard = 0; shard < shard_seconds_.size(); ++shard) {
            for (size_t s = 0; s < kProfileStageCount; ++s) {
                const long long us = std::llround(
                    shard_seconds_[shard][s]->Value() * 1e6);
                if (us > 0) {
                    body += "shard" + std::to_string(shard) + ";" +
                            kStageNames[s] + " " + std::to_string(us) +
                            "\n";
                }
            }
        }
    }
    return WriteFile(path, body);
}

CpuProfiler&
CpuProfiler::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()): the
    // incident flush hook reads Efficiency() via ProfilezJson from an
    // atexit handler, which runs after a by-value static constructed
    // this late would already have been destroyed.
    static CpuProfiler* profiler = [] {
        auto* created = new CpuProfiler(&Registry::Default());
        if (const char* out = std::getenv("RUMBA_PROFILE_OUT");
            out != nullptr && out[0] != '\0')
            RegisterFlushHook(&WriteProfileOut);
        return created;
    }();
    return *profiler;
}

// --------------------------------------------------------- StageScope

StageScope::StageScope(ProfileStage stage, StageRecord* record,
                       bool cpu)
    : stage_(stage), record_(record), cpu_(record != nullptr && cpu)
{
    if (record_ != nullptr)
        wall_start_ns_ = NowNs();
    if (cpu_)
        cpu_start_ns_ = ThreadCpuNowNs();
}

StageScope::~StageScope()
{
    if (cpu_)
        record_->Cpu(stage_) += ThreadCpuNowNs() - cpu_start_ns_;
    if (record_ != nullptr) {
        record_->Wall(stage_) +=
            static_cast<int64_t>(NowNs() - wall_start_ns_);
    }
}

// ----------------------------------------------------------- profilez

std::string
ProfilezJson()
{
    CpuProfiler& prof = CpuProfiler::Default();
    const sim::EfficiencyEstimate est = prof.Efficiency();

    double total = 0.0;
    double seconds[kProfileStageCount] = {};
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        seconds[s] =
            prof.StageSeconds(static_cast<ProfileStage>(s));
        total += seconds[s];
    }

    std::string out = "{";
    out += "\"schema_version\":1";
    out += ",\"cpu_seconds\":{";
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        out += "\"";
        out += kStageNames[s];
        out += "\":" + JsonNum(seconds[s]) + ",";
    }
    out += "\"total\":" + JsonNum(total) + "}";
    out += ",\"stage_share\":{";
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        if (s > 0)
            out += ",";
        out += "\"";
        out += kStageNames[s];
        out += "\":" +
               JsonNum(total > 0.0 ? seconds[s] / total : 0.0);
    }
    out += "}";
    out += ",\"efficiency\":{";
    out += "\"speedup_estimate\":" + JsonNum(est.speedup);
    out += ",\"energy_ratio\":" + JsonNum(est.energy_ratio);
    out += ",\"window\":" + std::to_string(est.window);
    out += ",\"invocations\":" + std::to_string(est.invocations);
    out += "}";
    out += ",\"invocations\":" +
           std::to_string(prof.Invocations());
    out += "}";
    return out;
}

}  // namespace rumba::obs
