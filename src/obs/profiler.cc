#include "obs/profiler.h"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/timer.h"

namespace rumba::obs {

namespace {

/** Indexable stage names; order must match ProfileStage. */
constexpr const char* kStageNames[] = {
    "idle",       "queue_wait", "device", "predict_check", "recover",
    "compensate", "merge",      "audit",  "verify",        "other",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) ==
                  kProfileStageCount,
              "stage name table out of sync with ProfileStage");

/** Stage-share histograms span [0, 1]; 20 linear buckets of 0.05. */
std::vector<double>
ShareBounds()
{
    return Histogram::LinearBuckets(0.05, 0.05, 20);
}

// ---------------------------------------------------------------------------
// Thread slot registry: every thread that enters a StageScope (or
// binds a shard) registers a shared_ptr slot; the sampler walks the
// registry under a mutex. Slots outlive their threads (shared_ptr),
// so the sampler can never read freed memory; dead slots are pruned
// on the sampler's walk.
// ---------------------------------------------------------------------------

std::mutex&
SlotMutex()
{
    static std::mutex mu;
    return mu;
}

std::vector<std::shared_ptr<ThreadSlot>>&
SlotList()
{
    static std::vector<std::shared_ptr<ThreadSlot>> slots;
    return slots;
}

/** Marks the slot dead when its thread exits. */
struct SlotRegistration {
    std::shared_ptr<ThreadSlot> slot;

    SlotRegistration() : slot(std::make_shared<ThreadSlot>())
    {
        std::lock_guard<std::mutex> lock(SlotMutex());
        SlotList().push_back(slot);
    }

    ~SlotRegistration()
    {
        slot->alive.store(false, std::memory_order_relaxed);
    }
};

ThreadSlot*
LocalSlot()
{
    thread_local SlotRegistration registration;
    return registration.slot.get();
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
        const std::string name(kStageNames[s]);
        stage_seconds_[s] =
            registry_->GetDoubleCounter("cpu_stage_seconds." + name);
        stage_share_[s] = registry_->GetHistogram(
            "profile.stage_share." + name, ShareBounds());
    }
    invocations_ = registry_->GetCounter("profile.invocations");
    speedup_gauge_ =
        registry_->GetGauge("efficiency.speedup_estimate");
    energy_gauge_ = registry_->GetGauge("efficiency.energy_ratio");
    window_gauge_ = registry_->GetGauge("efficiency.window");
}

DoubleCounter*
CpuProfiler::ShardStageCounter(int shard, ProfileStage stage)
{
    std::lock_guard<std::mutex> lock(shard_mu_);
    const size_t index = static_cast<size_t>(shard);
    while (shard_seconds_.size() <= index) {
        const std::string prefix = "cpu_stage_seconds.shard" +
                                   std::to_string(shard_seconds_.size());
        std::array<DoubleCounter*, kProfileStageCount> row{};
        for (size_t s = 0; s < kProfileStageCount; ++s) {
            row[s] = registry_->GetDoubleCounter(prefix + "." +
                                                 kStageNames[s]);
        }
        shard_seconds_.push_back(row);
    }
    return shard_seconds_[index][static_cast<size_t>(stage)];
}

void
CpuProfiler::AddStageCpuNs(ProfileStage stage, int shard, int64_t ns)
{
    if (ns <= 0)
        return;
    const double seconds = static_cast<double>(ns) * 1e-9;
    stage_seconds_[static_cast<size_t>(stage)]->Add(seconds);
    if (shard >= 0)
        ShardStageCounter(shard, stage)->Add(seconds);
}

void
CpuProfiler::RecordInvocation(int shard, const StageRecord& stages)
{
    int64_t total_ns = 0;
    for (const int64_t ns : stages.cpu_ns)
        total_ns += std::max<int64_t>(0, ns);
    for (size_t s = 0; s < kProfileStageCount; ++s) {
        const int64_t ns = stages.cpu_ns[s];
        AddStageCpuNs(static_cast<ProfileStage>(s), shard, ns);
        if (total_ns > 0 && ns > 0) {
            stage_share_[s]->Observe(static_cast<double>(ns) /
                                     static_cast<double>(total_ns));
        }
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

CpuProfiler&
CpuProfiler::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()): the
    // incident flush hook reads Efficiency() via ProfilezJson from an
    // atexit handler, which runs after a by-value static constructed
    // this late would already have been destroyed.
    static CpuProfiler* profiler = new CpuProfiler(&Registry::Default());
    return *profiler;
}

// --------------------------------------------------------- StageScope

StageScope::StageScope(ProfileStage stage, StageRecord* record,
                       bool cpu)
    : stage_(stage), record_(record), cpu_(record != nullptr && cpu)
{
    ThreadSlot* slot = LocalSlot();
    const uint32_t depth =
        slot->depth.load(std::memory_order_relaxed);
    if (depth > 0 && depth <= ThreadSlot::kMaxDepth &&
        slot->stack[depth - 1].load(std::memory_order_relaxed) ==
            static_cast<uint8_t>(stage)) {
        pushed_ = false;  // parent frame already carries this tag.
    } else {
        if (depth < ThreadSlot::kMaxDepth) {
            slot->stack[depth].store(static_cast<uint8_t>(stage),
                                     std::memory_order_relaxed);
        }
        slot->depth.store(depth + 1, std::memory_order_relaxed);
    }
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
    if (pushed_) {
        ThreadSlot* slot = LocalSlot();
        const uint32_t depth =
            slot->depth.load(std::memory_order_relaxed);
        if (depth > 0)
            slot->depth.store(depth - 1, std::memory_order_relaxed);
    }
}

void
BindThreadShard(int shard)
{
    LocalSlot()->shard.store(shard, std::memory_order_relaxed);
}

// --------------------------------------------------- SamplingProfiler

int64_t
ParseProfilePeriodNs(const char* value)
{
    if (value == nullptr)
        return kDefaultProfilePeriodNs;
    const char* end = value + std::strlen(value);
    double hz = 0.0;
    const auto [ptr, ec] = std::from_chars(value, end, hz);
    if (ptr != end || ec != std::errc() || !std::isfinite(hz))
        return kDefaultProfilePeriodNs;
    if (hz <= 0.0)
        return 0;  // explicit opt-out.
    // Clamp in double before narrowing: 1e9 / 1e-300 overflows int64.
    return static_cast<int64_t>(
        std::clamp(1e9 / hz, static_cast<double>(kMinTickNs),
                   static_cast<double>(kMaxTickNs)));
}

void
SamplingProfiler::Start(int64_t period_ns, const std::string& out_path)
{
    ticker_.Start(period_ns, [&] {
        std::lock_guard<std::mutex> lock(mu_);
        out_path_ = out_path;
        folded_.clear();
        samples_ = 0;
    });
}

void
SamplingProfiler::Tick(bool final)
{
    // Walk the slot registry: fold one stack per live thread, prune
    // slots whose threads exited.
    std::vector<std::shared_ptr<ThreadSlot>> slots;
    {
        std::lock_guard<std::mutex> lock(SlotMutex());
        auto& list = SlotList();
        list.erase(std::remove_if(
                       list.begin(), list.end(),
                       [](const std::shared_ptr<ThreadSlot>& s) {
                           return !s->alive.load(
                               std::memory_order_relaxed);
                       }),
                   list.end());
        slots = list;
    }
    for (const auto& slot : slots) {
        const uint32_t depth = std::min<uint32_t>(
            slot->depth.load(std::memory_order_relaxed),
            ThreadSlot::kMaxDepth);
        const int32_t shard =
            slot->shard.load(std::memory_order_relaxed);
        std::string stack =
            shard >= 0 ? "shard" + std::to_string(shard) : "thread";
        if (depth == 0) {
            stack += ";idle";
        } else {
            for (uint32_t d = 0; d < depth; ++d) {
                const auto tag = static_cast<ProfileStage>(
                    slot->stack[d].load(std::memory_order_relaxed));
                stack += ";";
                stack += ProfileStageName(tag);
            }
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++folded_[stack];
        ++samples_;
    }
    if (!final)
        return;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        path = out_path_;
    }
    if (path.empty())
        return;
    std::string body;
    for (const FoldedStack& folded : Folded())
        body += folded.stack + " " + std::to_string(folded.count) + "\n";
    if (!WriteFile(path, body))
        Warn("profiler: could not write %s", path.c_str());
}

uint64_t
SamplingProfiler::Samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
}

double
SamplingProfiler::Hz() const
{
    const int64_t period_ns = ticker_.PeriodNs();
    return period_ns > 0 ? 1e9 / static_cast<double>(period_ns) : 0.0;
}

std::vector<FoldedStack>
SamplingProfiler::Folded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FoldedStack> out;
    out.reserve(folded_.size());
    for (const auto& [stack, count] : folded_)
        out.push_back({stack, count});
    return out;
}

SamplingProfiler&
SamplingProfiler::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()): the at-exit
    // exporter stops it while the slot registry is still alive.
    static SamplingProfiler* sampler = new SamplingProfiler();
    return *sampler;
}

SamplingProfiler*
SamplingProfiler::AcquireFromEnv()
{
    SamplingProfiler& sampler = Default();
    sampler.ticker_.Acquire([&sampler] {
        // Opt-in, like RUMBA_STREAM_OUT / RUMBA_AUDIT_OUT: either
        // knob arms the sampler; neither set means no thread at all.
        // Thread wakeups are not free (tens of µs of scheduler CPU
        // per tick on a small virtualized box), so an unrequested
        // sampler would burn the whole <5% instrumentation budget
        // folding stacks nobody dumps.
        const char* hz = std::getenv("RUMBA_PROFILE_HZ");
        const char* out = std::getenv("RUMBA_PROFILE_OUT");
        if ((hz != nullptr && hz[0] != '\0') ||
            (out != nullptr && out[0] != '\0'))
            sampler.Start(ParseProfilePeriodNs(hz),
                          out != nullptr ? out : "");
    });
    return &sampler;
}

void
SamplingProfiler::Release()
{
    Default().ticker_.Release();
}

// ----------------------------------------------------------- profilez

std::string
ProfilezJson()
{
    CpuProfiler& prof = CpuProfiler::Default();
    const sim::EfficiencyEstimate est = prof.Efficiency();
    SamplingProfiler& sampler = SamplingProfiler::Default();

    double total = 0.0;
    double seconds[kProfileStageCount] = {};
    for (size_t s = 1; s < kProfileStageCount; ++s) {  // skip idle.
        seconds[s] =
            prof.StageSeconds(static_cast<ProfileStage>(s));
        total += seconds[s];
    }

    size_t sampled_threads;
    {
        std::lock_guard<std::mutex> lock(SlotMutex());
        sampled_threads = SlotList().size();
    }

    std::string out = "{";
    out += "\"schema_version\":1";
    out += ",\"cpu_seconds\":{";
    for (size_t s = 1; s < kProfileStageCount; ++s) {
        out += "\"";
        out += kStageNames[s];
        out += "\":" + JsonNum(seconds[s]) + ",";
    }
    out += "\"total\":" + JsonNum(total) + "}";
    out += ",\"stage_share\":{";
    for (size_t s = 1; s < kProfileStageCount; ++s) {
        if (s > 1)
            out += ",";
        out += "\"";
        out += kStageNames[s];
        out += "\":" +
               JsonNum(total > 0.0 ? seconds[s] / total : 0.0);
    }
    out += "}";
    out += ",\"sampler\":{";
    out += "\"running\":" +
           std::string(sampler.Running() ? "true" : "false");
    out += ",\"hz\":" + JsonNum(sampler.Hz());
    out += ",\"samples\":" +
           std::to_string(sampler.Samples());
    out += ",\"threads\":" + std::to_string(sampled_threads);
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
