/**
 * @file
 * Steady serving benchmark: trains a workload's artifact, deploys it
 * on a serve::ShardedEngine, drives it from this file's own seeded
 * load generator, checks every delivered output against the exact
 * kernel, and prints the end-to-end metrics (--trace 0) or the
 * per-layer ledger (--trace 1) as one JSON line. run.py builds it.
 *
 *   servebench --workload bulk|offload --seed N --seconds S
 *              --trace 0|1 [--spans FILE]
 *
 * An untraced run sets up five times (setup_s is the median), then
 * serves a warm-up, a closed-loop saturation phase (throughput and
 * host CPU per element, medians over 0.2 s windows), an open-loop
 * phase at the workload's fixed rate (latency from each request's due
 * time), and the rate ladder (max_rate_rps). The seed picks the
 * Table-1 test elements of every request and the arrival times.
 *
 * Everything is measured from outside the program: spans are taken
 * around this file's calls into serve, core, npu, predict, apps and
 * sim, and the traced run replays each shard's request stream on an
 * artifact-built replica, stage by stage.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmark.h"
#include "core/artifact.h"
#include "core/detector.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "harness.h"
#include "npu/npu.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "predict/compensator.h"
#include "predict/predictor.h"
#include "serve/engine.h"
#include "sim/system_model.h"

extern char** environ;

namespace servebench {
namespace {

using namespace rumba;
using obs::NowNs;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One traffic mix. Rates are requests per second over all shards. */
struct Workload {
    const char* name;
    const char* app;
    size_t request_elems;
    size_t shards;
    /** Modelled accelerator occupancy per element (0 = CPU-bound). */
    uint64_t device_ns_per_elem;
    /** Three-tier recovery (accept / compensate / re-execute). */
    bool compensation;
    /** Closed-loop saturation: requests kept in flight per shard. */
    size_t window;
    /** Open-loop latency phase: fixed offered rate. */
    double offered_rps;
    /** Offered rates the capacity search walks, ascending. */
    std::vector<double> ladder_rps;
    /** p99 latency limit for the ladder. */
    double p99_limit_ms;
};

/** Geometric ladder: @p steps rates from @p first, x @p factor each. */
std::vector<double>
Ladder(double first, double factor, size_t steps)
{
    std::vector<double> rates;
    double rate = first;
    for (size_t i = 0; i < steps; ++i, rate *= factor)
        rates.push_back(std::round(rate));
    return rates;
}

// Sizes come from indicative runs on a 4-vCPU guest: bulk serves
// about 1000 req/s closed-loop, offload about 335 req/s against its
// modelled device.
//
// On that guest the serving path shows periodic tail episodes (both
// shards slowed for ~100 ms every ~1.4 s, absent from a single-thread
// replay of the same stream), timed waits wake up to several ms late,
// and capacity moves about 10% between runs. Offered rates therefore
// sit well below capacity, where queueing does not amplify the
// episodes, and these few-hundred-req/s workloads take their latency
// percentiles over the whole phase: 1000-request windows there last
// 4-5 s and split bimodally on whether an episode fell inside. Even
// so both percentiles moved too much between runs to gate (see
// RunEndToEnd); they are printed with their sample counts.
// Bulk's ladder steps by 6%, so capacity noise rather than the rung
// spacing sets the spread of max_rate_rps.
//
// bulk: blackscholes, 1024-element requests, 2 CPU-bound shards,
// two-tier recovery. Per-element layers (NPU forward, checker, exact
// re-execution of ~30% of elements) do the work; per-request serve
// and obs cost is spread over 1024 elements.
//  - window 4: three queued behind the running one keep a shard busy
//    far below the admission thresholds (48 of 64).
//  - offered 250 req/s: about a quarter of capacity.
//  - ladder from 600 req/s (60% of capacity) up.
//  - p99 limit 100 ms: above the episodes' tail at moderate load, so
//    the search ends where the queue stops keeping up.
//
// offload: fft with the compensate tier, 2048-element requests, 4
// shards overlapping a modelled accelerator. The device constant is a
// fixed 4 us per element, about twice today's whole-process host cost
// per element (three times a worker's own), and never calibrated from
// measured host speed: a faster host path must not shrink the device
// time. Wall-clock metrics are bound mostly by the device, so a
// host-CPU change should move cpu_ns_per_elem far more than anything
// else here.
//  - window 2: the next request is queued while one is on the device.
//  - offered 200 req/s: about 60% of the device-bound capacity.
//  - ladder from 270 req/s (80% of capacity) up in 10% steps: each
//    step needs 3-4 s for its 1050 samples, so finer steps cost more
//    run time than their resolution is worth.
//  - p99 limit 100 ms: about 10 service times (8.2 ms on the device).
//
// A per-request-dominated workload (8-element inversek2j requests) is
// left out: on that guest its 64-deep shard queues overflowed during
// stalls at a tenth of its closed-loop capacity, and idle wake-ups set
// its latency below that, so none of its open-loop figures repeated.
const Workload kWorkloads[] = {
    {"bulk", "blackscholes", 1024, 2, 0, false, 4, 250.0,
     Ladder(600, 1.06, 40), 100.0},
    {"offload", "fft", 2048, 4, 4000, true, 2, 200.0,
     Ladder(270, 1.1, 30), 100.0},
};

/** TOQ target of every workload, in percent. */
constexpr double kToqTargetPct = 10.0;

/** Setups per untraced run; setup_s is their median. */
constexpr size_t kSetupRepeats = 5;

/** Closed-loop windows: each timed figure is a median over these. */
constexpr double kSaturationWindowS = 0.2;

/** Samples a ladder step needs: its p99 keeps ten beyond it. */
constexpr size_t kStepSamples = 1050;

/** Shares of --seconds for the closed-loop saturation phase and the
 *  open-loop latency phase; the ladder takes about the rest, each step
 *  at least kMinStepSeconds and long enough for kStepSamples. */
constexpr double kSaturationShare = 0.2;
constexpr double kLatencyShare = 0.3;
constexpr double kMinStepSeconds = 1.2;

core::RuntimeConfig
RuntimeConfigFor(const Workload& w)
{
    return core::RuntimeConfig::Builder()
        .WithChecker(core::Scheme::kTree)
        .WithTunerMode(core::TuningMode::kToq)
        .WithTargetErrorPct(kToqTargetPct)
        .WithCompensation(w.compensation)
        .Build();
}

/** The default ServeConfig with the workload's shape; @p obs_on false
 *  turns every obs feature off. */
serve::ServeConfig
ServeConfigFor(const Workload& w, bool obs_on)
{
    serve::ServeConfig config;
    config.shards = w.shards;
    config.emulated_device_ns = w.device_ns_per_elem;
    if (!obs_on) {
        config.trace.enabled = false;
        config.flight.capacity = 0;
        config.slo.enabled = false;
        config.profile.enabled = false;
        config.audit.enabled = false;
        config.forensics.enabled = false;
    }
    return config;
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

uint64_t
SplitMix64(uint64_t* state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Request k of shard s is a seeded draw of Table-1 test elements;
 *  any request can be rebuilt from (seed, shard, k) for the output
 *  check and the replay. */
class RequestSource {
  public:
    RequestSource(const apps::Benchmark& app, uint64_t seed,
                  size_t count)
        : width_(app.NumInputs()), count_(count), seed_(seed)
    {
        for (const auto& row : app.TestInputs())
            pool_.insert(pool_.end(), row.begin(), row.end());
        rows_ = pool_.size() / width_;
    }

    void
    Fill(size_t shard, uint64_t k, std::vector<double>* out) const
    {
        uint64_t state = seed_ * 0xD1B54A32D192ED03ull ^
                         (shard + 1) * 0x8CB92BA72F3D8DD7ull ^ k;
        out->resize(count_ * width_);
        double* dst = out->data();
        for (size_t j = 0; j < count_; ++j) {
            const size_t row = SplitMix64(&state) % rows_;
            std::memcpy(dst + j * width_, pool_.data() + row * width_,
                        width_ * sizeof(double));
        }
    }

    size_t Width() const { return width_; }
    size_t Count() const { return count_; }

  private:
    std::vector<double> pool_;
    size_t width_;
    size_t rows_ = 0;
    size_t count_;
    uint64_t seed_;
};

uint64_t
Digest(const std::vector<double>& values)
{
    uint64_t h = 1469598103934665603ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(
        values.data());
    for (size_t i = 0; i < values.size() * sizeof(double); ++i)
        h = (h ^ bytes[i]) * 1099511628211ull;
    return h;
}

int64_t
ProcessCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::chrono::steady_clock::time_point
AtNs(uint64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns));
}

// ---------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------

/** One request as the load generator saw it. */
struct Record {
    uint64_t k = 0;             ///< index in its shard's stream.
    uint64_t sched_ns = 0;      ///< due time (open loop).
    uint64_t submit_ns = 0;     ///< Submit() entered (0 = not read).
    uint64_t submitted_ns = 0;  ///< Submit() returned.
    uint64_t ready_ns = 0;      ///< result observed ready.
    core::StatusCode code = core::StatusCode::kOk;
    bool degraded = false;
    bool traced = false;
    uint64_t digest = 0;
    std::vector<double> outputs;  ///< freed once checked.
};

/** Failure class of a record, or nullptr when it was served. */
const char*
FailureClass(const Record& r)
{
    if (r.code != core::StatusCode::kOk)
        return core::StatusCodeName(r.code);
    return r.degraded ? "degraded" : nullptr;
}

/** What one phase left behind, per shard. */
struct PhaseLog {
    std::string name;
    std::vector<std::vector<Record>> shards;
    /** Closed loop: per-window served elements, wall and CPU. */
    std::vector<double> win_elems, win_wall_ns, win_cpu_ns;
    std::vector<char> win_traced;
    /** Open loop: when the last request was due. */
    uint64_t last_sched_ns = 0;
    /** Outcome counts; they outlive records a merge drops. */
    size_t attempted = 0, ok = 0;
    std::map<std::string, size_t> failures;

    size_t Attempted() const { return attempted; }

    /** Count the records' outcomes (once, when the phase ends). */
    void
    Tally()
    {
        for (const auto& shard : shards) {
            for (const Record& r : shard) {
                ++attempted;
                ok += r.code == core::StatusCode::kOk ? 1 : 0;
                if (const char* c = FailureClass(r))
                    ++failures[c];
            }
        }
    }
};

/** Seconds per segment of the long phases: outputs are checked and
 *  freed between segments, so the load generator's own memory, and
 *  with it peak_rss_mb, does not grow with throughput or phase
 *  length. */
constexpr double kSegmentSeconds = 1.5;

/**
 * Append segment @p seg to @p into: its counts, its closed-loop
 * windows but the first (the ramp after the check pause between
 * segments), and, with @p keep_records, its records.
 */
void
Merge(PhaseLog* into, PhaseLog&& seg, bool keep_records)
{
    into->attempted += seg.attempted;
    into->ok += seg.ok;
    for (const auto& [c, n] : seg.failures)
        into->failures[c] += n;
    const size_t skip = seg.win_elems.size() > 1 ? 1 : 0;
    for (size_t i = skip; i < seg.win_elems.size(); ++i) {
        into->win_elems.push_back(seg.win_elems[i]);
        into->win_wall_ns.push_back(seg.win_wall_ns[i]);
        into->win_cpu_ns.push_back(seg.win_cpu_ns[i]);
        into->win_traced.push_back(seg.win_traced[i]);
    }
    into->last_sched_ns = seg.last_sched_ns;
    into->shards.resize(seg.shards.size());
    if (!keep_records)
        return;
    for (size_t s = 0; s < seg.shards.size(); ++s) {
        for (Record& r : seg.shards[s])
            into->shards[s].push_back(std::move(r));
    }
}

/** Load-generator state shared by the threads driving one engine. */
struct Load {
    const Workload& w;
    serve::ShardedEngine& engine;
    const RequestSource& source;
    std::vector<uint64_t> next_k;  ///< per-shard stream cursor.
    std::atomic<uint64_t> served_elems{0};
    std::atomic<uint32_t> window{0};
    std::atomic<bool> trace_odd_windows{false};

    Load(const Workload& wl, serve::ShardedEngine& e,
           const RequestSource& src)
        : w(wl), engine(e), source(src), next_k(wl.shards, 0)
    {
    }
};

struct InFlight {
    Record rec;
    std::future<serve::InvocationResult> future;
};

InFlight
SubmitOne(Load& d, size_t shard, bool traced, uint64_t sched_ns)
{
    InFlight f;
    f.rec.k = d.next_k[shard]++;
    f.rec.sched_ns = sched_ns;
    f.rec.traced = traced;
    serve::InvocationRequest request;
    d.source.Fill(shard, f.rec.k, &request.inputs);
    request.count = d.source.Count();
    request.width = d.source.Width();
    request.shard = static_cast<int>(shard);
    if (traced || sched_ns != 0)
        f.rec.submit_ns = NowNs();
    f.future = d.engine.Submit(std::move(request));
    if (traced)
        f.rec.submitted_ns = NowNs();
    return f;
}

void
Complete(Load& d, InFlight* f, std::vector<Record>* out,
         bool timed_ready)
{
    if (timed_ready)
        f->rec.ready_ns = NowNs();
    serve::InvocationResult result = f->future.get();
    f->rec.code = result.status.code();
    f->rec.degraded =
        result.status.ok() &&
        result.report.degrade != core::DegradeMode::kNone;
    if (result.status.ok()) {
        f->rec.outputs = std::move(result.outputs);
        if (!f->rec.degraded)
            d.served_elems.fetch_add(d.source.Count(),
                                     std::memory_order_relaxed);
    }
    out->push_back(std::move(f->rec));
}

/** Closed loop: each shard keeps w.window requests in flight until
 *  @p end_ns, then drains. */
void
ClosedLoopShard(Load& d, size_t shard, uint64_t end_ns,
                std::vector<Record>* out)
{
    std::deque<InFlight> inflight;
    for (;;) {
        if (NowNs() < end_ns) {
            while (inflight.size() < d.w.window) {
                const uint32_t win =
                    d.window.load(std::memory_order_relaxed);
                const bool traced =
                    d.trace_odd_windows.load(std::memory_order_relaxed) &&
                    (win & 1u) == 1u;
                inflight.push_back(SubmitOne(d, shard, traced, 0));
            }
        }
        if (inflight.empty())
            break;
        inflight.front().future.wait();
        Complete(d, &inflight.front(), out, inflight.front().rec.traced);
        inflight.pop_front();
    }
}

PhaseLog
RunClosedLoop(Load& d, const std::string& name, double seconds,
              bool alternate_traced)
{
    PhaseLog log;
    log.name = name;
    log.shards.resize(d.w.shards);
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds / kSaturationWindowS)));
    const uint64_t win_ns =
        static_cast<uint64_t>(kSaturationWindowS * 1e9);
    d.window.store(0);
    d.trace_odd_windows.store(alternate_traced);
    const uint64_t t0 = NowNs();
    const uint64_t end_ns = t0 + windows * win_ns;
    std::vector<std::thread> threads;
    for (size_t s = 0; s < d.w.shards; ++s)
        threads.emplace_back(ClosedLoopShard, std::ref(d), s, end_ns,
                             &log.shards[s]);
    uint64_t prev_wall = t0;
    int64_t prev_cpu = ProcessCpuNs();
    uint64_t prev_elems = d.served_elems.load();
    for (size_t i = 0; i < windows; ++i) {
        std::this_thread::sleep_until(AtNs(t0 + (i + 1) * win_ns));
        const uint64_t wall = NowNs();
        const int64_t cpu = ProcessCpuNs();
        const uint64_t elems = d.served_elems.load();
        d.window.store(static_cast<uint32_t>(i + 1));
        log.win_elems.push_back(static_cast<double>(elems - prev_elems));
        log.win_wall_ns.push_back(static_cast<double>(wall - prev_wall));
        log.win_cpu_ns.push_back(static_cast<double>(cpu - prev_cpu));
        log.win_traced.push_back(alternate_traced && (i & 1u) == 1u);
        prev_wall = wall;
        prev_cpu = cpu;
        prev_elems = elems;
    }
    for (auto& t : threads)
        t.join();
    d.trace_odd_windows.store(false);
    log.Tally();
    return log;
}

/**
 * Open loop on one thread for every shard: global request i goes to
 * shard i % shards at its due time. The thread busy-polls instead of
 * sleeping: on a virtualized guest a timed wait can wake milliseconds
 * late, which would turn the generator's own wake-ups into latency
 * and bunch the arrivals. Results are polled as they complete, so
 * each ready time is taken within one poll of the engine finishing.
 */
PhaseLog
RunOpenLoop(Load& d, const std::string& name, double rate_rps,
            double seconds, uint64_t schedule_seed, bool traced)
{
    PhaseLog log;
    log.name = name;
    log.shards.resize(d.w.shards);
    // Precomputed before the phase starts.
    const std::vector<uint64_t> offsets =
        PoissonSchedule(rate_rps, seconds, schedule_seed);
    const uint64_t t0 = NowNs() + 1000000;
    log.last_sched_ns = t0 + (offsets.empty() ? 0 : offsets.back());
    std::vector<std::deque<InFlight>> inflight(d.w.shards);
    size_t next = 0, outstanding = 0;
    while (next < offsets.size() || outstanding > 0) {
        if (next < offsets.size() && NowNs() >= t0 + offsets[next]) {
            const size_t shard = next % d.w.shards;
            inflight[shard].push_back(
                SubmitOne(d, shard, traced, t0 + offsets[next]));
            ++next;
            ++outstanding;
            continue;
        }
        for (size_t s = 0; s < d.w.shards; ++s) {
            std::deque<InFlight>& queue = inflight[s];
            while (!queue.empty() &&
                   queue.front().future.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready) {
                Complete(d, &queue.front(), &log.shards[s], true);
                queue.pop_front();
                --outstanding;
            }
        }
    }
    log.Tally();
    return log;
}

/** A closed-loop phase run as segments; @p check runs on each
 *  segment before it is merged. */
PhaseLog
Saturate(Load& d, const std::string& name, double seconds,
         bool alternate_traced, bool keep_records,
         const std::function<void(PhaseLog&)>& check)
{
    PhaseLog all;
    all.name = name;
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds / kSegmentSeconds)));
    for (size_t i = 0; i < n; ++i) {
        PhaseLog seg = RunClosedLoop(d, name, seconds / static_cast<double>(n),
                                     alternate_traced);
        check(seg);
        Merge(&all, std::move(seg), keep_records);
    }
    return all;
}

/** An open-loop phase at @p rate_rps run as segments, each with its
 *  own schedule drawn from @p seed; records stay for the figures. */
PhaseLog
Offer(Load& d, const std::string& name, double rate_rps, double seconds,
      uint64_t seed, bool traced,
      const std::function<void(PhaseLog&)>& check)
{
    PhaseLog all;
    all.name = name;
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds / kSegmentSeconds)));
    for (size_t i = 0; i < n; ++i) {
        PhaseLog seg = RunOpenLoop(d, name, rate_rps,
                                   seconds / static_cast<double>(n),
                                   seed * 1000003 + i, traced);
        check(seg);
        Merge(&all, std::move(seg), true);
    }
    return all;
}

// ---------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------

/** Running totals of the output check over a whole run. */
struct CheckTotals {
    size_t submitted = 0;  ///< every request, for the accounting.
    size_t attempted = 0;  ///< requests of the reported phases.
    size_t served = 0;
    std::map<std::string, size_t> failures;  ///< by class.
    double weighted_error = 0.0;             ///< sum(err% x elements).
    size_t elements = 0;
    std::vector<std::string> violations;

    double
    ErrorPct() const
    {
        return elements == 0 ? 0.0
                             : weighted_error /
                                   static_cast<double>(elements);
    }

    size_t
    Failed() const
    {
        size_t n = 0;
        for (const auto& [_, c] : failures)
            n += c;
        return n;
    }
};

/**
 * Check every record of @p log off the timed path: status, exactly
 * count x OutputWidth() finite doubles, and error against this file's
 * own RunExact. Frees the outputs and keeps their digests. Shards are
 * checked in parallel.
 */
void
CheckPhase(const Workload& w, const RequestSource& source,
           size_t out_w, PhaseLog* log, CheckTotals* totals,
           bool count_failures)
{
    struct Part {
        size_t served = 0;
        std::map<std::string, size_t> failures;
        double weighted_error = 0.0;
        size_t elements = 0;
        std::vector<std::string> violations;
    };
    std::vector<Part> parts(log->shards.size());
    std::vector<std::thread> threads;
    for (size_t s = 0; s < log->shards.size(); ++s) {
        threads.emplace_back([&, s] {
            auto app = apps::MakeBenchmark(w.app);
            Part& part = parts[s];
            std::vector<double> inputs, exact(out_w), approx(out_w);
            std::vector<double> errors(source.Count());
            for (Record& r : log->shards[s]) {
                if (const char* failure = FailureClass(r)) {
                    ++part.failures[failure];
                    continue;
                }
                ++part.served;
                if (r.outputs.size() != source.Count() * out_w) {
                    part.violations.push_back(
                        log->name + ": shard " + std::to_string(s) +
                        " request " + std::to_string(r.k) + " returned " +
                        std::to_string(r.outputs.size()) + " doubles");
                    continue;
                }
                source.Fill(s, r.k, &inputs);
                bool finite = true;
                for (size_t j = 0; j < source.Count(); ++j) {
                    app->RunExact(inputs.data() + j * source.Width(),
                                  exact.data());
                    approx.assign(r.outputs.begin() +
                                      static_cast<ptrdiff_t>(j * out_w),
                                  r.outputs.begin() +
                                      static_cast<ptrdiff_t>((j + 1) *
                                                             out_w));
                    for (double v : approx)
                        finite = finite && std::isfinite(v);
                    errors[j] = app->ElementError(exact, approx);
                }
                if (!finite) {
                    part.violations.push_back(
                        log->name + ": shard " + std::to_string(s) +
                        " request " + std::to_string(r.k) +
                        " delivered a non-finite output");
                    continue;
                }
                part.weighted_error +=
                    app->AggregateError(errors) *
                    static_cast<double>(source.Count());
                part.elements += source.Count();
                r.digest = Digest(r.outputs);
                std::vector<double>().swap(r.outputs);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    totals->submitted += log->Attempted();
    for (Part& part : parts) {
        if (count_failures) {
            totals->attempted += part.served;
            totals->served += part.served;
            for (const auto& [cls, n] : part.failures) {
                totals->attempted += n;
                totals->failures[cls] += n;
            }
        }
        totals->weighted_error += part.weighted_error;
        totals->elements += part.elements;
        totals->violations.insert(totals->violations.end(),
                                  part.violations.begin(),
                                  part.violations.end());
    }
}

void
PrintPhase(const PhaseLog& log, const std::string& extra = "")
{
    size_t failed = 0;
    std::string classes;
    for (const auto& [c, n] : log.failures) {
        failed += n;
        classes += " " + c + "=" + std::to_string(n);
    }
    std::printf("# phase %-12s attempted=%zu failed=%zu%s%s\n",
                log.name.c_str(), log.Attempted(), failed,
                classes.c_str(), extra.c_str());
}

// ---------------------------------------------------------------------
// Phase figures
// ---------------------------------------------------------------------

struct ClosedFigures {
    double throughput_eps = 0.0;
    double cpu_ns_per_elem = 0.0;
    double cpu_ns_per_elem_traced = 0.0;  ///< alternate windows only.
    size_t windows = 0;
};

ClosedFigures
ClosedLoopFigures(const PhaseLog& log)
{
    ClosedFigures f;
    std::vector<double> tput, cpu, cpu_traced;
    for (size_t i = 0; i < log.win_elems.size(); ++i) {
        if (log.win_elems[i] <= 0.0)
            continue;
        const double per = log.win_cpu_ns[i] / log.win_elems[i];
        if (log.win_traced[i]) {
            cpu_traced.push_back(per);
            continue;
        }
        tput.push_back(log.win_elems[i] / (log.win_wall_ns[i] * 1e-9));
        cpu.push_back(per);
    }
    f.throughput_eps = Median(tput);
    f.cpu_ns_per_elem = Median(cpu);
    f.cpu_ns_per_elem_traced = Median(cpu_traced);
    f.windows = tput.size();
    return f;
}

struct OpenFigures {
    double p50_ms = NAN, p99_ms = NAN;  ///< NaN: too few samples.
    size_t samples = 0;                 ///< served requests timed.
    double late_p99_us = NAN;
    size_t failed = 0;
    bool backlog_grew = false;
    double drain_ms = 0.0;  ///< last result after the last due send.
};

/** Latency from each request's due time to its result, from the raw
 *  timestamps of the whole phase. A failed request counts as
 *  infinitely late. */
OpenFigures
OpenLoopFigures(const PhaseLog& log, double limit_ms)
{
    OpenFigures f;
    std::vector<double> lat;
    std::vector<uint64_t> sched, sent;
    uint64_t last_ready = 0;
    for (const auto& shard : log.shards) {
        for (const Record& r : shard) {
            if (FailureClass(r) != nullptr) {
                ++f.failed;
                lat.push_back(INFINITY);
            } else {
                lat.push_back(static_cast<double>(r.ready_ns - r.sched_ns) *
                              1e-6);
                ++f.samples;
            }
            sched.push_back(r.sched_ns);
            sent.push_back(r.submit_ns);
            last_ready = std::max(last_ready, r.ready_ns);
        }
    }
    if (auto p50 = Percentile(lat, 50.0))
        f.p50_ms = *p50;
    if (auto p99 = Percentile(lat, 99.0))
        f.p99_ms = *p99;
    if (auto late = Percentile(LatenessUs(sched, sent), 99.0))
        f.late_p99_us = *late;
    f.drain_ms = last_ready > log.last_sched_ns
                     ? static_cast<double>(last_ready - log.last_sched_ns) *
                           1e-6
                     : 0.0;
    f.backlog_grew = f.drain_ms > limit_ms;
    return f;
}

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

struct Deployment {
    core::Artifact artifact;
    std::unique_ptr<serve::ShardedEngine> engine;
    double train_s = 0, artifact_s = 0, create_s = 0, total_s = 0;
};

/** Workload start to engine ready: offline training at the default
 *  PipelineConfig, the artifact round trip, and Create. */
Deployment
Deploy(const Workload& w, const serve::ServeConfig& serve_config)
{
    Deployment d;
    const core::RuntimeConfig config = RuntimeConfigFor(w);
    const uint64_t t0 = NowNs();
    auto trainer = std::make_unique<core::RumbaRuntime>(
        apps::MakeBenchmark(w.app), config);
    const uint64_t t1 = NowNs();
    const std::string blob = trainer->ExportArtifact().ToString();
    core::Result<core::Artifact> parsed =
        core::Artifact::TryFromString(blob);
    const uint64_t t2 = NowNs();
    if (!parsed.ok()) {
        std::fprintf(stderr, "servebench %s: artifact: %s\n", w.name,
                     parsed.status().ToString().c_str());
        std::exit(1);
    }
    d.artifact = *std::move(parsed);
    auto engine = serve::ShardedEngine::Create(d.artifact, config,
                                               serve_config);
    const uint64_t t3 = NowNs();
    if (!engine.ok()) {
        std::fprintf(stderr, "servebench %s: engine: %s\n", w.name,
                     engine.status().ToString().c_str());
        std::exit(1);
    }
    d.engine = std::move(engine).value();
    trainer.reset();
    d.train_s = static_cast<double>(t1 - t0) * 1e-9;
    d.artifact_s = static_cast<double>(t2 - t1) * 1e-9;
    d.create_s = static_cast<double>(t3 - t2) * 1e-9;
    d.total_s = static_cast<double>(t3 - t0) * 1e-9;
    return d;
}

std::unique_ptr<serve::ShardedEngine>
CreateEngine(const Workload& w, const core::Artifact& artifact,
             const serve::ServeConfig& serve_config)
{
    auto engine = serve::ShardedEngine::Create(
        artifact, RuntimeConfigFor(w), serve_config);
    if (!engine.ok()) {
        std::fprintf(stderr, "servebench %s: engine: %s\n", w.name,
                     engine.status().ToString().c_str());
        std::exit(1);
    }
    return std::move(engine).value();
}

/** Modelled whole-application speedup and energy saving:
 *  sum(baseline) / sum(scheme) over every shard's RunSummary. */
std::pair<double, double>
ModelledGains(const serve::ShardedEngine& engine)
{
    double base_ns = 0, base_nj = 0, scheme_ns = 0, scheme_nj = 0;
    for (size_t i = 0; i < engine.Shards(); ++i) {
        const core::RunSummary& s = engine.Runtime(i).Summary();
        base_ns += s.baseline_app_ns;
        base_nj += s.baseline_app_nj;
        scheme_ns += s.scheme_app_ns;
        scheme_nj += s.scheme_app_nj;
    }
    return {scheme_ns > 0 ? base_ns / scheme_ns : 0.0,
            scheme_nj > 0 ? base_nj / scheme_nj : 0.0};
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
Num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
PrintResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                Num(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

bool
ReportCheck(const Workload& w, const CheckTotals& totals,
            size_t submitted_counter, size_t completed_counter,
            size_t completed_mine)
{
    bool ok = true;
    const double bound = kToqTargetPct + serve::ServeConfig().slo.quality_margin_pct;
    std::printf("# check %s: served=%zu failed=%zu error=%.4f%% bound=%.1f%%"
                " engine_submitted=%zu engine_completed=%zu\n",
                w.name, totals.served, totals.Failed(), totals.ErrorPct(),
                bound, submitted_counter, completed_counter);
    for (const std::string& v : totals.violations) {
        std::fprintf(stderr, "servebench %s: output check: %s\n", w.name,
                     v.c_str());
        ok = false;
    }
    if (totals.elements == 0 || !(totals.ErrorPct() <= bound)) {
        std::fprintf(stderr,
                     "servebench %s: output check: error %.4f%% over the"
                     " %.1f%% bound\n",
                     w.name, totals.ErrorPct(), bound);
        ok = false;
    }
    if (submitted_counter != totals.submitted ||
        completed_counter != completed_mine) {
        std::fprintf(stderr,
                     "servebench %s: accounting: submitted %zu,"
                     " engine counted %zu; %zu results seen, engine"
                     " completed %zu\n",
                     w.name, totals.submitted, submitted_counter,
                     completed_mine, completed_counter);
        ok = false;
    }
    return ok;
}

uint64_t
CounterValue(const char* name)
{
    return obs::Registry::Default().GetCounter(name)->Value();
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------

int
RunEndToEnd(const Workload& w, uint64_t seed, double seconds)
{
    const serve::ServeConfig serve_config = ServeConfigFor(w, true);
    const uint64_t submitted0 = CounterValue("serve.submitted");
    const uint64_t completed0 = CounterValue("serve.completed");

    std::vector<double> setups;
    Deployment dep;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        if (dep.engine)
            dep.engine->Shutdown();
        dep = Deploy(w, serve_config);
        setups.push_back(dep.total_s);
    }
    std::string setup_list;
    for (double s : setups)
        setup_list += " " + Num(s);
    std::printf("# setup: repeats=%zu totals_s=[%s ] train_s=%.4f"
                " artifact_s=%.4f create_s=%.4f\n",
                setups.size(), setup_list.c_str(), dep.train_s,
                dep.artifact_s, dep.create_s);

    auto app = apps::MakeBenchmark(w.app);
    const RequestSource source(*app, seed, w.request_elems);
    const size_t out_w = dep.engine->OutputWidth();
    Load load(w, *dep.engine, source);
    CheckTotals totals;
    size_t completed_mine = 0;
    auto finish = [&](PhaseLog& log, bool count) {
        CheckPhase(w, source, out_w, &log, &totals, count);
        completed_mine += log.ok;
    };
    auto check = [&](PhaseLog& log) { finish(log, true); };

    PhaseLog warm = Saturate(load, "warmup", 0.4, false, false, check);
    PrintPhase(warm);

    PhaseLog sat = Saturate(load, "saturation", kSaturationShare * seconds,
                            false, false, check);
    const ClosedFigures closed = ClosedLoopFigures(sat);
    {
        char extra[160];
        std::snprintf(extra, sizeof(extra),
                      " windows=%zu throughput_eps=%.6g cpu_ns_per_elem=%.6g",
                      closed.windows, closed.throughput_eps,
                      closed.cpu_ns_per_elem);
        PrintPhase(sat, extra);
    }

    const double lat_seconds =
        std::max(kLatencyShare * seconds, kStepSamples / w.offered_rps);
    PhaseLog lat = Offer(load, "latency", w.offered_rps, lat_seconds, seed,
                         false, check);
    const OpenFigures open = OpenLoopFigures(lat, w.p99_limit_ms);
    {
        char extra[240];
        std::snprintf(extra, sizeof(extra),
                      " rate=%g samples=%zu p50_ms=%.4f"
                      " p99_ms=%.4f send_late_us_p99=%.2f",
                      w.offered_rps, open.samples,
                      open.p50_ms, open.p99_ms, open.late_p99_us);
        PrintPhase(lat, extra);
    }

    size_t step_index = 0;
    const LadderResult ladder = SearchLadder(
        w.ladder_rps, w.p99_limit_ms, [&](double rate) {
            const double step_s =
                std::max(kMinStepSeconds, kStepSamples / rate);
            PhaseLog step = RunOpenLoop(
                load, "ladder" + std::to_string(step_index), rate,
                step_s, seed * 1000003 + 1000 + step_index, false);
            ++step_index;
            const OpenFigures f = OpenLoopFigures(step, w.p99_limit_ms);
            StepOutcome out;
            out.attempted = step.Attempted();
            out.failed = f.failed;
            out.backlog_grew = f.backlog_grew;
            if (std::isfinite(f.p99_ms))
                out.p99_ms = f.p99_ms;
            const bool pass = out.Passes(w.p99_limit_ms);
            char extra[240];
            std::snprintf(extra, sizeof(extra),
                          " rate=%g seconds=%.2f p99_ms=%.4f drain_ms=%.3f"
                          " send_late_us_p99=%.2f %s",
                          rate, step_s, f.p99_ms, f.drain_ms, f.late_p99_us,
                          pass ? "pass" : "miss");
            PrintPhase(step, extra);
            // A missed step is the search's signal, not a failed
            // operation: its outputs are checked, its refusals are
            // not counted.
            finish(step, pass);
            return out;
        });
    std::printf("# ladder: max_rate_rps=%g limit_p99_ms=%g steps=%zu\n",
                ladder.max_rate_rps, w.p99_limit_ms, ladder.steps.size());

    dep.engine->Drain();
    const auto [speedup, energy] = ModelledGains(*dep.engine);
    dep.engine->Shutdown();
    const bool correct = ReportCheck(
        w, totals, CounterValue("serve.submitted") - submitted0,
        CounterValue("serve.completed") - completed0, completed_mine);

    // Latency percentiles are printed but not gated: across ten seeds
    // on the 4-vCPU guest the p50 of bulk spread 24% (IQR over median)
    // and the p99 up to 3x, tracking the host's speed and the serving
    // path's tail episodes more than the program. max_rate_rps carries
    // the latency limit into the gate.
    std::printf("# latency_p50_ms=%.4f (n=%zu) latency_p99_ms=%.4f (n=%zu,"
                " %zu beyond)\n",
                open.p50_ms, open.samples, open.p99_ms, open.samples,
                open.samples / 100);
    const std::vector<Metric> metrics = {
        {"throughput_eps", closed.throughput_eps, "elem/s"},
        {"max_rate_rps", ladder.max_rate_rps, "req/s"},
        {"cpu_ns_per_elem", closed.cpu_ns_per_elem, "ns"},
        {"output_error_pct", totals.ErrorPct(), "%"},
        {"model_speedup_x", speedup, "x"},
        {"model_energy_x", energy, "x"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    PrintResult(correct, totals.attempted, totals.Failed(), metrics);
    if (!correct)
        std::fprintf(stderr, "servebench %s: output check FAILED\n", w.name);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Traced run: replay each shard's stream layer by layer
// ---------------------------------------------------------------------

/** Stage passes of the replay, in call order. predict.error re-runs
 *  the checker's predictor alone and is a probe, not part of the sum
 *  that must add up to core.invocation. */
enum Stage {
    kNormalize,
    kInvoke,
    kDenormalize,
    kCheck,
    kPredictError,
    kDecide,
    kDrain,
    kVerify,
    kEvaluate,
    kNumStages
};

const char* const kStageNames[kNumStages] = {
    "core.normalize", "npu.invoke",  "core.denormalize",
    "core.check",     "predict.error", "core.decide",
    "core.drain",     "core.verify", "sim.evaluate",
};

/** Span-name table of the written trace. */
enum SpanName : uint32_t {
    kSpanRequest = kNumStages,
    kSpanSubmit,
    kSpanInvocation,
    kSpanExact,
    kNumSpanNames
};

const char*
SpanNameOf(uint32_t id)
{
    switch (id) {
      case kSpanRequest: return "serve.request";
      case kSpanSubmit: return "serve.submit";
      case kSpanInvocation: return "core.invocation";
      case kSpanExact: return "apps.exact";
      default: return kStageNames[id];
    }
}

/** One replayed request of a traced phase. */
struct Replayed {
    size_t shard = 0;
    uint64_t k = 0;
    size_t elements = 0;
    uint64_t request_start = 0, request_end = 0;  ///< serve.request.
    uint64_t submit_end = 0;                      ///< serve.submit end.
    uint64_t inv_start = 0, inv_end = 0;          ///< core.invocation.
    uint64_t stage[kNumStages][2] = {};
    uint64_t exact_start = 0, exact_end = 0;  ///< apps.exact in verify.
    size_t exact_elems = 0;
    uint64_t compensate_ns = 0;  ///< Compensator::Predict calls.
    size_t compensate_calls = 0;
    size_t fired = 0, fixes = 0, verified = 0;
    size_t tier_reexec = 0, tier_comp = 0;  ///< replica's report.

    uint64_t
    StageNs(int s) const
    {
        return stage[s][1] - stage[s][0];
    }
};

/** The layers one shard's replay drives directly, built from the
 *  deployed artifact. */
class LayerKit {
  public:
    LayerKit(const Workload& w, const core::Artifact& artifact)
        : config_(RuntimeConfigFor(w)),
          pipeline_(apps::MakeBenchmark(artifact.benchmark),
                    config_.pipeline, artifact),
          npu_(pipeline_.MakeAccelerator(true)),
          detector_(predict::DeserializePredictor(artifact.predictor),
                    artifact.threshold),
          probe_(predict::DeserializePredictor(artifact.predictor)),
          recovery_(&pipeline_.Bench(), config_.recovery_queue_capacity),
          system_(config_.core, config_.energy),
          kernel_ops_(pipeline_.Bench().ProfileKernel())
    {
        if (!artifact.compensator.empty()) {
            auto comp =
                predict::Compensator::TryDeserialize(artifact.compensator);
            if (!comp.ok()) {
                std::fprintf(stderr, "servebench %s: compensator: %s\n",
                             w.name, comp.status().ToString().c_str());
                std::exit(1);
            }
            compensator_.emplace(*std::move(comp));
            // The runtime's compensate-tier executor, with each
            // Compensator::Predict call timed.
            recovery_.SetCompensator([this](const double* raw_in,
                                            double* raw_out) {
                pipeline_.NormalizeInput(raw_in, &comp_in_);
                pipeline_.NormalizeOutput(raw_out, &comp_out_);
                comp_in_.insert(comp_in_.end(), comp_out_.begin(),
                                comp_out_.end());
                const uint64_t t0 = NowNs();
                const bool ok = compensator_->Predict(comp_in_, &comp_pred_);
                compensate_ns_ += NowNs() - t0;
                ++compensate_calls_;
                if (!ok)
                    return false;
                for (size_t o = 0; o < comp_pred_.size(); ++o)
                    comp_pred_[o] += comp_out_[o];
                pipeline_.DenormalizeOutput(comp_pred_, &comp_out_);
                for (double v : comp_out_)
                    if (!std::isfinite(v))
                        return false;
                std::copy(comp_out_.begin(), comp_out_.end(), raw_out);
                return true;
            });
        }
    }

    const npu::Npu& Accel() const { return npu_; }

    /** Replay one batch stage by stage at @p threshold, tiering with
     *  the replica's @p policy. */
    void
    Stages(const core::BatchView& in, double threshold,
           const core::RecoveryPolicy& policy, Replayed* rec)
    {
        const apps::Benchmark& app = pipeline_.Bench();
        const size_t n = in.count();
        const size_t out_w = app.NumOutputs();
        norm_in_.resize(n);
        norm_out_.resize(n);
        raw_out_.resize(n);
        checks_.resize(n);
        outputs_.resize(n * out_w);
        auto mark = [&](Stage s, uint64_t start) {
            rec->stage[s][0] = start;
            rec->stage[s][1] = NowNs();
            return rec->stage[s][1];
        };

        uint64_t t = NowNs();
        for (size_t i = 0; i < n; ++i)
            pipeline_.NormalizeInput(in[i].data(), &norm_in_[i]);
        t = mark(kNormalize, t);
        for (size_t i = 0; i < n; ++i)
            npu_.Invoke(norm_in_[i], &norm_out_[i]);
        t = mark(kInvoke, t);
        for (size_t i = 0; i < n; ++i) {
            pipeline_.DenormalizeOutput(norm_out_[i], &raw_out_[i]);
            std::copy(raw_out_[i].begin(), raw_out_[i].end(),
                      outputs_.begin() + static_cast<ptrdiff_t>(i * out_w));
        }
        t = mark(kDenormalize, t);
        detector_.SetThreshold(threshold);
        detector_.Reset();
        for (size_t i = 0; i < n; ++i)
            checks_[i] = detector_.Check(norm_in_[i], raw_out_[i]);
        t = mark(kCheck, t);
        for (size_t i = 0; i < n; ++i)
            probe_->PredictError(norm_in_[i], raw_out_[i]);
        t = mark(kPredictError, t);
        decisions_.clear();
        for (size_t i = 0; i < n; ++i) {
            if (checks_[i].fired)
                decisions_.push_back(policy.Decide(
                    i, checks_[i].predicted_error, checks_[i].non_finite,
                    threshold));
        }
        rec->fired = decisions_.size();
        t = mark(kDecide, t);
        fixed_.assign(n, core::kFixedNone);
        compensate_ns_ = 0;
        compensate_calls_ = 0;
        core::RecoveryQueue& queue = recovery_.Queue();
        for (const core::RecoveryDecision& d : decisions_) {
            if (queue.Full())
                recovery_.Drain(in, outputs_.data(), out_w, &fixed_);
            if (!queue.Push(d))
                recovery_.RecordQueueDrop();
        }
        recovery_.Drain(in, outputs_.data(), out_w, &fixed_);
        rec->compensate_ns = compensate_ns_;
        rec->compensate_calls = compensate_calls_;
        size_t reexec = 0;
        for (char f : fixed_) {
            reexec += f == core::kFixedExact ? 1 : 0;
            rec->fixes += f != core::kFixedNone ? 1 : 0;
        }
        t = mark(kDrain, t);
        exact_.resize(n * out_w);
        rec->exact_start = t;
        for (size_t i = 0; i < n; ++i) {
            if (fixed_[i] != core::kFixedExact)
                app.RunExact(in[i].data(), exact_.data() + i * out_w);
        }
        rec->exact_end = NowNs();
        for (size_t i = 0; i < n; ++i) {
            if (fixed_[i] == core::kFixedExact)
                continue;
            ++rec->verified;
            exact_row_.assign(exact_.begin() + static_cast<ptrdiff_t>(i * out_w),
                              exact_.begin() +
                                  static_cast<ptrdiff_t>((i + 1) * out_w));
            approx_row_.assign(
                outputs_.begin() + static_cast<ptrdiff_t>(i * out_w),
                outputs_.begin() + static_cast<ptrdiff_t>((i + 1) * out_w));
            app.ElementError(exact_row_, approx_row_);
        }
        rec->exact_elems = rec->verified;
        t = mark(kVerify, t);
        sim::RegionProfile region;
        region.cpu_ops_per_iter = kernel_ops_;
        region.iterations = n;
        region.region_fraction = app.RegionFraction();
        sim::AcceleratorProfile accel;
        accel.cycles_per_invocation = npu_.CyclesPerInvocation();
        accel.frequency_ghz = config_.pipeline.npu.frequency_ghz;
        accel.macs_per_invocation = static_cast<double>(
            pipeline_.RumbaMlp().GetTopology().MacsPerInvocation());
        accel.luts_per_invocation = static_cast<double>(
            pipeline_.RumbaMlp().GetTopology().NumNeurons());
        accel.queue_words_per_invocation =
            static_cast<double>(app.NumInputs() + app.NumOutputs()) + 1.0;
        const sim::CheckerCost checker = detector_.CostPerCheck();
        system_.Evaluate(region, accel, &checker, reexec);
        mark(kEvaluate, t);
    }

  private:
    core::RuntimeConfig config_;
    core::Pipeline pipeline_;
    npu::Npu npu_;
    core::Detector detector_;
    std::unique_ptr<predict::ErrorPredictor> probe_;
    core::RecoveryModule recovery_;
    std::optional<predict::Compensator> compensator_;
    sim::SystemModel system_;
    sim::OpCounts kernel_ops_;
    std::vector<std::vector<double>> norm_in_, norm_out_, raw_out_;
    std::vector<core::CheckResult> checks_;
    std::vector<core::RecoveryDecision> decisions_;
    std::vector<char> fixed_;
    std::vector<double> outputs_, exact_, exact_row_, approx_row_;
    std::vector<double> comp_in_, comp_out_, comp_pred_;
    uint64_t compensate_ns_ = 0;
    size_t compensate_calls_ = 0;
};

/** Everything one shard's replay produced. */
struct ShardReplay {
    std::vector<Replayed> traced;
    size_t replayed = 0;
    size_t matched = 0;  ///< outputs bit-identical to the served ones.
    size_t compared = 0;
    double macs_per_elem = 0.0;
};

/**
 * Replay shard @p shard's whole served stream, in order, on a replica
 * built from the artifact so it walks the served shard's thresholds;
 * requests of @p traced_phase also get a core.invocation span and a
 * stage-by-stage pass.
 */
void
ReplayShard(const Workload& w, const core::Artifact& artifact,
            const serve::ServeConfig& serve_config,
            const RequestSource& source, size_t shard,
            const std::vector<const PhaseLog*>& phases,
            const PhaseLog* traced_phase, ShardReplay* out)
{
    core::RuntimeConfig config = RuntimeConfigFor(w);
    config.stage_timings = serve_config.trace.enabled;
    config.cpu_attribution = serve_config.profile.enabled;
    auto replica = core::RumbaRuntime::FromArtifact(artifact, config);
    if (!replica.ok()) {
        std::fprintf(stderr, "servebench %s: replica: %s\n", w.name,
                     replica.status().ToString().c_str());
        std::exit(1);
    }
    LayerKit kit(w, artifact);
    core::AuditCapture capture;
    std::vector<double> inputs;
    std::vector<double> outputs(source.Count() * kit.Accel().NumOutputs());
    for (const PhaseLog* phase : phases) {
        std::vector<const Record*> records;
        for (const Record& r : phase->shards[shard])
            records.push_back(&r);
        std::sort(records.begin(), records.end(),
                  [](const Record* a, const Record* b) { return a->k < b->k; });
        for (const Record* r : records) {
            if (r->code != core::StatusCode::kOk)
                continue;  // never reached the runtime.
            source.Fill(shard, r->k, &inputs);
            const core::BatchView view(inputs.data(), source.Count(),
                                       source.Width());
            const double threshold = (*replica)->Threshold();
            const bool traced = phase == traced_phase;
            Replayed rec;
            rec.inv_start = NowNs();
            const core::InvocationReport report =
                (*replica)->ProcessInvocation(view, outputs.data(), &capture);
            rec.inv_end = NowNs();
            ++out->replayed;
            if (!r->degraded) {
                ++out->compared;
                out->matched += Digest(outputs) == r->digest ? 1 : 0;
            }
            if (!traced)
                continue;
            rec.shard = shard;
            rec.k = r->k;
            rec.elements = source.Count();
            rec.request_start = r->submit_ns;
            rec.request_end = r->ready_ns;
            rec.submit_end = r->submitted_ns;
            rec.tier_reexec = report.tier_reexecuted;
            rec.tier_comp = report.tier_compensated;
            kit.Stages(view, threshold, (*replica)->Policy(), &rec);
            out->traced.push_back(rec);
        }
    }
    const npu::NpuStats& stats = kit.Accel().Stats();
    out->macs_per_elem =
        stats.invocations == 0
            ? 0.0
            : static_cast<double>(stats.macs) /
                  static_cast<double>(stats.invocations);
}

/** Per-request numerator/denominator columns, pooled over shards. */
struct Column {
    std::vector<double> num, den;

    void
    Add(double n, double d)
    {
        num.push_back(n);
        den.push_back(d);
    }

    double
    Median(double min_den) const
    {
        return WindowedRatioMedian(num, den, min_den);
    }

    double
    Total() const
    {
        double n = 0, d = 0;
        for (size_t i = 0; i < num.size(); ++i) {
            n += num[i];
            d += den[i];
        }
        return d > 0 ? n / d : 0.0;
    }
};

/** Window sizes for the per-layer medians. */
constexpr double kElemWindow = 8192;   ///< elements per window.
constexpr double kEventWindow = 2048;  ///< fires / fixes per window.
constexpr double kRequestWindow = 256;  ///< requests per window.

/** Write spans of the first @p per_shard traced requests of each
 *  shard as TSV (name, shard, request, parent, start, end, self). */
void
WriteSpans(const std::string& path, const std::vector<ShardReplay>& shards,
           size_t per_shard)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "servebench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    out << "name\tshard\trequest\tparent\tstart_ns\tend_ns\tself_ns\n";
    for (const ShardReplay& shard : shards) {
        for (size_t i = 0; i < shard.traced.size() && i < per_shard; ++i) {
            const Replayed& r = shard.traced[i];
            std::vector<Span> spans;
            spans.push_back({kSpanRequest, -1, r.k, r.request_start,
                             r.request_end});
            spans.push_back({kSpanSubmit, 0, r.k, r.request_start,
                             r.submit_end});
            spans.push_back({kSpanInvocation, -1, r.k, r.inv_start,
                             r.inv_end});
            for (int s = 0; s < kNumStages; ++s)
                spans.push_back({static_cast<uint32_t>(s), -1, r.k,
                                 r.stage[s][0], r.stage[s][1]});
            spans.push_back({kSpanExact, static_cast<int32_t>(3 + kVerify),
                             r.k, r.exact_start, r.exact_end});
            const std::vector<uint64_t> self = SelfTimes(spans);
            for (size_t j = 0; j < spans.size(); ++j) {
                out << SpanNameOf(spans[j].name) << '\t' << r.shard << '\t'
                    << r.k << '\t' << spans[j].parent << '\t'
                    << spans[j].start_ns << '\t' << spans[j].end_ns << '\t'
                    << self[j] << '\n';
            }
        }
    }
}

int
RunTraced(const Workload& w, uint64_t seed, double seconds,
          const std::string& spans_path)
{
    const serve::ServeConfig serve_config = ServeConfigFor(w, true);
    const uint64_t submitted0 = CounterValue("serve.submitted");
    const uint64_t completed0 = CounterValue("serve.completed");

    Deployment dep = Deploy(w, serve_config);
    auto app = apps::MakeBenchmark(w.app);
    const RequestSource source(*app, seed, w.request_elems);
    const size_t out_w = dep.engine->OutputWidth();
    CheckTotals totals;
    size_t completed_mine = 0;

    // Default config: warm-up, saturation with every other window
    // traced (the trace overhead), then the open-loop phase with every
    // request traced (the ledger). Records stay for the replay.
    auto check = [&](PhaseLog& log) {
        CheckPhase(w, source, out_w, &log, &totals, true);
        completed_mine += log.ok;
    };
    Load load(w, *dep.engine, source);
    PhaseLog warm = Saturate(load, "warmup", 0.4, false, true, check);
    PhaseLog sat = Saturate(load, "saturation", kSaturationShare * seconds,
                            true, true, check);
    const ClosedFigures closed = ClosedLoopFigures(sat);
    const double lat_seconds =
        std::max(kLatencyShare * seconds, kStepSamples / w.offered_rps);
    PhaseLog lat = Offer(load, "latency", w.offered_rps, lat_seconds, seed,
                         true, check);
    const OpenFigures open = OpenLoopFigures(lat, w.p99_limit_ms);
    dep.engine->Drain();
    double audit_frac = 0.0;
    if (obs::QualityAuditor* auditor = dep.engine->Auditor()) {
        auditor->Flush();
        audit_frac =
            static_cast<double>(auditor->Stats().audited) /
            static_cast<double>(std::max<size_t>(1, warm.ok + sat.ok + lat.ok));
    }
    dep.engine->Shutdown();
    for (const PhaseLog* log : {&warm, &sat, &lat})
        PrintPhase(*log);

    // Every obs feature off: the instrumentation tax.
    ClosedFigures off;
    {
        auto engine = CreateEngine(w, dep.artifact, ServeConfigFor(w, false));
        Load off_load(w, *engine, source);
        PhaseLog off_warm =
            Saturate(off_load, "obs_off_warm", 0.4, false, false, check);
        PhaseLog off_sat = Saturate(off_load, "obs_off_sat",
                                    kSaturationShare * seconds, false, false,
                                    check);
        engine->Shutdown();
        off = ClosedLoopFigures(off_sat);
        PrintPhase(off_warm);
        PrintPhase(off_sat);
    }

    // Replay, one thread per shard.
    std::vector<ShardReplay> replays(w.shards);
    {
        const std::vector<const PhaseLog*> phases = {&warm, &sat, &lat};
        std::vector<std::thread> threads;
        for (size_t s = 0; s < w.shards; ++s)
            threads.emplace_back(ReplayShard, std::cref(w),
                                 std::cref(dep.artifact),
                                 std::cref(serve_config), std::cref(source),
                                 s, std::cref(phases), &lat, &replays[s]);
        for (auto& t : threads)
            t.join();
    }

    Column inv, stage[kNumStages], unattributed, exact, compensate,
        decide, drain, verify, fire, reexec, comp_frac, hop, submit,
        request, evaluate;
    size_t replayed = 0, matched = 0, compared = 0;
    for (const ShardReplay& shard : replays) {
        replayed += shard.replayed;
        matched += shard.matched;
        compared += shard.compared;
        for (const Replayed& r : shard.traced) {
            const double n = static_cast<double>(r.elements);
            const double inv_ns = static_cast<double>(r.inv_end - r.inv_start);
            inv.Add(inv_ns, n);
            double sum = 0.0;
            for (int s = 0; s < kNumStages; ++s) {
                const double ns = static_cast<double>(r.StageNs(s));
                stage[s].Add(ns, n);
                if (s != kPredictError)
                    sum += ns;
            }
            unattributed.Add(inv_ns - sum, n);
            exact.Add(static_cast<double>(r.exact_end - r.exact_start),
                      static_cast<double>(r.exact_elems));
            compensate.Add(static_cast<double>(r.compensate_ns),
                           static_cast<double>(r.compensate_calls));
            decide.Add(static_cast<double>(r.StageNs(kDecide)),
                       static_cast<double>(r.fired));
            drain.Add(static_cast<double>(r.StageNs(kDrain)),
                      static_cast<double>(r.fixes));
            verify.Add(static_cast<double>(r.StageNs(kVerify)),
                       static_cast<double>(r.verified));
            fire.Add(static_cast<double>(r.fired), n);
            reexec.Add(static_cast<double>(r.tier_reexec), n);
            comp_frac.Add(static_cast<double>(r.tier_comp), n);
            evaluate.Add(static_cast<double>(r.StageNs(kEvaluate)), 1.0);
            const double req_ns =
                static_cast<double>(r.request_end - r.request_start);
            request.Add(req_ns, 1.0);
            hop.Add(req_ns - inv_ns, 1.0);
            submit.Add(static_cast<double>(r.submit_end - r.request_start),
                       1.0);
        }
    }
    if (!spans_path.empty())
        WriteSpans(spans_path, replays, 4096);

    const bool correct = ReportCheck(
        w, totals, CounterValue("serve.submitted") - submitted0,
        CounterValue("serve.completed") - completed0, completed_mine);

    const double inv_ns = inv.Median(kElemWindow);
    const double trace_overhead_pct =
        100.0 * (closed.cpu_ns_per_elem_traced - closed.cpu_ns_per_elem) /
        closed.cpu_ns_per_elem;
    const double obs_tax_pct =
        100.0 * (closed.cpu_ns_per_elem - off.cpu_ns_per_elem) /
        off.cpu_ns_per_elem;
    // 0 where the event never happened (no compensate tier on bulk).
    auto per_event = [](const Column& c) {
        return c.Total() == 0.0 ? 0.0 : c.Median(kEventWindow);
    };
    std::vector<Metric> metrics = {
        {"serve.submit_us", submit.Median(kRequestWindow) * 1e-3, "us"},
        {"serve.hop_us", hop.Median(kRequestWindow) * 1e-3, "us"},
        {"serve.create_ms", dep.create_s * 1e3, "ms"},
        {"core.train_s", dep.train_s, "s"},
        {"core.artifact_ms", dep.artifact_s * 1e3, "ms"},
        {"core.invocation_ns_per_elem", inv_ns, "ns"},
        {"core.normalize_ns_per_elem", stage[kNormalize].Median(kElemWindow),
         "ns"},
        {"core.denormalize_ns_per_elem",
         stage[kDenormalize].Median(kElemWindow), "ns"},
        {"core.check_ns_per_elem", stage[kCheck].Median(kElemWindow), "ns"},
        {"core.decide_ns_per_fire", per_event(decide), "ns"},
        {"core.drain_ns_per_fix", per_event(drain), "ns"},
        {"core.verify_ns_per_elem", verify.Median(kElemWindow), "ns"},
        {"core.unattributed_ns_per_elem", unattributed.Median(kElemWindow),
         "ns"},
        {"core.fire_frac", fire.Total(), "count"},
        {"core.reexec_frac", reexec.Total(), "count"},
        {"core.compensate_frac", comp_frac.Total(), "count"},
        {"npu.invoke_ns_per_elem", stage[kInvoke].Median(kElemWindow), "ns"},
        {"npu.macs_per_elem", replays.front().macs_per_elem, "count"},
        {"predict.error_ns_per_elem",
         stage[kPredictError].Median(kElemWindow), "ns"},
        {"predict.compensate_ns_per_fix", per_event(compensate), "ns"},
        {"apps.exact_ns_per_elem", exact.Median(kElemWindow), "ns"},
        {"sim.evaluate_us_per_inv", evaluate.Median(kRequestWindow) * 1e-3,
         "us"},
        {"obs.tax_pct", obs_tax_pct, "%"},
        {"obs.audit_frac", audit_frac, "count"},
        {"bench.trace_overhead_pct", trace_overhead_pct, "%"},
        {"bench.send_late_us_p99", open.late_p99_us, "us"},
    };

    // Reconciliation: does the ledger add up?
    double stage_sum = 0.0;
    std::printf("# ledger %s (ns/elem, medians over %g-element windows of"
                " the open-loop phase, %zu requests replayed, %zu traced)\n",
                w.name, kElemWindow, replayed, inv.num.size());
    for (int s = 0; s < kNumStages; ++s) {
        const double v = stage[s].Median(kElemWindow);
        if (s != kPredictError)
            stage_sum += v;
        std::printf("#   %-22s %12.2f%s\n", kStageNames[s], v,
                    s == kPredictError ? "  (probe: not in the sum)" : "");
    }
    std::printf("#   %-22s %12.2f\n", "sum of stage passes", stage_sum);
    std::printf("#   %-22s %12.2f\n", "core.invocation", inv_ns);
    std::printf("#   %-22s %12.2f (%+.1f%% of core.invocation; totals:"
                " %+.2f)\n",
                "signed leftover", inv_ns - stage_sum,
                100.0 * (inv_ns - stage_sum) / inv_ns,
                inv.Total() - [&] {
                    double t = 0;
                    for (int s = 0; s < kNumStages; ++s)
                        if (s != kPredictError)
                            t += stage[s].Total();
                    return t;
                }());
    std::printf("# hop: serve.hop_us=%.3f serve.request_us=%.3f"
                " core.invocation_us=%.3f latency_p50_ms=%.4f (n=%zu)"
                " latency_p99_ms=%.4f\n",
                hop.Median(kRequestWindow) * 1e-3,
                request.Median(kRequestWindow) * 1e-3,
                inv_ns * static_cast<double>(w.request_elems) * 1e-3,
                open.p50_ms, open.samples, open.p99_ms);
    std::printf("# overhead: bench.trace_overhead_pct=%.3f (traced %.2f vs"
                " untraced %.2f cpu ns/elem) obs.tax_pct=%.3f (obs off %.2f)\n",
                trace_overhead_pct, closed.cpu_ns_per_elem_traced,
                closed.cpu_ns_per_elem, obs_tax_pct, off.cpu_ns_per_elem);
    std::printf("# replay: %zu/%zu served outputs bit-identical on the"
                " replica\n",
                matched, compared);
    PrintResult(correct, totals.attempted, totals.Failed(), metrics);
    if (!correct)
        std::fprintf(stderr, "servebench %s: output check FAILED\n", w.name);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Run guard
// ---------------------------------------------------------------------

/** Refuse to measure anything but the default program. */
bool
GuardOk()
{
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "RUMBA_", 6) == 0) {
            const char* eq = std::strchr(*env, '=');
            const std::string name =
                eq ? std::string(*env, static_cast<size_t>(eq - *env))
                   : std::string(*env);
            std::fprintf(stderr,
                         "servebench: refusing to run: %s is set (every"
                         " RUMBA_* override changes the measured program)\n",
                         name.c_str());
            return false;
        }
    }
    const obs::RunMetadata meta = obs::CollectRunMetadata();
    bool sanitized = !meta.sanitizers.empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
    if (sanitized) {
        std::fprintf(stderr,
                     "servebench: refusing to run: RUMBA_SANITIZE build"
                     " (%s)\n",
                     meta.sanitizers.empty() ? "sanitizer flags"
                                             : meta.sanitizers.c_str());
        return false;
    }
    return true;
}

int
Usage()
{
    std::fprintf(stderr,
                 "usage: servebench --workload bulk|offload --seed N"
                 " --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
}

int
Main(int argc, char** argv)
{
    std::string workload, spans;
    long long seed = -1, seconds = -1, trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            workload = value;
            continue;
        }
        if (flag == "--spans") {
            spans = value;
            continue;
        }
        const long long v = std::strtoll(value, &end, 10);
        if (end == value || *end != '\0' || v < 0)
            return Usage();
        if (flag == "--seed")
            seed = v;
        else if (flag == "--seconds")
            seconds = v;
        else if (flag == "--trace")
            trace = v;
        else
            return Usage();
    }
    if (argc % 2 != 1 || workload.empty() || seed < 0 || seconds < 1 ||
        (trace != 0 && trace != 1))
        return Usage();
    const Workload* w = nullptr;
    for (const Workload& candidate : kWorkloads)
        if (workload == candidate.name)
            w = &candidate;
    if (w == nullptr) {
        std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (!GuardOk())
        return 3;
    const obs::RunMetadata meta = obs::CollectRunMetadata();
    std::printf("# servebench workload=%s seed=%lld seconds=%lld trace=%lld"
                " git=%s build=%s sanitizers=%s nproc=%ld\n",
                w->name, seed, seconds, trace, meta.git_describe.c_str(),
                meta.build_type.c_str(),
                meta.sanitizers.empty() ? "none" : meta.sanitizers.c_str(),
                sysconf(_SC_NPROCESSORS_ONLN));
    const uint64_t s = static_cast<uint64_t>(seed);
    const double secs = static_cast<double>(seconds);
    return trace == 1 ? RunTraced(*w, s, secs, spans)
                      : RunEndToEnd(*w, s, secs);
}

}  // namespace
}  // namespace servebench

int
main(int argc, char** argv)
{
    return servebench::Main(argc, argv);
}
