// Tests for the fault-injection harness (src/fault) and the graceful
// degradation it exercises: plan parsing and replay, the deterministic
// injector, blob-corruption helpers, the circuit-breaker state
// machine, NPU-level injection sites, and the runtime surviving fault
// storms end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/batch_view.h"
#include "core/breaker.h"
#include "core/runtime.h"
#include "digest.h"
#include "fault/corrupt.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "nn/mlp.h"
#include "npu/npu.h"
#include "obs/metrics.h"

namespace rumba {
namespace {

/** Disarm the process-wide injector when a test scope ends, so an
 *  armed plan never leaks into later tests. */
struct ArmGuard {
    ~ArmGuard() { fault::FaultInjector::Default().Disarm(); }
};

fault::FaultPlan
MustParse(const std::string& spec)
{
    fault::FaultPlan plan;
    std::string error;
    EXPECT_TRUE(fault::FaultPlan::Parse(spec, &plan, &error)) << error;
    return plan;
}

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlanTest, ParsesSpecWithSeedRatesAndParams)
{
    const fault::FaultPlan plan = MustParse(
        "seed=42;npu.output_nan=0.01;npu.bitflip=0.002;"
        "npu.output_stuck=0.5:1.25;queue.stall=1");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.rules.size(), 4u);
    EXPECT_FALSE(plan.Empty());

    double stuck_param = 0.0;
    for (const fault::FaultRule& rule : plan.rules)
        if (rule.fault == fault::FaultClass::kNpuOutputStuck)
            stuck_param = rule.param;
    EXPECT_DOUBLE_EQ(stuck_param, 1.25);
}

TEST(FaultPlanTest, SpecRoundTrips)
{
    const fault::FaultPlan plan =
        MustParse("seed=7;npu.output_nan=0.02;checker.mispredict=0.1");
    const fault::FaultPlan replay = MustParse(plan.ToSpec());
    EXPECT_EQ(replay.seed, plan.seed);
    ASSERT_EQ(replay.rules.size(), plan.rules.size());
    for (size_t i = 0; i < plan.rules.size(); ++i) {
        EXPECT_EQ(replay.rules[i].fault, plan.rules[i].fault);
        EXPECT_DOUBLE_EQ(replay.rules[i].rate, plan.rules[i].rate);
    }
    // Seeds past 2^53 keep every bit (they are not read as doubles).
    for (const uint64_t seed :
         {9007199254740993ull, 18446744073709551615ull}) {
        const fault::FaultPlan big =
            MustParse("seed=" + std::to_string(seed));
        EXPECT_EQ(big.seed, seed);
        EXPECT_EQ(MustParse(big.ToSpec()).seed, seed);
    }
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    fault::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(
        fault::FaultPlan::Parse("martian.fault=0.1", &plan, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        fault::FaultPlan::Parse("npu.output_nan=1.5", &plan, &error));
    EXPECT_FALSE(
        fault::FaultPlan::Parse("npu.output_nan=-0.1", &plan, &error));
    EXPECT_FALSE(
        fault::FaultPlan::Parse("npu.output_nan", &plan, &error));
    EXPECT_FALSE(fault::FaultPlan::Parse("seed=abc", &plan, &error));
    // Rates and params are finite; a seed is plain decimal digits
    // that fit uint64_t (nan, inf and 1e30 used to cast out of range).
    for (const char* spec :
         {"npu.output_nan=nan", "npu.output_stuck=0.1:nan",
          "npu.output_stuck=0.1:inf", "seed=nan", "seed=inf",
          "seed=1e30", "seed=-1", "seed=1.5", "seed= 1", "seed=+1",
          "seed=18446744073709551616"})
        EXPECT_FALSE(fault::FaultPlan::Parse(spec, &plan, &error))
            << spec;
    // A null error pointer is allowed.
    EXPECT_FALSE(fault::FaultPlan::Parse("junk", &plan, nullptr));
}

TEST(FaultPlanTest, EmptySpecParsesToEmptyPlan)
{
    const fault::FaultPlan plan = MustParse("");
    EXPECT_TRUE(plan.Empty());
    EXPECT_TRUE(plan.rules.empty());
}

// -------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, DisarmedInjectsNothing)
{
    fault::FaultInjector injector;
    EXPECT_FALSE(injector.Armed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(
            injector.ShouldInject(fault::FaultClass::kNpuOutputNan));
    EXPECT_EQ(injector.TotalInjections(), 0u);
}

TEST(FaultInjectorTest, RateOneFiresEveryOpportunity)
{
    fault::FaultInjector injector;
    injector.Arm(MustParse("seed=5;queue.stall=1"));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(
            injector.ShouldInject(fault::FaultClass::kQueueStall));
    EXPECT_EQ(injector.Injections(fault::FaultClass::kQueueStall), 50u);
    // A class the plan does not name never fires.
    EXPECT_FALSE(injector.Enabled(fault::FaultClass::kNpuBitFlip));
    EXPECT_FALSE(
        injector.ShouldInject(fault::FaultClass::kNpuBitFlip));
}

TEST(FaultInjectorTest, SamePlanReplaysIdenticalDecisions)
{
    const fault::FaultPlan plan =
        MustParse("seed=11;npu.output_nan=0.3;npu.bitflip=0.2");
    fault::FaultInjector a, b;
    a.Arm(plan);
    b.Arm(plan);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.ShouldInject(fault::FaultClass::kNpuOutputNan),
                  b.ShouldInject(fault::FaultClass::kNpuOutputNan));
        EXPECT_EQ(a.Draw(fault::FaultClass::kNpuBitFlip),
                  b.Draw(fault::FaultClass::kNpuBitFlip));
    }
    // Re-arming resets the streams to the top of the schedule.
    const uint64_t first = [&] {
        fault::FaultInjector c;
        c.Arm(plan);
        return c.Draw(fault::FaultClass::kNpuBitFlip);
    }();
    b.Arm(plan);
    EXPECT_EQ(b.Draw(fault::FaultClass::kNpuBitFlip), first);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge)
{
    fault::FaultInjector a, b;
    a.Arm(MustParse("seed=1;npu.bitflip=0.5"));
    b.Arm(MustParse("seed=2;npu.bitflip=0.5"));
    size_t disagreements = 0;
    for (int i = 0; i < 200; ++i)
        disagreements +=
            a.ShouldInject(fault::FaultClass::kNpuBitFlip) !=
            b.ShouldInject(fault::FaultClass::kNpuBitFlip);
    EXPECT_GT(disagreements, 0u);
}

TEST(FaultInjectorTest, ApproximatesTheArmedRate)
{
    fault::FaultInjector injector;
    injector.Arm(MustParse("seed=17;npu.output_nan=0.1"));
    const int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i)
        (void)injector.ShouldInject(fault::FaultClass::kNpuOutputNan);
    const double observed =
        static_cast<double>(
            injector.Injections(fault::FaultClass::kNpuOutputNan)) /
        kTrials;
    EXPECT_NEAR(observed, 0.1, 0.02);
}

TEST(FaultInjectorTest, InjectionsCountedInRegistry)
{
    ArmGuard guard;
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    obs::Counter* counter = obs::Registry::Default().GetCounter(
        "fault.injected.queue.stall");
    const uint64_t before = counter->Value();
    injector.Arm(MustParse("seed=3;queue.stall=1"));
    for (int i = 0; i < 10; ++i)
        (void)injector.ShouldInject(fault::FaultClass::kQueueStall);
    EXPECT_EQ(counter->Value(), before + 10);
}

// ------------------------------------------------------- blob corruption

TEST(CorruptTest, TruncateKeepsLeadingFraction)
{
    std::string blob(1000, 'x');
    const size_t removed = fault::TruncateBlob(&blob, 0.25);
    EXPECT_EQ(removed, 750u);
    EXPECT_EQ(blob.size(), 250u);
    // Clamped edges.
    std::string all(100, 'y');
    EXPECT_EQ(fault::TruncateBlob(&all, 2.0), 0u);
    EXPECT_EQ(all.size(), 100u);
    EXPECT_EQ(fault::TruncateBlob(&all, -1.0), 100u);
    EXPECT_TRUE(all.empty());
}

TEST(CorruptTest, BitrotIsSeededAndDeterministic)
{
    const std::string original(2000, 'a');
    std::string first = original;
    std::string second = original;
    const size_t flipped_first = fault::BitrotBlob(&first, 0.05, 42);
    const size_t flipped_second = fault::BitrotBlob(&second, 0.05, 42);
    EXPECT_GT(flipped_first, 0u);
    EXPECT_EQ(flipped_first, flipped_second);
    EXPECT_EQ(first, second);       // same seed, same damage.
    EXPECT_NE(first, original);

    std::string other = original;
    fault::BitrotBlob(&other, 0.05, 43);
    EXPECT_NE(other, first);        // different seed, different damage.
}

// -------------------------------------------------------- CircuitBreaker

core::BreakerHealth
HealthyRound()
{
    core::BreakerHealth h;
    h.approx_elements = 100;
    h.fires = 5;
    h.output_error_pct = 2.0;
    h.target_error_pct = 10.0;
    return h;
}

core::BreakerHealth
NanRound()
{
    core::BreakerHealth h = HealthyRound();
    h.non_finite = 3;
    return h;
}

TEST(BreakerTest, TripsOnlyAfterConsecutiveUnhealthyRounds)
{
    core::BreakerConfig cfg;
    cfg.trip_after = 3;
    core::CircuitBreaker breaker(cfg);
    breaker.OnInvocation(NanRound());
    breaker.OnInvocation(NanRound());
    EXPECT_EQ(breaker.State(), core::BreakerState::kClosed);
    breaker.OnInvocation(HealthyRound());  // streak broken.
    breaker.OnInvocation(NanRound());
    breaker.OnInvocation(NanRound());
    EXPECT_EQ(breaker.State(), core::BreakerState::kClosed);
    breaker.OnInvocation(NanRound());
    EXPECT_EQ(breaker.State(), core::BreakerState::kOpen);
    EXPECT_EQ(breaker.Trips(), 1u);
}

TEST(BreakerTest, FullCycleClosedOpenHalfOpenClosed)
{
    core::BreakerConfig cfg;
    cfg.trip_after = 2;
    cfg.open_invocations = 2;
    cfg.close_after = 2;
    core::CircuitBreaker breaker(cfg);

    breaker.OnInvocation(NanRound());
    breaker.OnInvocation(NanRound());
    ASSERT_EQ(breaker.State(), core::BreakerState::kOpen);
    EXPECT_EQ(breaker.ApproxBudget(250), 0u);

    core::BreakerHealth idle;  // nothing rides while open.
    breaker.OnInvocation(idle);
    EXPECT_EQ(breaker.State(), core::BreakerState::kOpen);
    breaker.OnInvocation(idle);
    ASSERT_EQ(breaker.State(), core::BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.ApproxBudget(250), core::CircuitBreaker::kCanaryElements);

    core::BreakerHealth canary = HealthyRound();
    canary.approx_elements = core::CircuitBreaker::kCanaryElements;
    canary.fires = 1;
    breaker.OnInvocation(canary);
    EXPECT_EQ(breaker.State(), core::BreakerState::kHalfOpen);
    breaker.OnInvocation(canary);
    EXPECT_EQ(breaker.State(), core::BreakerState::kClosed);
    EXPECT_EQ(breaker.Closes(), 1u);
    EXPECT_EQ(breaker.Probes(), 2u);
    EXPECT_EQ(breaker.ApproxBudget(250), 250u);
}

TEST(BreakerTest, DirtyProbeReopens)
{
    core::BreakerConfig cfg;
    cfg.trip_after = 1;
    cfg.open_invocations = 1;
    core::CircuitBreaker breaker(cfg);
    breaker.OnInvocation(NanRound());
    ASSERT_EQ(breaker.State(), core::BreakerState::kOpen);
    breaker.OnInvocation(core::BreakerHealth{});
    ASSERT_EQ(breaker.State(), core::BreakerState::kHalfOpen);
    core::BreakerHealth dirty = NanRound();
    dirty.approx_elements = core::CircuitBreaker::kCanaryElements;
    breaker.OnInvocation(dirty);
    EXPECT_EQ(breaker.State(), core::BreakerState::kOpen);
    EXPECT_EQ(breaker.Trips(), 2u);
    EXPECT_EQ(breaker.Closes(), 0u);
}

TEST(BreakerTest, UnhealthyCriteria)
{
    core::CircuitBreaker breaker((core::BreakerConfig()));
    EXPECT_FALSE(breaker.Unhealthy(HealthyRound()));
    EXPECT_TRUE(breaker.Unhealthy(NanRound()));

    core::BreakerHealth drops = HealthyRound();
    drops.queue_drops = 1;
    EXPECT_TRUE(breaker.Unhealthy(drops));

    core::BreakerHealth storm = HealthyRound();
    storm.fires = 70;  // 70% > kFireRateTrip (0.6)...
    static_assert(core::CircuitBreaker::kFireRateTrip < 0.7);
    EXPECT_FALSE(breaker.Unhealthy(storm));  // ...but no drift: the
                                             // tuner owns bare spikes.
    storm.drift = true;  // corroborated by the drift monitor: trip.
    EXPECT_TRUE(breaker.Unhealthy(storm));

    core::BreakerHealth blowout = HealthyRound();
    blowout.output_error_pct =
        core::CircuitBreaker::kErrorTripFactor * blowout.target_error_pct;
    EXPECT_FALSE(breaker.Unhealthy(blowout));  // at the bound: healthy.
    blowout.output_error_pct += 1.0;  // past it.
    EXPECT_TRUE(breaker.Unhealthy(blowout));
}

TEST(BreakerTest, DisabledBreakerNeverDegrades)
{
    core::BreakerConfig cfg;
    cfg.enabled = false;
    core::CircuitBreaker breaker(cfg);
    for (int i = 0; i < 20; ++i)
        breaker.OnInvocation(NanRound());
    EXPECT_EQ(breaker.State(), core::BreakerState::kClosed);
    EXPECT_EQ(breaker.Trips(), 0u);
    EXPECT_EQ(breaker.ApproxBudget(100), 100u);
}

// ------------------------------------------------------- NPU injection

nn::Mlp
MakeTestMlp(uint64_t seed)
{
    Rng rng(seed);
    nn::Mlp mlp(nn::Topology::Parse("3->4->2"));
    mlp.RandomizeWeights(&rng, 1.0);
    return mlp;
}

std::vector<std::vector<double>>
InvokeBatch(npu::Npu* npu, size_t count)
{
    Rng rng(77);
    std::vector<std::vector<double>> outs;
    outs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        outs.push_back(npu->Invoke(
            {rng.Uniform(), rng.Uniform(), rng.Uniform()}));
    return outs;
}

size_t
CountNonFinite(const std::vector<std::vector<double>>& outs)
{
    size_t n = 0;
    for (const auto& out : outs)
        for (double v : out)
            n += !std::isfinite(v);
    return n;
}

TEST(NpuFaultTest, OutputNanInjection)
{
    ArmGuard guard;
    npu::Npu npu;
    npu.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Arm(
        MustParse("seed=9;npu.output_nan=1"));
    const auto faulty = InvokeBatch(&npu, 20);
    EXPECT_EQ(CountNonFinite(faulty), 20u * 2u);  // every output word.
    fault::FaultInjector::Default().Disarm();
    const auto clean = InvokeBatch(&npu, 20);
    EXPECT_EQ(CountNonFinite(clean), 0u);
}

TEST(NpuFaultTest, OutputInfInjectionIsInfinite)
{
    ArmGuard guard;
    npu::Npu npu;
    npu.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Arm(
        MustParse("seed=9;npu.output_inf=1"));
    const auto faulty = InvokeBatch(&npu, 10);
    for (const auto& out : faulty)
        for (double v : out)
            EXPECT_TRUE(std::isinf(v));
}

TEST(NpuFaultTest, StuckOutputUsesParam)
{
    ArmGuard guard;
    npu::Npu npu;
    npu.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Arm(
        MustParse("seed=9;npu.output_stuck=1:0.625"));
    const auto faulty = InvokeBatch(&npu, 10);
    for (const auto& out : faulty)
        for (double v : out)
            EXPECT_DOUBLE_EQ(v, 0.625);
}

TEST(NpuFaultTest, BitflipsReplayIdentically)
{
    ArmGuard guard;
    const fault::FaultPlan plan = MustParse("seed=21;npu.bitflip=0.5");

    npu::Npu first;
    first.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Arm(plan);
    const auto run_a = InvokeBatch(&first, 50);

    npu::Npu second;
    second.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Arm(plan);  // stream reset.
    const auto run_b = InvokeBatch(&second, 50);
    EXPECT_EQ(run_a, run_b);

    fault::FaultInjector::Default().Disarm();
    npu::Npu clean;
    clean.Configure(MakeTestMlp(7));
    const auto run_clean = InvokeBatch(&clean, 50);
    EXPECT_NE(run_a, run_clean);  // the upsets really landed.
}

TEST(NpuFaultTest, LutCorruptionPerturbsActivations)
{
    ArmGuard guard;
    npu::Npu clean;
    clean.Configure(MakeTestMlp(7));
    const auto base = InvokeBatch(&clean, 50);

    fault::FaultInjector::Default().Arm(
        MustParse("seed=33;npu.lut=0.05"));
    npu::Npu corrupted;  // corruption lands at Configure() time.
    corrupted.Configure(MakeTestMlp(7));
    fault::FaultInjector::Default().Disarm();
    const auto perturbed = InvokeBatch(&corrupted, 50);
    EXPECT_NE(base, perturbed);
}

// --------------------------------------------------- runtime end to end

core::RuntimeConfig
FastConfig()
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 800;
    return cfg;
}

/** Flat contiguous batch of @p size elements cycled from the test
 *  inputs (backs a BatchView of the runtime's input width). */
std::vector<double>
TestBatch(const core::RumbaRuntime& runtime, size_t index, size_t size)
{
    const auto& inputs = runtime.Bench().TestInputs();
    std::vector<double> flat;
    flat.reserve(size * runtime.Bench().NumInputs());
    for (size_t k = 0; k < size; ++k) {
        const auto& row = inputs[(index * size + k) % inputs.size()];
        flat.insert(flat.end(), row.begin(), row.end());
    }
    return flat;
}

/** Run @p count elements of @p flat through the BatchView hot path;
 *  @p out is sized to the merged result. */
core::InvocationReport
Invoke(core::RumbaRuntime& runtime, const std::vector<double>& flat,
       size_t count, std::vector<double>* out)
{
    out->resize(count * runtime.Bench().NumOutputs());
    return runtime.ProcessInvocation(
        core::BatchView(flat.data(), count,
                        runtime.Bench().NumInputs()),
        out->data());
}

TEST(RuntimeFaultTest, SurvivesNanStormAndCyclesBreaker)
{
    ArmGuard guard;
    core::RuntimeConfig cfg = FastConfig();
    cfg.breaker.trip_after = 2;
    cfg.breaker.open_invocations = 2;
    cfg.breaker.close_after = 2;
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);

    fault::FaultInjector::Default().Arm(
        MustParse("seed=3;npu.output_nan=0.05"));
    size_t non_finite_total = 0;
    std::vector<double> out;
    // Breaker position after each invocation, from its report.
    bool saw_open = false, saw_half_open = false, saw_closed = false;
    auto note = [&](const core::InvocationReport& r) {
        saw_open |= r.breaker_state == core::BreakerState::kOpen;
        saw_half_open |= r.breaker_state == core::BreakerState::kHalfOpen;
        saw_closed |= r.breaker_state == core::BreakerState::kClosed;
    };
    for (size_t i = 0;
         i < 12 &&
         runtime.Breaker().State() != core::BreakerState::kOpen;
         ++i) {
        const auto r =
            Invoke(runtime, TestBatch(runtime, i, 200), 200, &out);
        note(r);
        non_finite_total += r.non_finite_outputs;
        // Containment: no NaN/Inf ever reaches the delivered outputs.
        for (double v : out)
            EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_GT(non_finite_total, 0u);
    ASSERT_EQ(runtime.Breaker().State(), core::BreakerState::kOpen);
    EXPECT_GE(runtime.Breaker().Trips(), 1u);

    // The accelerator heals; canary probes close the breaker again.
    fault::FaultInjector::Default().Disarm();
    for (size_t i = 12; i < 24 && runtime.Breaker().Closes() == 0; ++i)
        note(Invoke(runtime, TestBatch(runtime, i, 200), 200, &out));
    EXPECT_GE(runtime.Breaker().Closes(), 1u);
    EXPECT_EQ(runtime.Breaker().State(), core::BreakerState::kClosed);

    // Delivered quality stayed within the TOQ target through the
    // whole episode (NaNs recovered, outage served exactly).
    EXPECT_LE(runtime.Summary().MeanOutputErrorPct(),
              cfg.tuner.target_error_pct);

    // The episode is visible in the reports: at least one invocation
    // ended in each breaker state.
    EXPECT_TRUE(saw_open);
    EXPECT_TRUE(saw_half_open);
    EXPECT_TRUE(saw_closed);
}

TEST(RuntimeFaultTest, QueueStallDropsAreCountedAndContained)
{
    ArmGuard guard;
    core::RuntimeConfig cfg = FastConfig();
    cfg.initial_threshold = 1e-9;  // every check fires.
    cfg.recovery_queue_capacity = 8;
    cfg.breaker.trip_after = 1;    // drops trip immediately.
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);

    fault::FaultInjector::Default().Arm(
        MustParse("seed=5;queue.stall=1"));
    std::vector<double> out;
    const auto r =
        Invoke(runtime, TestBatch(runtime, 0, 200), 200, &out);
    fault::FaultInjector::Default().Disarm();

    // ~200 fires into an 8-deep queue with the drain stalled: the
    // queue fills once and every later push is dropped, not a panic.
    EXPECT_GE(r.queue_drops, 150u);
    EXPECT_EQ(runtime.Recovery().QueueDrops(), r.queue_drops);
    EXPECT_EQ(r.fixes, cfg.recovery_queue_capacity);
    // Dropped elements keep their approximate result — finite, and
    // the loss is loud: the breaker opens on the very next round.
    for (double v : out)
        EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(runtime.Breaker().State(), core::BreakerState::kOpen);
}

TEST(RuntimeFaultTest, SeededPlanReplaysThroughOfflineTraining)
{
    // The offline flow configures three accelerators (LUT upsets at
    // each Configure) and streams the training elements through them
    // (datapath bit flips at each Invoke) while other networks train.
    // Every draw stays on the constructing thread in a fixed order, so
    // re-arming the same plan must rebuild the same artifact and
    // inject the same faults — and both match the values recorded
    // from a known-good build.
    ArmGuard guard;
    const fault::FaultPlan plan =
        MustParse("seed=61;npu.lut=0.01;npu.bitflip=0.002");
    core::RuntimeConfig cfg = FastConfig();
    cfg.recovery_policy.compensation = true;
    const auto build = [&](std::vector<uint64_t>* injected) {
        std::vector<obs::Counter*> counters;
        std::vector<uint64_t> before;
        for (size_t c = 0; c < fault::kNumFaultClasses; ++c) {
            counters.push_back(obs::Registry::Default().GetCounter(
                std::string("fault.injected.") +
                fault::FaultClassName(static_cast<fault::FaultClass>(c))));
            before.push_back(counters.back()->Value());
        }
        fault::FaultInjector::Default().Arm(plan);
        core::RumbaRuntime runtime(apps::MakeBenchmark("fft"), cfg);
        fault::FaultInjector::Default().Disarm();
        injected->clear();
        for (size_t c = 0; c < counters.size(); ++c)
            injected->push_back(counters[c]->Value() - before[c]);
        return runtime.ExportArtifact().ToString();
    };
    std::vector<uint64_t> first_injected, second_injected;
    const std::string first = build(&first_injected);
    const std::string second = build(&second_injected);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first_injected, second_injected);

    const auto count = [&](fault::FaultClass c) {
        return first_injected[static_cast<size_t>(c)];
    };
    EXPECT_EQ(count(fault::FaultClass::kNpuLutCorrupt), 117u);
    EXPECT_EQ(count(fault::FaultClass::kNpuBitFlip), 21u);
    EXPECT_EQ(testutil::Fnv1a64(first), 0xe1c677a660abc6b7ull)
        << std::hex << "digest 0x" << testutil::Fnv1a64(first);
}

TEST(RuntimeFaultTest, MispredictStormStaysCrashFree)
{
    ArmGuard guard;
    core::RuntimeConfig cfg = FastConfig();
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    obs::Counter* injected = obs::Registry::Default().GetCounter(
        "fault.injected.checker.mispredict");
    const uint64_t before = injected->Value();
    fault::FaultInjector::Default().Arm(
        MustParse("seed=13;checker.mispredict=0.3"));
    std::vector<double> out;
    for (size_t i = 0; i < 4; ++i)
        Invoke(runtime, TestBatch(runtime, i, 200), 200, &out);
    fault::FaultInjector::Default().Disarm();
    EXPECT_GT(injected->Value(), before);
    for (double v : out)
        EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace rumba
