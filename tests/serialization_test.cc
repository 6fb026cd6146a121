// Tests for the deployable-configuration path (Figure 4's "embedded
// in the binary"): predictor/normalizer/network serialization, the
// Artifact container, and full runtime round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/dataset.h"
#include "common/random.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "digest.h"
#include "fault/corrupt.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "predict/ema.h"
#include "predict/evp.h"
#include "predict/hybrid.h"
#include "predict/linear.h"
#include "predict/tree.h"

namespace rumba {
namespace {

Dataset
SampleErrorData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d(2, 1);
    for (size_t i = 0; i < n; ++i) {
        const double x = rng.Uniform(), y = rng.Uniform();
        d.Add({x, y}, {0.3 * x + (y < 0.4 ? 0.2 : 0.0)});
    }
    return d;
}

// ------------------------------------------------------------ Normalizer

TEST(SerializationTest, NormalizerRoundTrip)
{
    Dataset d(3, 1);
    d.Add({1.0, -5.0, 100.0}, {0.0});
    d.Add({3.0, 5.0, 400.0}, {1.0});
    Normalizer n;
    n.FitInputs(d);
    const Normalizer copy = Normalizer::TryDeserialize(n.Serialize()).value();
    const std::vector<double> probe{2.0, 0.0, 250.0};
    const auto a = n.Apply(probe);
    const auto b = copy.Apply(probe);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(SerializationTest, NormalizerBadBlobRefused)
{
    EXPECT_FALSE(Normalizer::TryDeserialize("bogus 3 1 2 3").has_value());
    EXPECT_FALSE(Normalizer::TryDeserialize("norm 3 1 2 3").has_value());
}

// ------------------------------------------------------------ Predictors

TEST(SerializationTest, LinearRoundTripPredictsIdentically)
{
    predict::LinearErrorPredictor p;
    p.Train(SampleErrorData(500, 3));
    const auto copy =
        predict::LinearErrorPredictor::TryDeserialize(p.Serialize()).value();
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        std::vector<double> x{rng.Uniform(), rng.Uniform()};
        auto mutable_copy = copy;
        EXPECT_DOUBLE_EQ(p.PredictError(x, {}),
                         mutable_copy.PredictError(x, {}));
    }
}

TEST(SerializationTest, TreeRoundTripPredictsIdentically)
{
    predict::TreeErrorPredictor p;
    p.Train(SampleErrorData(2000, 7));
    auto copy =
        predict::TreeErrorPredictor::TryDeserialize(p.Serialize()).value();
    EXPECT_EQ(copy.NumNodes(), p.NumNodes());
    EXPECT_EQ(copy.Depth(), p.Depth());
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        std::vector<double> x{rng.Uniform(), rng.Uniform()};
        EXPECT_DOUBLE_EQ(p.PredictError(x, {}),
                         copy.PredictError(x, {}));
    }
}

TEST(SerializationTest, EmaRoundTripKeepsAlpha)
{
    predict::EmaDetector ema(12);
    auto copy = predict::EmaDetector::TryDeserialize(ema.Serialize()).value();
    EXPECT_DOUBLE_EQ(copy.Alpha(), ema.Alpha());
}

TEST(SerializationTest, EvpRoundTrip)
{
    Rng rng(11);
    Dataset d(1, 2);
    for (int i = 0; i < 300; ++i) {
        const double x = rng.Uniform();
        d.Add({x}, {x, 1.0 - x});
    }
    predict::ValuePredictionError p;
    p.Train(d);
    auto copy =
        predict::ValuePredictionError::TryDeserialize(p.Serialize()).value();
    EXPECT_DOUBLE_EQ(p.PredictError({0.3}, {0.4, 0.6}),
                     copy.PredictError({0.3}, {0.4, 0.6}));
}

TEST(SerializationTest, FactoryDispatchesOnTag)
{
    predict::TreeErrorPredictor tree;
    tree.Train(SampleErrorData(500, 13));
    auto generic = predict::DeserializePredictor(tree.Serialize());
    EXPECT_EQ(generic->Name(), "treeErrors");

    predict::LinearErrorPredictor linear;
    linear.Train(SampleErrorData(500, 13));
    EXPECT_EQ(predict::DeserializePredictor(linear.Serialize())->Name(),
              "linearErrors");
    EXPECT_EQ(predict::DeserializePredictor("ema 0.25\n")->Name(),
              "EMA");
}

TEST(SerializationTest, FactoryRejectsUnknownTag)
{
    EXPECT_DEATH(predict::DeserializePredictor("martian 1 2 3"), "");
}

TEST(SerializationTest, HybridSerializesSelection)
{
    predict::HybridErrorPredictor hybrid;
    hybrid.Train(SampleErrorData(2000, 17));
    auto generic = predict::DeserializePredictor(hybrid.Serialize());
    EXPECT_EQ(generic->Name(), hybrid.SelectedName());
}

// -------------------------------------------------------------- Artifact

core::RuntimeConfig
FastConfig()
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 10.0;
    return cfg;
}

TEST(ArtifactTest, StringRoundTrip)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               FastConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    const auto parsed =
        core::Artifact::TryFromString(artifact.ToString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const core::Artifact& copy = *parsed;
    EXPECT_EQ(copy.benchmark, "inversek2j");
    EXPECT_DOUBLE_EQ(copy.threshold, artifact.threshold);
    EXPECT_EQ(copy.rumba_mlp, artifact.rumba_mlp);
    EXPECT_EQ(copy.predictor, artifact.predictor);
}

TEST(ArtifactTest, FileRoundTrip)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("fft"),
                               FastConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    const std::string path = "/tmp/rumba_test_artifact.txt";
    ASSERT_TRUE(artifact.Save(path));
    const auto loaded = core::Artifact::TryLoad(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->benchmark, "fft");
    EXPECT_EQ(loaded->npu_mlp, artifact.npu_mlp);
    std::remove(path.c_str());
}

TEST(ArtifactTest, TryFromStringReportsInsteadOfDying)
{
    const auto bad_header =
        core::Artifact::TryFromString("not an artifact");
    ASSERT_FALSE(bad_header.ok());
    EXPECT_EQ(bad_header.status().code(), core::StatusCode::kDataLoss);
    EXPECT_NE(bad_header.status().message().find("bad header"),
              std::string::npos);

    // Missing sections must be detected, not silently defaulted.
    const auto partial = core::Artifact::TryFromString(
        "rumba-artifact v1\nbenchmark fft\nthreshold 0.1\n");
    ASSERT_FALSE(partial.ok());
    EXPECT_EQ(partial.status().code(), core::StatusCode::kDataLoss);
    EXPECT_NE(partial.status().message().find("missing section"),
              std::string::npos);
}

TEST(ArtifactTest, TryLoadReportsMissingFile)
{
    const auto missing =
        core::Artifact::TryLoad("/tmp/no_such_artifact_file");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), core::StatusCode::kNotFound);
    EXPECT_NE(missing.status().message().find("cannot open"),
              std::string::npos);
}

TEST(ArtifactTest, ChecksumCatchesTruncationAndBitrot)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               FastConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    const std::string good = artifact.ToString();
    EXPECT_EQ(good.compare(0, 17, "rumba-artifact v2"), 0);

    const auto parsed = core::Artifact::TryFromString(good);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    std::string truncated = good;
    fault::TruncateBlob(&truncated, /*keep_fraction=*/0.7);
    EXPECT_FALSE(core::Artifact::TryFromString(truncated).ok());

    std::string rotted = good;
    const size_t flipped =
        fault::BitrotBlob(&rotted, /*rate=*/0.01, /*seed=*/99);
    ASSERT_GT(flipped, 0u);
    const auto rot_result = core::Artifact::TryFromString(rotted);
    ASSERT_FALSE(rot_result.ok());
    EXPECT_EQ(rot_result.status().code(),
              core::StatusCode::kDataLoss);
}

TEST(ArtifactTest, V1BlobWithoutChecksumStillAccepted)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               FastConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    std::string blob = artifact.ToString();
    // Strip the v2 header + checksum line, substitute the v1 header:
    // artifacts written before the checksum existed must keep loading.
    const size_t header_end = blob.find('\n');
    const size_t checksum_end = blob.find('\n', header_end + 1);
    ASSERT_NE(checksum_end, std::string::npos);
    blob = "rumba-artifact v1\n" + blob.substr(checksum_end + 1);

    const auto parsed = core::Artifact::TryFromString(blob);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->benchmark, artifact.benchmark);
    EXPECT_DOUBLE_EQ(parsed->threshold, artifact.threshold);
    EXPECT_EQ(parsed->predictor, artifact.predictor);
}

TEST(ArtifactTest, TrainedArtifactsMatchRecordedDigests)
{
    // Digests of the exported artifact, recorded from a known-good
    // build of the offline flow. However the flow schedules its
    // training (two networks train concurrently), it must not move
    // one trained bit of the networks, the checker, the threshold or
    // the compensator.
    if (fault::FaultInjector::Default().Armed())
        GTEST_SKIP() << "a fault plan armed from RUMBA_FAULT_PLAN "
                        "changes what the offline flow trains";
    core::RumbaRuntime blackscholes(apps::MakeBenchmark("blackscholes"),
                                    FastConfig());
    const std::string plain = blackscholes.ExportArtifact().ToString();
    EXPECT_EQ(testutil::Fnv1a64(plain), 0xd98b3c124e44c44eull)
        << std::hex << "blackscholes digest 0x"
        << testutil::Fnv1a64(plain);

    core::RuntimeConfig cfg = FastConfig();
    cfg.recovery_policy.compensation = true;
    core::RumbaRuntime fft(apps::MakeBenchmark("fft"), cfg);
    const std::string compensated = fft.ExportArtifact().ToString();
    EXPECT_EQ(testutil::Fnv1a64(compensated), 0xd7e96369626dc965ull)
        << std::hex << "fft digest 0x" << testutil::Fnv1a64(compensated);
}

TEST(ArtifactTest, ServedArtifactsMatchRecordedDigests)
{
    // The artifacts servebench deploys: default PipelineConfig (full
    // training sets, 120 epochs), tree checker, TOQ mode at a 10%
    // target; blackscholes without compensation, fft with it.
    // Recorded from a known-good build like the test above, at the
    // networks' full size.
    if (fault::FaultInjector::Default().Armed())
        GTEST_SKIP() << "a fault plan armed from RUMBA_FAULT_PLAN "
                        "changes what the offline flow trains";
    const auto served_config = [](bool compensation) {
        return core::RuntimeConfig::Builder()
            .WithChecker(core::Scheme::kTree)
            .WithTunerMode(core::TuningMode::kToq)
            .WithTargetErrorPct(10.0)
            .WithCompensation(compensation)
            .Build();
    };
    core::RumbaRuntime blackscholes(apps::MakeBenchmark("blackscholes"),
                                    served_config(false));
    const std::string plain = blackscholes.ExportArtifact().ToString();
    EXPECT_EQ(testutil::Fnv1a64(plain), 0x4b63645fc3017bc6ull)
        << std::hex << "blackscholes digest 0x"
        << testutil::Fnv1a64(plain);

    core::RumbaRuntime fft(apps::MakeBenchmark("fft"),
                           served_config(true));
    const std::string compensated = fft.ExportArtifact().ToString();
    EXPECT_EQ(testutil::Fnv1a64(compensated), 0x4b66de39e6c92f5bull)
        << std::hex << "fft digest 0x" << testutil::Fnv1a64(compensated);
}

TEST(ArtifactTest, DeployedRuntimeMatchesTrainedRuntime)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               FastConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    core::RumbaRuntime deployed(artifact, FastConfig());

    const auto inputs = trained.Bench().TestInputs();
    const std::vector<double> flat =
        core::FlattenBatch({inputs.begin(), inputs.begin() + 300});
    const core::BatchView view(flat.data(), 300,
                               trained.Bench().NumInputs());
    const size_t out_n = 300 * trained.Bench().NumOutputs();
    std::vector<double> out_a(out_n), out_b(out_n);
    const auto ra = trained.ProcessInvocation(view, out_a.data());
    const auto rb = deployed.ProcessInvocation(view, out_b.data());

    EXPECT_EQ(ra.fixes, rb.fixes);
    EXPECT_DOUBLE_EQ(ra.threshold_used, rb.threshold_used);
    for (size_t i = 0; i < out_n; ++i)
        EXPECT_DOUBLE_EQ(out_a[i], out_b[i]);
}

TEST(ArtifactTest, CompensatorSurvivesDeployment)
{
    core::RuntimeConfig cfg = FastConfig();
    cfg.recovery_policy.compensation = true;
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               cfg);
    ASSERT_TRUE(trained.HasCompensator());
    const core::Artifact artifact = trained.ExportArtifact();
    EXPECT_FALSE(artifact.compensator.empty());

    // String round trip preserves the compensator blob byte-for-byte.
    const auto reparsed_or =
        core::Artifact::TryFromString(artifact.ToString());
    ASSERT_TRUE(reparsed_or.ok()) << reparsed_or.status().ToString();
    const core::Artifact& reparsed = *reparsed_or;
    EXPECT_EQ(reparsed.compensator, artifact.compensator);

    // The deployed runtime restores the model without training and
    // serves bit-identically, compensations included.
    core::RumbaRuntime deployed(reparsed, cfg);
    ASSERT_TRUE(deployed.HasCompensator());

    const auto inputs = trained.Bench().TestInputs();
    const std::vector<double> flat =
        core::FlattenBatch({inputs.begin(), inputs.begin() + 300});
    const core::BatchView view(flat.data(), 300,
                               trained.Bench().NumInputs());
    const size_t out_n = 300 * trained.Bench().NumOutputs();
    std::vector<double> out_a(out_n), out_b(out_n);
    const auto ra = trained.ProcessInvocation(view, out_a.data());
    const auto rb = deployed.ProcessInvocation(view, out_b.data());
    EXPECT_EQ(ra.tier_compensated, rb.tier_compensated);
    EXPECT_EQ(ra.tier_reexecuted, rb.tier_reexecuted);
    for (size_t i = 0; i < out_n; ++i)
        EXPECT_DOUBLE_EQ(out_a[i], out_b[i]);

    // An artifact trained without compensation carries no blob and
    // deploys without a compensator.
    core::RumbaRuntime plain(apps::MakeBenchmark("inversek2j"),
                             FastConfig());
    EXPECT_TRUE(plain.ExportArtifact().compensator.empty());
    EXPECT_FALSE(plain.HasCompensator());
}

TEST(ArtifactTest, WrongBenchmarkRejected)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("fft"),
                               FastConfig());
    core::Artifact artifact = trained.ExportArtifact();
    artifact.benchmark = "sobel";  // kernel mismatch.
    EXPECT_DEATH(core::RumbaRuntime(artifact, FastConfig()),
                 "check failed");
}

TEST(ArtifactTest, FromArtifactReportsEveryRejection)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("fft"),
                               FastConfig());
    const core::Artifact good = trained.ExportArtifact();

    core::Artifact unknown = good;
    unknown.benchmark = "martian";
    const auto not_found =
        core::RumbaRuntime::FromArtifact(unknown, FastConfig());
    ASSERT_FALSE(not_found.ok());
    EXPECT_EQ(not_found.status().code(), core::StatusCode::kNotFound);

    core::Artifact bad_checker = good;
    bad_checker.predictor = "martian 1 2 3";
    const auto data_loss =
        core::RumbaRuntime::FromArtifact(bad_checker, FastConfig());
    ASSERT_FALSE(data_loss.ok());
    EXPECT_EQ(data_loss.status().code(), core::StatusCode::kDataLoss);

    core::Artifact mismatched = good;
    mismatched.benchmark = "sobel";  // different arity than fft's net.
    const auto precondition =
        core::RumbaRuntime::FromArtifact(mismatched, FastConfig());
    ASSERT_FALSE(precondition.ok());
    EXPECT_EQ(precondition.status().code(),
              core::StatusCode::kFailedPrecondition);

    // External config knobs are validated, not checked-fatal.
    core::RuntimeConfig bad_tuner = FastConfig();
    bad_tuner.tuner.target_error_pct = -1.0;
    EXPECT_EQ(core::RumbaRuntime::FromArtifact(good, bad_tuner)
                  .status()
                  .code(),
              core::StatusCode::kInvalidArgument);

    core::RuntimeConfig bad_policy = FastConfig();
    bad_policy.recovery_policy.adjust_factor = 0.5;
    EXPECT_EQ(core::RumbaRuntime::FromArtifact(good, bad_policy)
                  .status()
                  .code(),
              core::StatusCode::kInvalidArgument);

    // A corrupt compensator blob is caught before construction.
    core::Artifact bad_compensator = good;
    bad_compensator.compensator = "martian 1 2 3";
    const auto comp_loss = core::RumbaRuntime::FromArtifact(
        bad_compensator, FastConfig());
    ASSERT_FALSE(comp_loss.ok());
    EXPECT_EQ(comp_loss.status().code(),
              core::StatusCode::kDataLoss);

    const auto deployed =
        core::RumbaRuntime::FromArtifact(good, FastConfig());
    ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
    EXPECT_EQ((*deployed)->Bench().Info().name, "fft");
}

TEST(ArtifactTest, FromArtifactRefusesDamagedSections)
{
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               FastConfig());
    const core::Artifact good = trained.ExportArtifact();
    ASSERT_EQ(good.predictor.rfind("tree ", 0), 0u);
    const auto status_of = [](const core::Artifact& artifact) {
        const auto runtime =
            core::RumbaRuntime::FromArtifact(artifact, FastConfig());
        return runtime.ok() ? core::StatusCode::kOk
                            : runtime.status().code();
    };

    // A truncated section re-renders into a blob whose checksum is
    // valid, so only the section parse can refuse it.
    for (std::string core::Artifact::*section :
         {&core::Artifact::in_norm, &core::Artifact::npu_mlp,
          &core::Artifact::predictor}) {
        core::Artifact damaged = good;
        fault::TruncateBlob(&(damaged.*section), 0.5);
        const auto reloaded =
            core::Artifact::TryFromString(damaged.ToString());
        ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
        EXPECT_EQ(status_of(*reloaded), core::StatusCode::kDataLoss);
    }

    // Tree nodes must point forward and inside the tree: a node that
    // is its own child would loop a serving worker forever, one past
    // the end would read out of bounds.
    core::Artifact tree = good;
    for (const char* blob :
         {"tree 7 1 3\n0 0.5 0 0 2\n-1 0 1 -1 -1\n-1 0 2 -1 -1\n",
          "tree 7 1 3\n0 0.5 0 1 9\n-1 0 1 -1 -1\n-1 0 2 -1 -1\n",
          "tree 7 1 99999999999\n-1 0 1 -1 -1\n",
          "linear 0 99999999999 1\n", "evp 0 99999999999 2 1\n",
          "ema 2\n"}) {
        tree.predictor = blob;
        EXPECT_EQ(status_of(tree), core::StatusCode::kDataLoss) << blob;
    }

    // Well-formed sections shaped for another kernel (inversek2j has
    // two inputs and two outputs).
    for (const char* blob :
         {"tree 7 1 3\n5 0.5 0 1 2\n-1 0 1 -1 -1\n-1 0 2 -1 -1\n",
          "linear 0 4 1 2 3 4\n", "evp 0 1 3 1 2 3\n"}) {
        tree.predictor = blob;
        EXPECT_EQ(status_of(tree), core::StatusCode::kFailedPrecondition)
            << blob;
    }
    core::Artifact norm = good;
    norm.out_norm = "norm 3 0 0 0 1 1 1\n";
    EXPECT_EQ(status_of(norm), core::StatusCode::kFailedPrecondition);
    norm.out_norm = "norm 99999999999 0\n";
    EXPECT_EQ(status_of(norm), core::StatusCode::kDataLoss);
    core::Artifact npu = good;
    npu.npu_mlp = nn::Mlp(nn::Topology::Parse("3->4->2"),
                          nn::Activation::kSigmoid,
                          nn::Activation::kLinear)
                      .Serialize();
    EXPECT_EQ(status_of(npu), core::StatusCode::kFailedPrecondition);

    EXPECT_EQ(status_of(good), core::StatusCode::kOk);
}

// ------------------------------------------------ Runtime behaviour pin

template <typename T>
void
AppendBytes(std::string* out, const T& value)
{
    out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
void
AppendVector(std::string* out, const std::vector<T>& values)
{
    AppendBytes(out, values.size());
    out->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
}

/** Recovery, salvage, breaker and checker counters one case moves. */
constexpr const char* kPinnedCounters[] = {
    "recovery.reexecutions",     "recovery.compensations",
    "recovery.queue_full_stalls", "recovery.queue_drops",
    "runtime.non_finite_salvaged", "breaker.exact_elements",
    "detector.checks",           "detector.fires",
    "detector.non_finite",       "drift.alarms",
};

uint64_t
CounterValue(const char* name)
{
    return obs::Registry::Default().GetCounter(name)->Value();
}

/** One pinned scenario: six consecutive invocations of one runtime
 *  deployed from the shared artifact. */
struct PinCase {
    const char* name;
    bool compensation;
    core::DegradeMode degrade;
    size_t queue_capacity;
    /** Armed for the whole case, or (half_open_drill) for the first
     *  invocation only; "" arms nothing. */
    const char* fault_plan;
    /** Trip the breaker on the first invocation's NaNs and let it
     *  probe half-open, so the breaker's exact tail runs. */
    bool half_open_drill;
    uint64_t digest;
};

TEST(RuntimePinTest, InvocationsMatchRecordedDigests)
{
    // Digests of everything an invocation decides — merged outputs,
    // every report field except wall-clock timings, the audit
    // capture, and the recovery, fault and checker counters —
    // recorded from a known-good build. How
    // ProcessInvocation orders its passes and clocks must not move
    // one of them.
    if (fault::FaultInjector::Default().Armed())
        GTEST_SKIP() << "a fault plan armed from RUMBA_FAULT_PLAN "
                        "changes what the runtime serves";
    core::RuntimeConfig train_config = FastConfig();
    train_config.recovery_policy.compensation = true;
    const core::Artifact artifact =
        core::RumbaRuntime(apps::MakeBenchmark("inversek2j"),
                           train_config)
            .ExportArtifact();
    ASSERT_FALSE(artifact.compensator.empty());

    const PinCase cases[] = {
        {"none", true, core::DegradeMode::kNone, 64, "", false,
         0xbd622f75cae80fc8ull},
        {"compensate-only", true, core::DegradeMode::kCompensateOnly, 64,
         "", false, 0x38957f9489ef5be9ull},
        {"skip-recovery", true, core::DegradeMode::kSkipRecovery, 64, "",
         false, 0x57536e6c24fc1a73ull},
        {"skip-check", true, core::DegradeMode::kSkipCheck, 64, "", false,
         0x4370d0ca43d7434bull},
        {"compensation-off", false, core::DegradeMode::kNone, 64, "",
         false, 0x1448ce9194c0be4cull},
        {"half-open", false, core::DegradeMode::kNone, 64,
         "seed=7;npu.output_nan=0.05", true, 0xf95c48e0dc0c7307ull},
        {"queue-faults", true, core::DegradeMode::kNone, 4,
         "seed=103;queue.stall=0.5;checker.mispredict=0.1;"
         "npu.output_nan=0.02",
         false, 0x55b016764e2f87e8ull},
    };

    const auto bench = apps::MakeBenchmark("inversek2j");
    const std::vector<double> pool = core::FlattenBatch(bench->TestInputs());
    const size_t in_w = bench->NumInputs();
    const size_t out_w = bench->NumOutputs();
    const size_t pool_n = pool.size() / in_w;
    constexpr size_t kBatch = 200;
    constexpr size_t kInvocations = 6;
    ASSERT_GE(pool_n, kBatch * kInvocations);

    for (const PinCase& c : cases) {
        SCOPED_TRACE(c.name);
        core::RuntimeConfig config = FastConfig();
        config.recovery_policy.compensation = c.compensation;
        config.recovery_queue_capacity = c.queue_capacity;
        // Clocked as the serving engine runs it; no digested field
        // may depend on the clocks.
        config.stage_timings = true;
        config.cpu_attribution = true;
        if (c.half_open_drill) {
            config.breaker.trip_after = 1;
            config.breaker.open_invocations = 1;
            config.breaker.close_after = 1;
        } else if (c.fault_plan[0] != '\0') {
            // Keep the queue in play for all six invocations.
            config.breaker.enabled = false;
        }
        core::RumbaRuntime runtime(artifact, config);
        fault::FaultPlan plan;
        ASSERT_TRUE(fault::FaultPlan::Parse(c.fault_plan, &plan, nullptr));
        fault::FaultInjector::Default().Arm(plan);

        std::map<std::string, uint64_t> before;
        for (const char* name : kPinnedCounters)
            before[name] = CounterValue(name);
        auto moved = [&](const char* name) {
            return CounterValue(name) - before[name];
        };
        std::string bytes;
        std::vector<double> outputs(kBatch * out_w);
        core::AuditCapture capture;
        size_t half_open_tails = 0;
        for (size_t inv = 0; inv < kInvocations; ++inv) {
            const core::BatchView view(pool.data() + inv * kBatch * in_w,
                                       kBatch, in_w);
            const core::InvocationReport r = runtime.ProcessInvocation(
                view, outputs.data(), &capture, c.degrade);
            if (c.half_open_drill && inv == 0)
                fault::FaultInjector::Default().Disarm();
            if (r.exact_elements > 0 && r.exact_elements < kBatch)
                ++half_open_tails;

            AppendVector(&bytes, outputs);
            AppendBytes(&bytes, r.elements);
            AppendBytes(&bytes, r.fixes);
            AppendBytes(&bytes, r.threshold_used);
            AppendBytes(&bytes, r.output_error_pct);
            AppendBytes(&bytes, r.estimated_error_pct);
            AppendBytes(&bytes, r.drift_detected);
            AppendBytes(&bytes, r.queue_drops);
            AppendBytes(&bytes, r.non_finite_outputs);
            AppendBytes(&bytes, r.exact_elements);
            AppendBytes(&bytes, r.breaker_state);
            AppendBytes(&bytes, r.degrade);
            AppendBytes(&bytes, r.tier_accepted);
            AppendBytes(&bytes, r.tier_compensated);
            AppendBytes(&bytes, r.tier_reexecuted);
            const double costs[] = {
                r.costs.baseline_region_ns, r.costs.baseline_region_nj,
                r.costs.baseline_app_ns,    r.costs.baseline_app_nj,
                r.costs.scheme_region_ns,   r.costs.scheme_region_nj,
                r.costs.scheme_app_ns,      r.costs.scheme_app_nj,
                r.costs.checker_ns,         r.costs.npu_ns,
                r.costs.recovery_ns,
            };
            AppendBytes(&bytes, costs);

            AppendBytes(&bytes, capture.count);
            AppendBytes(&bytes, capture.out_width);
            AppendVector(&bytes, capture.approx_outputs);
            AppendVector(&bytes, capture.predicted_error);
            AppendVector(&bytes, capture.fired);
            AppendVector(&bytes, capture.fixed);
            AppendVector(&bytes, capture.exact_path);

            AppendBytes(&bytes, r.fires);
            AppendBytes(&bytes, r.queue_full_stalls);
            AppendBytes(&bytes, r.tuner_adjustments);

            for (const char* name : kPinnedCounters)
                AppendBytes(&bytes, moved(name));
            for (size_t f = 0; f < fault::kNumFaultClasses; ++f) {
                AppendBytes(&bytes,
                            fault::FaultInjector::Default().Injections(
                                static_cast<fault::FaultClass>(f)));
            }
        }
        AppendBytes(&bytes, runtime.TotalFixes());
        AppendBytes(&bytes, runtime.TotalCompensations());
        AppendBytes(&bytes, runtime.Recovery().QueueDrops());
        fault::FaultInjector::Default().Disarm();

        // The cases reach what they are named for.
        if (c.half_open_drill) {
            EXPECT_GT(half_open_tails, 0u);
        }
        if (c.queue_capacity == 4) {
            EXPECT_GT(moved("recovery.queue_full_stalls"), 0u);
            EXPECT_GT(moved("recovery.queue_drops"), 0u);
            EXPECT_GT(moved("runtime.non_finite_salvaged"), 0u);
        }
        if (c.compensation && c.degrade == core::DegradeMode::kNone) {
            EXPECT_GT(runtime.TotalCompensations(), 0u);
        }

        EXPECT_EQ(testutil::Fnv1a64(bytes), c.digest)
            << std::hex << c.name << " digest 0x"
            << testutil::Fnv1a64(bytes);
    }
}

}  // namespace
}  // namespace rumba
