#include "core/pipeline.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "core/artifact.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "predict/ema.h"
#include "predict/hybrid.h"
#include "predict/linear.h"
#include "predict/tree.h"

namespace rumba::core {

namespace {

/** Keep at most @p cap elements (0 = no cap). */
void
Cap(std::vector<std::vector<double>>* v, size_t cap)
{
    if (cap > 0 && v->size() > cap)
        v->resize(cap);
}

/** A future that already holds @p mlp. */
std::shared_future<nn::Mlp>
Ready(nn::Mlp mlp)
{
    std::promise<nn::Mlp> promise;
    promise.set_value(std::move(mlp));
    return promise.get_future().share();
}

/** @p parsed, or death on a malformed artifact section (which
 *  RumbaRuntime::FromArtifact refuses first). */
template <typename T>
T
Parsed(std::optional<T> parsed)
{
    if (!parsed.has_value())
        Fatal("malformed artifact section");
    return *std::move(parsed);
}

}  // namespace

Pipeline::Pipeline(std::unique_ptr<apps::Benchmark> bench,
                   const PipelineConfig& config)
    : bench_(std::move(bench)), config_(config)
{
    RUMBA_CHECK(bench_ != nullptr);

    train_inputs_ = bench_->TrainInputs();
    test_inputs_ = bench_->TestInputs();
    Cap(&train_inputs_, config_.max_train_elements);
    Cap(&test_inputs_, config_.max_test_elements);
    RUMBA_CHECK(!train_inputs_.empty());
    RUMBA_CHECK(!test_inputs_.empty());

    // Normalizers from the raw training distribution.
    Dataset raw_train = bench_->MakeDataset(train_inputs_);
    in_norm_.FitInputs(raw_train);
    out_norm_.FitTargets(raw_train);

    // NN-domain training set, shared with the unchecked-NPU trainer.
    auto norm_train = std::make_shared<Dataset>(bench_->NumInputs(),
                                                bench_->NumOutputs());
    for (size_t s = 0; s < raw_train.Size(); ++s) {
        norm_train->Add(in_norm_.Apply(raw_train.Input(s)),
                        out_norm_.Apply(raw_train.Target(s)));
    }

    nn::TrainConfig tc;
    tc.epochs = config_.train_epochs;
    tc.seed = config_.seed;

    auto& registry = obs::Registry::Default();
    registry.GetCounter("pipeline.train_elements")
        ->Increment(train_inputs_.size());
    obs::Histogram* train_ns =
        registry.GetHistogram("pipeline.train_ns");
    obs::Counter* trainings =
        registry.GetCounter("pipeline.trainings");

    // When the topologies differ, the unchecked-NPU network trains on
    // a thread of its own, and the constructor does not wait for it:
    // its readers do (NpuMlp()). nn::Train reads the shared dataset,
    // writes only the network it returns and never draws from the
    // fault injector, so every accelerator Configure and Invoke stays
    // on the constructing thread in sequential order and both
    // networks come out bit-identical to training them one after the
    // other.
    const auto& info = bench_->Info();
    const bool shared_topology = info.npu_topology == info.rumba_topology;
    if (!shared_topology) {
        npu_mlp_ = std::async(std::launch::async,
                              [topology = info.npu_topology, norm_train,
                               tc, train_ns] {
                                  const obs::ScopedTimer timer(train_ns);
                                  nn::Mlp mlp(topology);
                                  nn::Train(&mlp, *norm_train, tc);
                                  return mlp;
                              })
                       .share();
    }
    rumba_mlp_.emplace(info.rumba_topology);
    {
        const obs::ScopedTimer timer(train_ns);
        nn::Train(&*rumba_mlp_, *norm_train, tc);
    }
    if (shared_topology)
        npu_mlp_ = Ready(*rumba_mlp_);

    // True accelerator errors on the training elements (predictor
    // targets): run the Rumba-topology accelerator over them.
    npu::Npu accel = MakeAccelerator(/*use_rumba_topology=*/true);
    train_errors_.reserve(train_inputs_.size());
    ForEachApproximate(
        &accel, train_inputs_,
        [&](size_t s, const std::vector<double>&,
            const std::vector<double>& raw_out) {
            train_errors_.push_back(
                bench_->ElementError(raw_train.Target(s), raw_out));
        });
    trainings->Increment(shared_topology ? 1 : 2);
}

Pipeline::Pipeline(std::unique_ptr<apps::Benchmark> bench,
                   const PipelineConfig& config, const Artifact& artifact)
    : bench_(std::move(bench)), config_(config)
{
    RUMBA_CHECK(bench_ != nullptr);
    RUMBA_CHECK(artifact.benchmark == bench_->Info().name);

    train_inputs_ = bench_->TrainInputs();
    test_inputs_ = bench_->TestInputs();
    Cap(&train_inputs_, config_.max_train_elements);
    Cap(&test_inputs_, config_.max_test_elements);

    in_norm_ = Parsed(Normalizer::TryDeserialize(artifact.in_norm));
    out_norm_ = Parsed(Normalizer::TryDeserialize(artifact.out_norm));
    rumba_mlp_ = Parsed(nn::Mlp::TryDeserialize(artifact.rumba_mlp));
    npu_mlp_ = Ready(Parsed(nn::Mlp::TryDeserialize(artifact.npu_mlp)));
    RUMBA_CHECK(rumba_mlp_->GetTopology().NumInputs() ==
                bench_->NumInputs());
    RUMBA_CHECK(rumba_mlp_->GetTopology().NumOutputs() ==
                bench_->NumOutputs());
    // train_errors_ intentionally left empty: no offline run happened.
}

Artifact
Pipeline::ExportArtifact(const predict::ErrorPredictor& predictor,
                         double threshold,
                         const predict::Compensator* compensator) const
{
    Artifact artifact;
    artifact.benchmark = bench_->Info().name;
    artifact.rumba_mlp = rumba_mlp_->Serialize();
    artifact.npu_mlp = NpuMlp().Serialize();
    artifact.in_norm = in_norm_.Serialize();
    artifact.out_norm = out_norm_.Serialize();
    artifact.predictor = predictor.Serialize();
    if (compensator != nullptr && compensator->Trained())
        artifact.compensator = compensator->Serialize();
    artifact.threshold = threshold;
    return artifact;
}

std::vector<double>
Pipeline::NormalizeInput(const std::vector<double>& raw) const
{
    return in_norm_.Apply(raw);
}

void
Pipeline::NormalizeInput(const double* raw,
                         std::vector<double>* out) const
{
    in_norm_.Apply(raw, in_norm_.Arity(), out);
}

void
Pipeline::NormalizeOutput(const double* raw,
                          std::vector<double>* out) const
{
    out_norm_.Apply(raw, out_norm_.Arity(), out);
}

std::vector<double>
Pipeline::DenormalizeOutput(const std::vector<double>& norm) const
{
    return out_norm_.Invert(norm);
}

void
Pipeline::DenormalizeOutput(const std::vector<double>& norm,
                            std::vector<double>* out) const
{
    out_norm_.Invert(norm.data(), norm.size(), out);
}

npu::Npu
Pipeline::MakeAccelerator(bool use_rumba_topology) const
{
    npu::Npu accel(config_.npu);
    accel.Configure(use_rumba_topology ? *rumba_mlp_ : NpuMlp());
    return accel;
}

std::vector<std::vector<double>>
Pipeline::RunAccelerator(
    npu::Npu* accel,
    const std::vector<std::vector<double>>& raw_inputs) const
{
    std::vector<std::vector<double>> outputs;
    outputs.reserve(raw_inputs.size());
    ForEachApproximate(accel, raw_inputs,
                       [&](size_t, const std::vector<double>&,
                           const std::vector<double>& raw_out) {
                           outputs.push_back(raw_out);
                       });
    return outputs;
}

void
Pipeline::ForEachApproximate(
    npu::Npu* accel, const std::vector<std::vector<double>>& raw_inputs,
    const ApproxVisitor& visit) const
{
    RUMBA_CHECK(accel != nullptr && accel->Configured());
    std::vector<double> norm_in, norm_out, raw_out;
    for (size_t s = 0; s < raw_inputs.size(); ++s) {
        in_norm_.Apply(raw_inputs[s].data(), raw_inputs[s].size(),
                       &norm_in);
        accel->Invoke(norm_in, &norm_out);
        out_norm_.Invert(norm_out.data(), norm_out.size(), &raw_out);
        visit(s, norm_in, raw_out);
    }
}

std::unique_ptr<predict::ErrorPredictor>
Pipeline::MakePredictor(Scheme scheme)
{
    switch (scheme) {
      case Scheme::kEma:
        return std::make_unique<predict::EmaDetector>();
      case Scheme::kLinear:
        return std::make_unique<predict::LinearErrorPredictor>();
      case Scheme::kTree:
        return std::make_unique<predict::TreeErrorPredictor>();
      case Scheme::kHybrid:
        return std::make_unique<predict::HybridErrorPredictor>();
      default:
        Fatal("scheme %s has no checker hardware", SchemeName(scheme));
    }
}

std::unique_ptr<predict::ErrorPredictor>
Pipeline::TrainPredictor(Scheme scheme) const
{
    auto predictor = MakePredictor(scheme);
    if (scheme == Scheme::kEma)
        return predictor;  // output-based: no offline fitting.

    const obs::ScopedTimer timer(obs::Registry::Default().GetHistogram(
        "pipeline.predictor_train_ns"));
    Dataset error_data(bench_->NumInputs(), 1);
    for (size_t s = 0; s < train_inputs_.size(); ++s) {
        error_data.Add(in_norm_.Apply(train_inputs_[s]),
                       {train_errors_[s]});
    }
    predictor->Train(error_data);
    obs::Registry::Default()
        .GetCounter("pipeline.predictor_trainings")
        ->Increment();
    return predictor;
}

std::future<predict::Compensator>
Pipeline::TrainCompensator() const
{
    RUMBA_CHECK(!train_inputs_.empty());
    obs::Histogram* train_ns = obs::Registry::Default().GetHistogram(
        "pipeline.compensator_train_ns");
    const uint64_t start_ns = obs::NowNs();
    npu::Npu accel = MakeAccelerator(/*use_rumba_topology=*/true);
    const Dataset raw_train = bench_->MakeDataset(train_inputs_);
    // Features are [normalized inputs | normalized approximate
    // outputs]: the checker only ever sees the inputs, so on the
    // elements it misjudges the inputs carry no signal — where the
    // accelerator actually landed is the evidence the residual
    // network needs. Targets are the signed NN-domain residuals
    // exact − approximate.
    //
    // Train on the hard tail, not the whole distribution: the
    // compensator is only ever applied to elements the checker
    // fired on, and an MSE fit over all elements is dominated by the
    // easy mass it will never see. Keep every element whose true
    // error reaches the tail quantile (plus a quarter of the easy
    // mass as a stabilizer so the fit does not forget what "nearly
    // right" looks like). Every element is still invoked, in order:
    // the accelerator pass is what a fault plan's draws replay.
    RUMBA_CHECK(train_errors_.size() == train_inputs_.size());
    std::vector<double> sorted(train_errors_);
    std::sort(sorted.begin(), sorted.end());
    const double tail_cut = sorted[sorted.size() * 6 / 10];
    const size_t out_w = bench_->NumOutputs();
    Dataset refine(bench_->NumInputs() + out_w, out_w);
    std::vector<double> features, norm_out, norm_exact, target(out_w);
    ForEachApproximate(
        &accel, train_inputs_,
        [&](size_t s, const std::vector<double>& norm_in,
            const std::vector<double>& raw_out) {
            if (train_errors_[s] < tail_cut && (s & 3u) != 0)
                return;
            out_norm_.Apply(raw_out.data(), out_w, &norm_out);
            out_norm_.Apply(raw_train.Target(s).data(), out_w,
                            &norm_exact);
            for (size_t o = 0; o < out_w; ++o)
                target[o] = norm_exact[o] - norm_out[o];
            features.assign(norm_in.begin(), norm_in.end());
            features.insert(features.end(), norm_out.begin(),
                            norm_out.end());
            refine.Add(features, target);
        });
    obs::Registry::Default()
        .GetCounter("pipeline.compensator_trainings")
        ->Increment();
    nn::TrainConfig tc;
    tc.epochs = config_.train_epochs;
    tc.seed = config_.seed;
    // The histogram times refine set plus training, as one span.
    return std::async(std::launch::async,
                      [refine = std::move(refine), tc, train_ns,
                       start_ns] {
                          predict::Compensator model =
                              predict::Compensator::Train(refine, tc);
                          train_ns->Observe(static_cast<double>(
                              obs::NowNs() - start_ns));
                          return model;
                      });
}

}  // namespace rumba::core
