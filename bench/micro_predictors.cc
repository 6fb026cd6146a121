/**
 * @file
 * google-benchmark microbenchmarks of the hot software paths: one
 * accelerator invocation, one check of each predictor, one exact
 * kernel execution, and the offline trainers (predictors and one
 * nn::Train epoch). These measure the *simulator's* host-side speed
 * (useful when scaling experiments), not the modeled hardware
 * latencies (those are fig17).
 */

#include <benchmark/benchmark.h>

#include <cmath>

#include "apps/benchmark.h"
#include "common/dataset.h"
#include "common/random.h"
#include "nn/trainer.h"
#include "npu/npu.h"
#include "predict/ema.h"
#include "predict/linear.h"
#include "predict/tree.h"

using namespace rumba;

namespace {

/** Shared small error dataset in [0,1]^4. */
Dataset
ErrorData(size_t n = 2000)
{
    Rng rng(99);
    Dataset d(4, 1);
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.Uniform(), rng.Uniform(),
                              rng.Uniform(), rng.Uniform()};
        d.Add(x, {0.2 * x[0] + 0.1 * x[1] * x[2]});
    }
    return d;
}

void
BM_LinearPredict(benchmark::State& state)
{
    predict::LinearErrorPredictor p;
    p.Train(ErrorData());
    const std::vector<double> x{0.1, 0.4, 0.6, 0.9};
    for (auto _ : state)
        benchmark::DoNotOptimize(p.PredictError(x, {}));
}
BENCHMARK(BM_LinearPredict);

void
BM_TreePredict(benchmark::State& state)
{
    predict::TreeErrorPredictor p;
    p.Train(ErrorData());
    const std::vector<double> x{0.1, 0.4, 0.6, 0.9};
    for (auto _ : state)
        benchmark::DoNotOptimize(p.PredictError(x, {}));
}
BENCHMARK(BM_TreePredict);

void
BM_EmaPredict(benchmark::State& state)
{
    predict::EmaDetector p;
    const std::vector<double> out{0.5, 0.6};
    for (auto _ : state)
        benchmark::DoNotOptimize(p.PredictError({}, out));
}
BENCHMARK(BM_EmaPredict);

void
BM_NpuInvoke(benchmark::State& state)
{
    Rng rng(7);
    nn::Mlp mlp(nn::Topology::Parse("9->8->1"));
    mlp.RandomizeWeights(&rng);
    npu::Npu npu;
    npu.Configure(mlp);
    const std::vector<double> in(9, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(npu.Invoke(in));
}
// One accelerator per thread, but every invoke also records into the
// process-wide npu.invocations counter and npu.invoke_ns histogram
// (one mutex): per-thread time rising with the thread count is that
// shared instrumentation serializing otherwise independent shards.
BENCHMARK(BM_NpuInvoke)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void
BM_MlpForward(benchmark::State& state)
{
    Rng rng(7);
    nn::Mlp mlp(nn::Topology::Parse("9->8->1"));
    mlp.RandomizeWeights(&rng);
    const std::vector<double> in(9, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(mlp.Forward(in));
}
BENCHMARK(BM_MlpForward);

void
BM_KernelExact(benchmark::State& state)
{
    const auto bench = apps::MakeBenchmark(
        state.range(0) == 0 ? "sobel"
                            : (state.range(0) == 1 ? "blackscholes"
                                                   : "jmeint"));
    const auto inputs = bench->TestInputs();
    std::vector<double> out(bench->NumOutputs());
    size_t i = 0;
    for (auto _ : state) {
        bench->RunExact(inputs[i % inputs.size()].data(), out.data());
        benchmark::DoNotOptimize(out.data());
        ++i;
    }
}
BENCHMARK(BM_KernelExact)->Arg(0)->Arg(1)->Arg(2);

/** Fixed regression data in [0, 1] shaped like an app's NN-domain
 *  training set (5000 elements, as the Table-1 apps train on). */
Dataset
TrainData(size_t in_w, size_t out_w, size_t n = 5000)
{
    Rng rng(13);
    Dataset d(in_w, out_w);
    std::vector<double> x(in_w), t(out_w);
    for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (double& v : x) {
            v = rng.Uniform();
            sum += v;
        }
        for (size_t o = 0; o < out_w; ++o)
            t[o] = 0.5 + 0.4 * std::sin(sum + static_cast<double>(o));
        d.Add(x, t);
    }
    return d;
}

/** One nn::Train epoch (backprop, momentum updates and validation
 *  scoring) at blackscholes' network (arg 0), fft's unchecked-NPU
 *  network (arg 1) and the compensator's residual network for fft
 *  (arg 2: sigmoid hidden layer, linear head): the per-epoch cost
 *  behind offline training. */
void
BM_MlpTrain(benchmark::State& state)
{
    const char* const shapes[] = {"6->8->8->1", "1->4->4->2", "3->8->2"};
    const nn::Topology topology =
        nn::Topology::Parse(shapes[state.range(0)]);
    const nn::Activation head = state.range(0) == 2
                                    ? nn::Activation::kLinear
                                    : nn::Activation::kSigmoid;
    const Dataset d =
        TrainData(topology.NumInputs(), topology.NumOutputs());
    nn::TrainConfig tc;
    tc.epochs = 1;
    for (auto _ : state) {
        nn::Mlp mlp(topology, nn::Activation::kSigmoid, head);
        nn::Train(&mlp, d, tc);
        benchmark::DoNotOptimize(mlp.Layers()[0].weights.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(d.Size()));
    state.SetLabel(topology.ToString());
}
BENCHMARK(BM_MlpTrain)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_LinearTrain(benchmark::State& state)
{
    const Dataset d = ErrorData(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        predict::LinearErrorPredictor p;
        p.Train(d);
        benchmark::DoNotOptimize(p.Weights().data());
    }
}
BENCHMARK(BM_LinearTrain)->Arg(500)->Arg(2000);

void
BM_TreeTrain(benchmark::State& state)
{
    const Dataset d = ErrorData(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        predict::TreeErrorPredictor p;
        p.Train(d);
        benchmark::DoNotOptimize(p.NumNodes());
    }
}
// 5000 is the Table-1 training size the offline flow fits on.
BENCHMARK(BM_TreeTrain)->Arg(500)->Arg(2000)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();
