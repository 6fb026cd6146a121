#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/dataset.h"
#include "common/logging.h"
#include "common/random.h"

namespace rumba::nn {

namespace {

/** Per-layer gradient / velocity buffers matching an Mlp's shape. */
std::vector<std::vector<double>>
ZeroLike(const Mlp& mlp)
{
    std::vector<std::vector<double>> buf;
    buf.reserve(mlp.Layers().size());
    for (const auto& layer : mlp.Layers())
        buf.emplace_back(layer.weights.size(), 0.0);
    return buf;
}

/**
 * Scratch for one Train() call, reused for every sample: the forward
 * trace and the two backprop delta rows, sized to the widest layer.
 * A training epoch and its validation scoring allocate nothing.
 */
struct Workspace {
    explicit Workspace(const Mlp& mlp)
    {
        size_t widest = 0;
        for (const auto& layer : mlp.Layers())
            widest = std::max({widest, layer.in, layer.out});
        delta.resize(widest);
        prev_delta.resize(widest);
    }

    ForwardTrace trace;
    std::vector<double> delta;
    std::vector<double> prev_delta;
};

/**
 * Backpropagate one sample and accumulate weight gradients.
 * @return the sample's squared error.
 */
double
BackpropSample(const Mlp& mlp, const double* input, const double* target,
               Workspace* ws, std::vector<std::vector<double>>* grads)
{
    mlp.ForwardWithTrace(input, &ws->trace);
    const auto& layers = mlp.Layers();
    const auto& output = ws->trace.activations.back();

    double sq_err = 0.0;
    // delta[n] = dE/d(pre-activation of neuron n) for the current layer.
    double* delta = ws->delta.data();
    double* prev_delta = ws->prev_delta.data();
    for (size_t o = 0; o < output.size(); ++o) {
        const double err = output[o] - target[o];
        sq_err += err * err;
        delta[o] =
            err * DerivativeFromOutput(layers.back().act, output[o]);
    }

    for (size_t li = layers.size(); li-- > 0;) {
        const Layer& layer = layers[li];
        const auto& prev_act = ws->trace.activations[li];
        auto& grad = (*grads)[li];
        for (size_t n = 0; n < layer.out; ++n) {
            const double d = delta[n];
            const size_t row = n * (layer.in + 1);
            for (size_t i = 0; i < layer.in; ++i)
                grad[row + i] += d * prev_act[i];
            grad[row + layer.in] += d;  // bias
        }
        if (li == 0)
            break;
        // Propagate delta to the previous layer.
        for (size_t i = 0; i < layer.in; ++i) {
            double sum = 0.0;
            for (size_t n = 0; n < layer.out; ++n)
                sum += layer.W(n, i) * delta[n];
            prev_delta[i] =
                sum * DerivativeFromOutput(layers[li - 1].act, prev_act[i]);
        }
        std::swap(delta, prev_delta);
    }
    return sq_err;
}

/** Mean squared error over @p rows packed input/target rows. */
double
MeanSquaredError(const Mlp& mlp, const double* inputs,
                 const double* targets, size_t rows, Workspace* ws)
{
    const size_t in_w = mlp.GetTopology().NumInputs();
    const size_t out_w = mlp.GetTopology().NumOutputs();
    double total = 0.0;
    for (size_t s = 0; s < rows; ++s) {
        mlp.ForwardWithTrace(inputs + s * in_w, &ws->trace);
        const auto& out = ws->trace.activations.back();
        const double* target = targets + s * out_w;
        for (size_t o = 0; o < out_w; ++o) {
            const double d = out[o] - target[o];
            total += d * d;
        }
    }
    return total /
           (static_cast<double>(rows) * static_cast<double>(out_w));
}

}  // namespace

TrainResult
Train(Mlp* mlp, const Dataset& data, const TrainConfig& config)
{
    RUMBA_CHECK(mlp != nullptr);
    RUMBA_CHECK(!data.Empty());
    RUMBA_CHECK(data.NumInputs() == mlp->GetTopology().NumInputs());
    RUMBA_CHECK(data.NumTargets() == mlp->GetTopology().NumOutputs());
    RUMBA_CHECK(config.validation_fraction >= 0.0 &&
                config.validation_fraction <= 1.0);

    Rng rng(config.seed);
    mlp->RandomizeWeights(&rng);

    // Shuffle row indices with the draws Dataset::Shuffle makes over
    // rows, and pack the rows contiguously in that order. The first
    // `held` rows are the validation split, the rest train.
    const size_t in_w = data.NumInputs();
    const size_t out_w = data.NumTargets();
    std::vector<size_t> shuffled(data.Size());
    std::iota(shuffled.begin(), shuffled.end(), size_t{0});
    rng.Shuffle(shuffled);
    std::vector<double> inputs, targets;
    inputs.reserve(data.Size() * in_w);
    targets.reserve(data.Size() * out_w);
    for (size_t r : shuffled) {
        inputs.insert(inputs.end(), data.Input(r).begin(),
                      data.Input(r).end());
        targets.insert(targets.end(), data.Target(r).begin(),
                       data.Target(r).end());
    }
    const size_t held = static_cast<size_t>(
        config.validation_fraction * static_cast<double>(data.Size()));
    const size_t train_size = data.Size() - held;
    const double* train_inputs = inputs.data() + held * in_w;
    const double* train_targets = targets.data() + held * out_w;
    const bool has_validation = held > 0;

    std::vector<size_t> order(train_size);
    std::iota(order.begin(), order.end(), size_t{0});

    auto velocity = ZeroLike(*mlp);
    auto grads = ZeroLike(*mlp);
    Workspace ws(*mlp);

    TrainResult result;
    double best_val = 1.0 / 0.0;
    std::vector<std::vector<double>> best_weights;  // per layer.
    size_t since_best = 0;
    double lr = config.learning_rate;

    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.Shuffle(order);
        double epoch_sq = 0.0;
        const size_t batch = 16;
        for (size_t start = 0; start < order.size(); start += batch) {
            const size_t end = std::min(order.size(), start + batch);
            for (auto& g : grads)
                std::fill(g.begin(), g.end(), 0.0);
            for (size_t s = start; s < end; ++s) {
                epoch_sq += BackpropSample(
                    *mlp, train_inputs + order[s] * in_w,
                    train_targets + order[s] * out_w, &ws, &grads);
            }
            const double scale = lr / static_cast<double>(end - start);
            auto& layers = mlp->MutableLayers();
            for (size_t li = 0; li < layers.size(); ++li) {
                auto& w = layers[li].weights;
                auto& v = velocity[li];
                const auto& g = grads[li];
                for (size_t k = 0; k < w.size(); ++k) {
                    v[k] = config.momentum * v[k] - scale * g[k];
                    w[k] += v[k];
                }
            }
        }
        result.train_mse =
            epoch_sq / (static_cast<double>(train_size) *
                        static_cast<double>(out_w));
        result.epochs_run = epoch + 1;
        lr *= config.lr_decay;

        if (has_validation) {
            const double val = MeanSquaredError(
                *mlp, inputs.data(), targets.data(), held, &ws);
            if (val < best_val) {
                best_val = val;
                best_weights.resize(mlp->Layers().size());
                for (size_t li = 0; li < best_weights.size(); ++li)
                    best_weights[li] = mlp->Layers()[li].weights;
                since_best = 0;
            } else if (++since_best >= config.patience) {
                break;
            }
        }
    }

    if (has_validation && !best_weights.empty()) {
        auto& layers = mlp->MutableLayers();
        for (size_t li = 0; li < layers.size(); ++li)
            layers[li].weights.swap(best_weights[li]);
        result.validation_mse = best_val;
    } else {
        result.validation_mse = result.train_mse;
    }
    return result;
}

}  // namespace rumba::nn
