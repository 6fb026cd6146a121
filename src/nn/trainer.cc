#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/dataset.h"
#include "common/logging.h"
#include "common/random.h"

namespace rumba::nn {

namespace {

/** Samples per mini-batch. Each batch runs layer by layer over all of
 *  its samples at once (see Workspace). */
constexpr size_t kBatch = 16;

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
 * Scratch for one Train() call, reused for every batch. Activations,
 * targets and deltas are stored sample-minor: unit u of lane b sits at
 * [u * kBatch + b], so a neuron's dot products over a batch are
 * kBatch independent chains, and with a constant trip count GCC
 * vectorizes those lane loops without -ffast-math. Every lane of a
 * partial batch beyond its samples keeps an earlier sample's finite
 * values (or zeros); its results are computed and never read. An
 * epoch and its validation scoring allocate nothing.
 */
struct Workspace {
    explicit Workspace(const Mlp& mlp)
    {
        const auto& layers = mlp.Layers();
        acts.resize(layers.size() + 1);
        acts[0].assign(layers.front().in * kBatch, 0.0);
        size_t widest = 0;
        for (size_t li = 0; li < layers.size(); ++li) {
            acts[li + 1].assign(layers[li].out * kBatch, 0.0);
            widest = std::max({widest, layers[li].in, layers[li].out});
        }
        targets.assign(layers.back().out * kBatch, 0.0);
        delta.assign(widest * kBatch, 0.0);
        prev_delta.assign(widest * kBatch, 0.0);
    }

    /** acts[0] is the input block; acts[l + 1] layer l's outputs. */
    std::vector<std::vector<double>> acts;
    std::vector<double> targets;
    std::vector<double> delta;
    std::vector<double> prev_delta;
};

/** Transpose the @p m packed rows @p rows[0..m) into lanes 0..m-1 of
 *  the input and target blocks. */
void
LoadBatch(const double* inputs, const double* targets, size_t in_w,
          size_t out_w, const size_t* rows, size_t m, Workspace* ws)
{
    double* x = ws->acts[0].data();
    double* t = ws->targets.data();
    for (size_t b = 0; b < m; ++b) {
        const double* in = inputs + rows[b] * in_w;
        const double* target = targets + rows[b] * out_w;
        for (size_t i = 0; i < in_w; ++i)
            x[i * kBatch + b] = in[i];
        for (size_t o = 0; o < out_w; ++o)
            t[o * kBatch + b] = target[o];
    }
}

/** Forward pass over every lane: for each sample, the operations of
 *  Mlp::Forward() in the same order. */
void
ForwardBatch(const Mlp& mlp, Workspace* ws)
{
    const auto& layers = mlp.Layers();
    for (size_t li = 0; li < layers.size(); ++li) {
        const Layer& layer = layers[li];
        const double* prev = ws->acts[li].data();
        double* act = ws->acts[li + 1].data();
        for (size_t n = 0; n < layer.out; ++n) {
            double sum[kBatch];
            const double bias = layer.Bias(n);
            for (size_t b = 0; b < kBatch; ++b)
                sum[b] = bias;
            for (size_t i = 0; i < layer.in; ++i) {
                const double w = layer.W(n, i);
                const double* x = prev + i * kBatch;
                for (size_t b = 0; b < kBatch; ++b)
                    sum[b] += w * x[b];
            }
            double* out = act + n * kBatch;
            for (size_t b = 0; b < kBatch; ++b)
                out[b] = Evaluate(layer.act, sum[b]);
        }
    }
}

/**
 * Backpropagate the forward pass of lanes 0..m-1: adds each sample's
 * squared error to @p epoch_sq and its weight gradients to @p grads,
 * both in sample order, so every sum is the one a sample-at-a-time
 * loop forms.
 */
void
BackpropBatch(const Mlp& mlp, size_t m, Workspace* ws,
              std::vector<std::vector<double>>* grads, double* epoch_sq)
{
    const auto& layers = mlp.Layers();
    const Layer& last = layers.back();
    const double* output = ws->acts.back().data();
    const double* target = ws->targets.data();
    // delta[n * kBatch + b] = dE/d(pre-activation of neuron n), lane b.
    double* delta = ws->delta.data();
    double* prev_delta = ws->prev_delta.data();

    double sq_err[kBatch] = {};
    for (size_t o = 0; o < last.out; ++o) {
        const double* y = output + o * kBatch;
        const double* t = target + o * kBatch;
        double* d = delta + o * kBatch;
        for (size_t b = 0; b < kBatch; ++b) {
            const double err = y[b] - t[b];
            sq_err[b] += err * err;
            d[b] = err * DerivativeFromOutput(last.act, y[b]);
        }
    }
    for (size_t b = 0; b < m; ++b)
        *epoch_sq += sq_err[b];

    for (size_t li = layers.size(); li-- > 0;) {
        const Layer& layer = layers[li];
        const double* prev_act = ws->acts[li].data();
        double* grad = (*grads)[li].data();
        for (size_t n = 0; n < layer.out; ++n) {
            const double* d = delta + n * kBatch;
            double* row = grad + n * (layer.in + 1);
            for (size_t i = 0; i < layer.in; ++i) {
                const double* x = prev_act + i * kBatch;
                double g = row[i];
                for (size_t b = 0; b < m; ++b)
                    g += d[b] * x[b];
                row[i] = g;
            }
            double g = row[layer.in];  // bias
            for (size_t b = 0; b < m; ++b)
                g += d[b];
            row[layer.in] = g;
        }
        if (li == 0)
            break;
        // Propagate delta to the previous layer.
        const Activation prev_fn = layers[li - 1].act;
        for (size_t i = 0; i < layer.in; ++i) {
            double sum[kBatch] = {};
            for (size_t n = 0; n < layer.out; ++n) {
                const double w = layer.W(n, i);
                const double* d = delta + n * kBatch;
                for (size_t b = 0; b < kBatch; ++b)
                    sum[b] += w * d[b];
            }
            const double* y = prev_act + i * kBatch;
            double* pd = prev_delta + i * kBatch;
            for (size_t b = 0; b < kBatch; ++b)
                pd[b] = sum[b] * DerivativeFromOutput(prev_fn, y[b]);
        }
        std::swap(delta, prev_delta);
    }
}

/** Mean squared error over @p rows packed input/target rows, summed
 *  sample by sample, output by output. */
double
MeanSquaredError(const Mlp& mlp, const double* inputs,
                 const double* targets, size_t rows, Workspace* ws)
{
    const size_t in_w = mlp.GetTopology().NumInputs();
    const size_t out_w = mlp.GetTopology().NumOutputs();
    double total = 0.0;
    size_t lanes[kBatch];
    for (size_t start = 0; start < rows; start += kBatch) {
        const size_t m = std::min(kBatch, rows - start);
        for (size_t b = 0; b < m; ++b)
            lanes[b] = start + b;
        LoadBatch(inputs, targets, in_w, out_w, lanes, m, ws);
        ForwardBatch(mlp, ws);
        const double* out = ws->acts.back().data();
        const double* t = ws->targets.data();
        for (size_t b = 0; b < m; ++b) {
            for (size_t o = 0; o < out_w; ++o) {
                const double d = out[o * kBatch + b] - t[o * kBatch + b];
                total += d * d;
            }
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
        for (size_t start = 0; start < order.size(); start += kBatch) {
            const size_t m = std::min(kBatch, order.size() - start);
            for (auto& g : grads)
                std::fill(g.begin(), g.end(), 0.0);
            LoadBatch(train_inputs, train_targets, in_w, out_w,
                      order.data() + start, m, &ws);
            ForwardBatch(*mlp, &ws);
            BackpropBatch(*mlp, m, &ws, &grads, &epoch_sq);
            const double scale = lr / static_cast<double>(m);
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
