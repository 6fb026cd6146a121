#include "nn/mlp.h"

#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace rumba::nn {

Mlp::Mlp(const Topology& topology, Activation hidden_act,
         Activation output_act)
    : topology_(topology)
{
    RUMBA_CHECK(topology.layers.size() >= 2);
    for (size_t i = 1; i < topology.layers.size(); ++i) {
        Layer layer;
        layer.in = topology.layers[i - 1];
        layer.out = topology.layers[i];
        layer.act = (i + 1 == topology.layers.size()) ? output_act
                                                      : hidden_act;
        layer.weights.assign(layer.out * (layer.in + 1), 0.0);
        layers_.push_back(std::move(layer));
    }
}

void
Mlp::RandomizeWeights(Rng* rng, double scale)
{
    RUMBA_CHECK(rng != nullptr);
    for (auto& layer : layers_)
        for (auto& w : layer.weights)
            w = rng->Uniform(-scale, scale);
}

std::vector<double>
Mlp::Forward(const std::vector<double>& input) const
{
    RUMBA_CHECK(input.size() == topology_.NumInputs());
    std::vector<double> current = input;
    std::vector<double> next;
    for (const auto& layer : layers_) {
        next.assign(layer.out, 0.0);
        for (size_t n = 0; n < layer.out; ++n) {
            double sum = layer.Bias(n);
            for (size_t i = 0; i < layer.in; ++i)
                sum += layer.W(n, i) * current[i];
            next[n] = Evaluate(layer.act, sum);
        }
        current.swap(next);
    }
    return current;
}

size_t
Mlp::NumParameters() const
{
    size_t n = 0;
    for (const auto& layer : layers_)
        n += layer.weights.size();
    return n;
}

std::string
Mlp::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "mlp " << topology_.ToString() << "\n";
    for (const auto& layer : layers_) {
        out << "layer " << Name(layer.act);
        for (double w : layer.weights)
            out << " " << w;
        out << "\n";
    }
    return out.str();
}

std::optional<Mlp>
Mlp::TryDeserialize(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag, topo_text;
    in >> tag >> topo_text;
    if (tag != "mlp" || in.fail())
        return std::nullopt;
    const std::optional<Topology> topo = Topology::TryParse(topo_text);
    // Every weight takes at least two characters (" w"): a blob too
    // short for the weights its topology names is refused before they
    // are allocated.
    if (!topo.has_value() || topo->MacsPerInvocation() > blob.size() / 2)
        return std::nullopt;
    Mlp mlp(*topo);
    for (auto& layer : mlp.layers_) {
        std::string act_name;
        in >> tag >> act_name;
        if (tag != "layer" || in.fail())
            return std::nullopt;
        if (act_name == "sigmoid") {
            layer.act = Activation::kSigmoid;
        } else if (act_name == "tanh") {
            layer.act = Activation::kTanh;
        } else if (act_name == "linear") {
            layer.act = Activation::kLinear;
        } else {
            return std::nullopt;
        }
        for (auto& w : layer.weights) {
            if (!(in >> w))
                return std::nullopt;
        }
    }
    return mlp;
}

}  // namespace rumba::nn
