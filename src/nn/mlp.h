#ifndef RUMBA_NN_MLP_H_
#define RUMBA_NN_MLP_H_

/**
 * @file
 * A feed-forward multi-layer perceptron. This is the software model
 * of the network the approximate accelerator executes; the NPU model
 * (src/npu) consumes its weights and replays the same computation on
 * a fixed-point datapath.
 */

#include <optional>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/topology.h"

namespace rumba {
class Rng;
}

namespace rumba::nn {

/** One fully connected layer: out x (in + 1) weights, bias last. */
struct Layer {
    size_t in = 0;                 ///< inputs to the layer.
    size_t out = 0;                ///< neurons in the layer.
    Activation act = Activation::kSigmoid;  ///< activation applied.
    std::vector<double> weights;   ///< row-major [out][in + 1].

    /** Weight of neuron @p n for input @p i. */
    double& W(size_t n, size_t i) { return weights[n * (in + 1) + i]; }

    /** Const weight of neuron @p n for input @p i. */
    double W(size_t n, size_t i) const { return weights[n * (in + 1) + i]; }

    /** Bias of neuron @p n. */
    double& Bias(size_t n) { return weights[n * (in + 1) + in]; }

    /** Const bias of neuron @p n. */
    double Bias(size_t n) const { return weights[n * (in + 1) + in]; }
};

/** Feed-forward MLP with per-layer activations. */
class Mlp {
  public:
    /**
     * Build an MLP with @p hidden_act on hidden layers and
     * @p output_act on the last layer. Weights start at zero; call
     * RandomizeWeights() or deserialize before use.
     */
    explicit Mlp(const Topology& topology,
                 Activation hidden_act = Activation::kSigmoid,
                 Activation output_act = Activation::kSigmoid);

    /** The layer widths. */
    const Topology& GetTopology() const { return topology_; }

    /** Layers, input-side first. */
    const std::vector<Layer>& Layers() const { return layers_; }

    /** Mutable layers (the trainer updates weights in place). */
    std::vector<Layer>& MutableLayers() { return layers_; }

    /** Initialize weights uniformly in [-scale, scale]. */
    void RandomizeWeights(Rng* rng, double scale = 0.5);

    /** Run one forward pass. @p input size must match the topology. */
    std::vector<double> Forward(const std::vector<double>& input) const;

    /** Total trainable parameters. */
    size_t NumParameters() const;

    /** Serialize topology + weights to a line-oriented text blob. */
    std::string Serialize() const;

    /** Recreate an MLP from Serialize() output; nullopt when the blob
     *  is malformed (model text arrives as external data in
     *  deployment artifacts, where corruption is an input error). */
    static std::optional<Mlp> TryDeserialize(const std::string& blob);

  private:
    Topology topology_;
    std::vector<Layer> layers_;
};

}  // namespace rumba::nn

#endif  // RUMBA_NN_MLP_H_
