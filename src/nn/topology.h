#ifndef RUMBA_NN_TOPOLOGY_H_
#define RUMBA_NN_TOPOLOGY_H_

/**
 * @file
 * MLP topology descriptor in the paper's "6->8->4->1" notation
 * (Table 1).
 */

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace rumba::nn {

/** Layer widths of an MLP, input first, output last. */
struct Topology {
    /** Bounds on what a parsed topology may name: far above every
     *  Table 1 network (the widest is jpeg's 64). */
    static constexpr size_t kMaxWidth = 4096;
    static constexpr size_t kMaxLayers = 16;

    std::vector<size_t> layers;

    /** "a->b->c" rendering matching Table 1 of the paper. */
    std::string ToString() const;

    /** Parse the "a->b->c" notation; fatal on malformed input. */
    static Topology Parse(const std::string& text);

    /** Parse() that reports malformed input instead of dying — for
     *  blobs that arrive as external data (deployment artifacts).
     *  Every token must be a whole decimal number in [1, kMaxWidth]
     *  (no sign, space or suffix), and there are 2 to kMaxLayers. */
    static std::optional<Topology> TryParse(const std::string& text);

    /** Number of inputs. */
    size_t NumInputs() const { return layers.front(); }

    /** Number of outputs. */
    size_t NumOutputs() const { return layers.back(); }

    /** Hidden layer count. */
    size_t NumHiddenLayers() const { return layers.size() - 2; }

    /** Total non-input neurons (what the NPU must schedule). */
    size_t NumNeurons() const;

    /** Multiply-accumulate operations per forward pass (incl. bias). */
    size_t MacsPerInvocation() const;

    bool operator==(const Topology& other) const = default;
};

}  // namespace rumba::nn

#endif  // RUMBA_NN_TOPOLOGY_H_
