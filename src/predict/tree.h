#ifndef RUMBA_PREDICT_TREE_H_
#define RUMBA_PREDICT_TREE_H_

/**
 * @file
 * treeErrors: a CART-style regression tree over the accelerator
 * inputs (Figure 6 of the paper). Decision nodes compare one input
 * against a trained constant; leaves store the predicted error. The
 * paper caps the depth at 7, which we keep as the default; the online
 * check is at most `depth` comparisons on the hardware of
 * Figure 7(b).
 */

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "predict/predictor.h"

namespace rumba::predict {

/** Decision-tree (EEP) error predictor. */
class TreeErrorPredictor : public ErrorPredictor {
  public:
    /** Tree-growing parameters. */
    struct Options {
        size_t max_depth = 7;          ///< paper's depth cap.
        size_t min_leaf_samples = 8;   ///< stop splitting below this.
        size_t candidate_quantiles = 16;  ///< split thresholds tried
                                          ///< per feature.
    };

    TreeErrorPredictor();
    explicit TreeErrorPredictor(const Options& options);

    std::string Name() const override { return "treeErrors"; }

    bool IsInputBased() const override { return true; }

    void Train(const rumba::Dataset& data) override;

    double PredictError(const std::vector<double>& inputs,
                        const std::vector<double>& approx_outputs) override;

    sim::CheckerCost CostPerCheck() const override;

    std::string Serialize() const override;

    /** True when every decision node tests one of @p num_inputs
     *  inputs. */
    bool FitsKernel(size_t num_inputs, size_t num_outputs) const override;

    /**
     * Rebuild from Serialize() output; nullopt when malformed. Every
     * decision node's children must lie after it and inside the tree
     * (the pre-order Grow() builds), so a walk always ends at a leaf.
     */
    static std::optional<TreeErrorPredictor> TryDeserialize(
        const std::string& blob);

    /** Nodes in the trained tree (tests/inspection). */
    size_t NumNodes() const { return nodes_.size(); }

    /** Depth actually reached by training. */
    size_t Depth() const;

  private:
    /** One tree node; leaves have feature == kLeaf. */
    struct Node {
        static constexpr int kLeaf = -1;
        int feature = kLeaf;      ///< input index tested, or kLeaf.
        double threshold = 0.0;   ///< go left when x[feature] < threshold.
        double value = 0.0;       ///< leaf prediction.
        int left = -1;            ///< left child index.
        int right = -1;           ///< right child index.
    };

    int Grow(const rumba::Dataset& data, std::vector<size_t> samples,
             size_t depth);

    Options options_;
    std::vector<Node> nodes_;
    size_t trained_depth_ = 0;
};

}  // namespace rumba::predict

#endif  // RUMBA_PREDICT_TREE_H_
