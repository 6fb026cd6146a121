#ifndef RUMBA_PREDICT_LINEAR_H_
#define RUMBA_PREDICT_LINEAR_H_

/**
 * @file
 * linearErrors: err = w0*x0 + w1*x1 + ... + c (Equation 1 of the
 * paper). Weights come from offline ridge regression; the online
 * check is one multiply-add per input on the checker hardware of
 * Figure 7(a).
 */

#include <optional>

#include "predict/predictor.h"

namespace rumba::predict {

/** Linear (EEP) error predictor. */
class LinearErrorPredictor : public ErrorPredictor {
  public:
    /** @p ridge is the L2 regularization added to the normal
     *  equations (keeps them well-posed on collinear inputs). */
    explicit LinearErrorPredictor(double ridge = 1e-6);

    std::string Name() const override { return "linearErrors"; }

    bool IsInputBased() const override { return true; }

    void Train(const rumba::Dataset& data) override;

    double PredictError(const std::vector<double>& inputs,
                        const std::vector<double>& approx_outputs) override;

    sim::CheckerCost CostPerCheck() const override;

    std::string Serialize() const override;

    /** True when the weights cover @p num_inputs inputs plus bias. */
    bool FitsKernel(size_t num_inputs, size_t num_outputs) const override;

    /** Rebuild from Serialize() output; nullopt when malformed. */
    static std::optional<LinearErrorPredictor> TryDeserialize(
        const std::string& blob);

    /** Trained weights, bias last; empty before Train(). */
    const std::vector<double>& Weights() const { return weights_; }

  private:
    double ridge_;
    std::vector<double> weights_;  ///< size = num inputs + 1 (bias last).
};

}  // namespace rumba::predict

#endif  // RUMBA_PREDICT_LINEAR_H_
