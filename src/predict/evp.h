#ifndef RUMBA_PREDICT_EVP_H_
#define RUMBA_PREDICT_EVP_H_

/**
 * @file
 * EVP — Errors by Value Prediction (Section 3.2). Instead of
 * regressing the error directly (EEP), EVP regresses the *output*
 * from the inputs and estimates the error as the distance between its
 * predicted output and the accelerator's output. The paper measures
 * EVP to be ~2.5x less accurate than EEP on the Gaussian study; this
 * implementation exists to reproduce that comparison (fig05 bench).
 */

#include <optional>

#include "predict/predictor.h"

namespace rumba::predict {

/** Value-prediction error estimator (the EVP alternative). */
class ValuePredictionError : public ErrorPredictor {
  public:
    explicit ValuePredictionError(double ridge = 1e-6);

    std::string Name() const override { return "linearEVP"; }

    bool IsInputBased() const override { return true; }

    /**
     * Trains the value model. Unlike EEP predictors, @p data must
     * pair accelerator inputs with the *exact outputs* (any arity).
     */
    void Train(const rumba::Dataset& data) override;

    /** Mean |predicted output - accelerator output| across outputs. */
    double PredictError(const std::vector<double>& inputs,
                        const std::vector<double>& approx_outputs) override;

    sim::CheckerCost CostPerCheck() const override;

    std::string Serialize() const override;

    /** True when the value model reads @p num_inputs inputs (plus
     *  bias) and predicts @p num_outputs outputs. */
    bool FitsKernel(size_t num_inputs, size_t num_outputs) const override;

    /** Rebuild from Serialize() output; nullopt when malformed. */
    static std::optional<ValuePredictionError> TryDeserialize(
        const std::string& blob);

  private:
    double ridge_;
    size_t num_outputs_ = 0;
    /** weights_[o] holds input weights + bias for output o. */
    std::vector<std::vector<double>> weights_;
};

}  // namespace rumba::predict

#endif  // RUMBA_PREDICT_EVP_H_
