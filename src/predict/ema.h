#ifndef RUMBA_PREDICT_EMA_H_
#define RUMBA_PREDICT_EMA_H_

/**
 * @file
 * EMA: the output-based checker (Section 3.2.3, Equation 2). It keeps
 * an exponential moving average of each output dimension and flags an
 * element whose output deviates from the running average. Requires no
 * training and no access to inputs, but only works when neighbouring
 * outputs are correlated.
 */

#include <optional>
#include <string>
#include <vector>

#include "predict/predictor.h"

namespace rumba::predict {

/** Exponential-moving-average output deviation detector. */
class EmaDetector : public ErrorPredictor {
  public:
    /**
     * @p history is N in alpha = 2/(1+N) — the effective window of
     * the moving average.
     */
    explicit EmaDetector(size_t history = 8);

    std::string Name() const override { return "EMA"; }

    bool IsInputBased() const override { return false; }

    /** EMA needs no offline training; this is a no-op. */
    void Train(const rumba::Dataset& data) override;

    double PredictError(const std::vector<double>& inputs,
                        const std::vector<double>& approx_outputs) override;

    void Reset() override;

    sim::CheckerCost CostPerCheck() const override;

    std::string Serialize() const override;

    /** Rebuild from Serialize() output. */
    static std::optional<EmaDetector> TryDeserialize(
        const std::string& blob);

    /** Smoothing factor alpha = 2/(1+N). */
    double Alpha() const { return alpha_; }

  private:
    double alpha_;
    std::vector<double> ema_;  ///< per-output running average.
    bool primed_ = false;
};

}  // namespace rumba::predict

#endif  // RUMBA_PREDICT_EMA_H_
