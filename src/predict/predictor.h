#ifndef RUMBA_PREDICT_PREDICTOR_H_
#define RUMBA_PREDICT_PREDICTOR_H_

/**
 * @file
 * Light-weight approximation-error predictors (Section 3.2 of the
 * paper). A predictor estimates, for each accelerator invocation, how
 * wrong the approximate output is — without access to the exact
 * result. Input-based predictors (linear model, decision tree) look
 * at the accelerator's inputs; output-based predictors (EMA) look at
 * the stream of approximate outputs.
 *
 * Predictors follow the paper's EEP design: they are trained offline
 * to regress the *error* directly (shown in Section 3.2 to beat
 * predicting the value and differencing, the EVP alternative, which
 * is also implemented for the comparison study).
 */

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/energy_model.h"

namespace rumba {
class Dataset;
}

namespace rumba::predict {

/** Interface of an online error checker. */
class ErrorPredictor {
  public:
    virtual ~ErrorPredictor() = default;

    /** Human-readable scheme name ("linearErrors", "treeErrors", ...). */
    virtual std::string Name() const = 0;

    /** True when the checker reads accelerator inputs (Section 3.5
     *  placement applies); false for output-based checkers. */
    virtual bool IsInputBased() const = 0;

    /**
     * Offline training. @p data pairs accelerator inputs (normalized)
     * with the observed scalar element error of the accelerator on
     * the training inputs. Output-based predictors may ignore it.
     */
    virtual void Train(const rumba::Dataset& data) = 0;

    /**
     * Predict the current invocation's error.
     * @param inputs normalized accelerator inputs.
     * @param approx_outputs the accelerator's (approximate) outputs,
     *        normalized; used by output-based predictors.
     */
    virtual double PredictError(const std::vector<double>& inputs,
                                const std::vector<double>& approx_outputs)
        = 0;

    /** Clear any sequential state (EMA history) between runs. */
    virtual void Reset() {}

    /** Hardware cost of one check, for the energy/timing models. */
    virtual sim::CheckerCost CostPerCheck() const = 0;

    /**
     * Serialize the trained configuration to a text blob — the
     * "configuration parameters ... embedded in the binary" of
     * Figure 4. Rebuild with DeserializePredictor().
     */
    virtual std::string Serialize() const = 0;

    /**
     * True when this checker can score a kernel with @p num_inputs
     * inputs and @p num_outputs outputs; a rebuilt checker must fit
     * the kernel it is deployed on. Output-stream checkers fit any.
     */
    virtual bool
    FitsKernel(size_t /*num_inputs*/, size_t /*num_outputs*/) const
    {
        return true;
    }
};

/**
 * Rebuild a trained checker from ErrorPredictor::Serialize() output.
 * Dispatches on the blob's leading tag; fatal on malformed input.
 */
std::unique_ptr<ErrorPredictor> DeserializePredictor(
    const std::string& blob);

/**
 * Rebuild a trained checker without dying: nullptr when the blob's
 * leading tag names no known scheme or the blob is malformed
 * (fallible artifact loaders check this, and FitsKernel(), before
 * committing to a runtime). The blob is read through a const
 * reference only — shards of a serving engine deserialize their
 * replicas from one shared artifact.
 */
std::unique_ptr<ErrorPredictor> TryDeserializePredictor(
    const std::string& blob);

}  // namespace rumba::predict

#endif  // RUMBA_PREDICT_PREDICTOR_H_
