#include "predict/ema.h"

#include <cmath>

#include "common/logging.h"

#include <sstream>

namespace rumba::predict {

EmaDetector::EmaDetector(size_t history)
    : alpha_(2.0 / (1.0 + static_cast<double>(history)))
{
    RUMBA_CHECK(history >= 1);
}

void
EmaDetector::Train(const Dataset& /*data*/)
{
    // Output-based: no offline model.
}

double
EmaDetector::PredictError(const std::vector<double>& /*inputs*/,
                          const std::vector<double>& approx_outputs)
{
    RUMBA_CHECK(!approx_outputs.empty());
    if (!primed_ || ema_.size() != approx_outputs.size()) {
        ema_ = approx_outputs;
        primed_ = true;
        return 0.0;
    }
    // Deviation of this element from the running average, then fold
    // the element into the average (Equation 2).
    double deviation = 0.0;
    for (size_t d = 0; d < approx_outputs.size(); ++d) {
        deviation += std::fabs(approx_outputs[d] - ema_[d]);
        ema_[d] = approx_outputs[d] * alpha_ + ema_[d] * (1.0 - alpha_);
    }
    return deviation / static_cast<double>(approx_outputs.size());
}

void
EmaDetector::Reset()
{
    ema_.clear();
    primed_ = false;
}

sim::CheckerCost
EmaDetector::CostPerCheck() const
{
    sim::CheckerCost cost;
    const double dims = ema_.empty() ? 1.0
                                     : static_cast<double>(ema_.size());
    cost.ema_updates = dims;   // 2 multiplies + add per dimension.
    cost.compares = dims + 1;  // |out - ema| + threshold test.
    cost.cycles = 2.0 + dims;
    return cost;
}


std::string
EmaDetector::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "ema " << alpha_ << "\n";
    return out.str();
}

std::optional<EmaDetector>
EmaDetector::TryDeserialize(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    double alpha = 0.0;
    in >> tag >> alpha;
    if (tag != "ema" || in.fail() || !(alpha > 0.0 && alpha <= 1.0))
        return std::nullopt;
    EmaDetector d(1);
    d.alpha_ = alpha;
    return d;
}

}  // namespace rumba::predict
