#include "predict/evp.h"

#include <cmath>

#include "common/dataset.h"
#include "common/logging.h"
#include "common/matrix.h"

#include <sstream>

namespace rumba::predict {

ValuePredictionError::ValuePredictionError(double ridge) : ridge_(ridge) {}

void
ValuePredictionError::Train(const Dataset& data)
{
    RUMBA_CHECK(!data.Empty());
    const size_t n = data.NumInputs();
    const size_t dim = n + 1;
    num_outputs_ = data.NumTargets();

    // Shared Gram matrix, one right-hand side per output.
    Matrix xtx(dim, dim);
    std::vector<std::vector<double>> xty(num_outputs_,
                                         std::vector<double>(dim, 0.0));
    std::vector<double> row(dim, 1.0);
    for (size_t s = 0; s < data.Size(); ++s) {
        const auto& x = data.Input(s);
        for (size_t i = 0; i < n; ++i)
            row[i] = x[i];
        row[n] = 1.0;
        for (size_t i = 0; i < dim; ++i) {
            for (size_t j = i; j < dim; ++j)
                xtx.At(i, j) += row[i] * row[j];
            for (size_t o = 0; o < num_outputs_; ++o)
                xty[o][i] += row[i] * data.Target(s)[o];
        }
    }
    for (size_t i = 0; i < dim; ++i) {
        for (size_t j = 0; j < i; ++j)
            xtx.At(i, j) = xtx.At(j, i);
        xtx.At(i, i) += ridge_;
    }

    weights_.assign(num_outputs_, {});
    for (size_t o = 0; o < num_outputs_; ++o) {
        if (!xtx.Solve(xty[o], &weights_[o]))
            Fatal("EVP predictor: singular normal equations");
    }
}

double
ValuePredictionError::PredictError(
    const std::vector<double>& inputs,
    const std::vector<double>& approx_outputs)
{
    RUMBA_CHECK(!weights_.empty());
    RUMBA_CHECK(approx_outputs.size() == num_outputs_);
    double err = 0.0;
    for (size_t o = 0; o < num_outputs_; ++o) {
        const auto& w = weights_[o];
        RUMBA_CHECK(inputs.size() + 1 == w.size());
        double predicted = w.back();
        for (size_t i = 0; i < inputs.size(); ++i)
            predicted += w[i] * inputs[i];
        err += std::fabs(predicted - approx_outputs[o]);
    }
    return err / static_cast<double>(num_outputs_);
}

sim::CheckerCost
ValuePredictionError::CostPerCheck() const
{
    sim::CheckerCost cost;
    const double dim =
        weights_.empty() ? 1.0 : static_cast<double>(weights_[0].size());
    const double outs = static_cast<double>(std::max<size_t>(1,
                                                             num_outputs_));
    cost.macs = dim * outs;
    cost.table_reads = dim * outs;
    cost.compares = outs + 1;
    cost.cycles = dim * outs + 1;
    return cost;
}


std::string
ValuePredictionError::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "evp " << ridge_ << " " << num_outputs_ << " "
        << (weights_.empty() ? 0 : weights_[0].size());
    for (const auto& row : weights_)
        for (double w : row)
            out << " " << w;
    out << "\n";
    return out.str();
}

bool
ValuePredictionError::FitsKernel(size_t num_inputs,
                                 size_t num_outputs) const
{
    return num_outputs_ == num_outputs && !weights_.empty() &&
           weights_[0].size() == num_inputs + 1;
}

std::optional<ValuePredictionError>
ValuePredictionError::TryDeserialize(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    double ridge = 0.0;
    size_t outputs = 0, dim = 0;
    in >> tag >> ridge >> outputs >> dim;
    // Every weight takes at least two characters (" w"); divide
    // rather than multiply so the count cannot wrap.
    if (tag != "evp" || in.fail() || outputs == 0 || dim == 0 ||
        dim > blob.size() / 2 / outputs)
        return std::nullopt;
    ValuePredictionError p(ridge);
    p.num_outputs_ = outputs;
    p.weights_.assign(outputs, std::vector<double>(dim, 0.0));
    for (auto& row : p.weights_) {
        for (auto& w : row) {
            if (!(in >> w))
                return std::nullopt;
        }
    }
    return p;
}

}  // namespace rumba::predict
