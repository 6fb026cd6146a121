#include "predict/linear.h"

#include "common/dataset.h"
#include "common/logging.h"
#include "common/matrix.h"

#include <sstream>

namespace rumba::predict {

LinearErrorPredictor::LinearErrorPredictor(double ridge) : ridge_(ridge)
{
    RUMBA_CHECK(ridge >= 0.0);
}

void
LinearErrorPredictor::Train(const Dataset& data)
{
    RUMBA_CHECK(!data.Empty());
    RUMBA_CHECK(data.NumTargets() == 1);
    const size_t n = data.NumInputs();
    const size_t dim = n + 1;  // + bias

    // Normal equations: (X'X + ridge*I) w = X'y with X rows
    // [x0 .. xn-1 1].
    Matrix xtx(dim, dim);
    std::vector<double> xty(dim, 0.0);
    std::vector<double> row(dim, 1.0);
    for (size_t s = 0; s < data.Size(); ++s) {
        const auto& x = data.Input(s);
        for (size_t i = 0; i < n; ++i)
            row[i] = x[i];
        row[n] = 1.0;
        const double y = data.Target(s)[0];
        for (size_t i = 0; i < dim; ++i) {
            xty[i] += row[i] * y;
            for (size_t j = i; j < dim; ++j)
                xtx.At(i, j) += row[i] * row[j];
        }
    }
    for (size_t i = 0; i < dim; ++i) {
        for (size_t j = 0; j < i; ++j)
            xtx.At(i, j) = xtx.At(j, i);
        xtx.At(i, i) += ridge_;
    }

    if (!xtx.Solve(xty, &weights_)) {
        // Degenerate inputs: retry with a heavier ridge.
        for (size_t i = 0; i < dim; ++i)
            xtx.At(i, i) += 1e-3;
        if (!xtx.Solve(xty, &weights_))
            Fatal("linear predictor: singular normal equations");
    }
}

double
LinearErrorPredictor::PredictError(const std::vector<double>& inputs,
                                   const std::vector<double>& /*outputs*/)
{
    RUMBA_CHECK(!weights_.empty());
    RUMBA_CHECK(inputs.size() + 1 == weights_.size());
    double err = weights_.back();
    for (size_t i = 0; i < inputs.size(); ++i)
        err += weights_[i] * inputs[i];
    return err;
}

sim::CheckerCost
LinearErrorPredictor::CostPerCheck() const
{
    sim::CheckerCost cost;
    const double dim = static_cast<double>(weights_.size());
    cost.macs = dim;            // one MAC per weight (bias included).
    cost.table_reads = dim;     // coefficient-buffer reads.
    cost.compares = 1.0;        // threshold comparison.
    cost.cycles = dim + 1.0;    // serial MAC chain + compare.
    return cost;
}

}  // namespace rumba::predict

std::string
rumba::predict::LinearErrorPredictor::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "linear " << ridge_ << " " << weights_.size();
    for (double w : weights_)
        out << " " << w;
    out << "\n";
    return out.str();
}

bool
rumba::predict::LinearErrorPredictor::FitsKernel(
    size_t num_inputs, size_t /*num_outputs*/) const
{
    return weights_.size() == num_inputs + 1;
}

std::optional<rumba::predict::LinearErrorPredictor>
rumba::predict::LinearErrorPredictor::TryDeserialize(
    const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    double ridge = 0.0;
    size_t count = 0;
    in >> tag >> ridge >> count;
    // Every weight takes at least two characters (" w").
    if (tag != "linear" || in.fail() || !(ridge >= 0.0) || count == 0 ||
        count > blob.size() / 2)
        return std::nullopt;
    LinearErrorPredictor p(ridge);
    p.weights_.resize(count);
    for (auto& w : p.weights_) {
        if (!(in >> w))
            return std::nullopt;
    }
    return p;
}
