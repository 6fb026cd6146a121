#include "common/dataset.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace rumba {

Dataset::Dataset(size_t num_inputs, size_t num_targets)
    : num_inputs_(num_inputs), num_targets_(num_targets)
{
    RUMBA_CHECK(num_inputs > 0);
    RUMBA_CHECK(num_targets > 0);
}

void
Dataset::Add(std::vector<double> input, std::vector<double> target)
{
    RUMBA_CHECK(input.size() == num_inputs_);
    RUMBA_CHECK(target.size() == num_targets_);
    inputs_.push_back(std::move(input));
    targets_.push_back(std::move(target));
}

void
Dataset::SetTarget(size_t i, std::vector<double> target)
{
    RUMBA_CHECK(i < targets_.size());
    RUMBA_CHECK(target.size() == num_targets_);
    targets_[i] = std::move(target);
}

void
Dataset::Shuffle(Rng* rng)
{
    RUMBA_CHECK(rng != nullptr);
    for (size_t i = inputs_.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng->Below(i));
        std::swap(inputs_[i - 1], inputs_[j]);
        std::swap(targets_[i - 1], targets_[j]);
    }
}

Dataset
Dataset::TakeFront(double fraction)
{
    RUMBA_CHECK(fraction >= 0.0 && fraction <= 1.0);
    const size_t take = static_cast<size_t>(
        fraction * static_cast<double>(inputs_.size()));
    Dataset front(num_inputs_, num_targets_);
    for (size_t i = 0; i < take; ++i) {
        front.inputs_.push_back(std::move(inputs_[i]));
        front.targets_.push_back(std::move(targets_[i]));
    }
    inputs_.erase(inputs_.begin(),
                  inputs_.begin() + static_cast<ptrdiff_t>(take));
    targets_.erase(targets_.begin(),
                   targets_.begin() + static_cast<ptrdiff_t>(take));
    return front;
}

void
Normalizer::Fit(const std::vector<std::vector<double>>& rows)
{
    RUMBA_CHECK(!rows.empty());
    const size_t arity = rows[0].size();
    lo_.assign(arity, 1.0 / 0.0);
    hi_.assign(arity, -1.0 / 0.0);
    for (const auto& row : rows) {
        for (size_t f = 0; f < arity; ++f) {
            lo_[f] = std::min(lo_[f], row[f]);
            hi_[f] = std::max(hi_[f], row[f]);
        }
    }
}

void
Normalizer::FitInputs(const Dataset& data)
{
    Fit(data.inputs_);
}

void
Normalizer::FitTargets(const Dataset& data)
{
    Fit(data.targets_);
}

std::vector<double>
Normalizer::Apply(const std::vector<double>& raw) const
{
    RUMBA_CHECK(raw.size() == lo_.size());
    std::vector<double> out;
    Apply(raw.data(), raw.size(), &out);
    return out;
}

void
Normalizer::Apply(const double* raw, size_t n,
                  std::vector<double>* out) const
{
    RUMBA_CHECK(n == lo_.size());
    out->resize(n);
    for (size_t f = 0; f < n; ++f) {
        const double span = hi_[f] - lo_[f];
        (*out)[f] = span > 0.0 ? (raw[f] - lo_[f]) / span : 0.5;
    }
}

std::string
Normalizer::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "norm " << lo_.size();
    for (double v : lo_)
        out << " " << v;
    for (double v : hi_)
        out << " " << v;
    out << "\n";
    return out.str();
}

std::optional<Normalizer>
Normalizer::TryDeserialize(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    size_t arity = 0;
    in >> tag >> arity;
    // Every bound takes at least two characters (" v"), two per
    // feature.
    if (tag != "norm" || in.fail() || arity > blob.size() / 4)
        return std::nullopt;
    Normalizer n;
    n.lo_.resize(arity);
    n.hi_.resize(arity);
    for (std::vector<double>* bounds : {&n.lo_, &n.hi_}) {
        for (double& v : *bounds) {
            if (!(in >> v))
                return std::nullopt;
        }
    }
    return n;
}

std::vector<double>
Normalizer::Invert(const std::vector<double>& norm) const
{
    RUMBA_CHECK(norm.size() == lo_.size());
    std::vector<double> out;
    Invert(norm.data(), norm.size(), &out);
    return out;
}

void
Normalizer::Invert(const double* norm, size_t n,
                   std::vector<double>* out) const
{
    RUMBA_CHECK(n == lo_.size());
    out->resize(n);
    for (size_t f = 0; f < n; ++f) {
        const double span = hi_[f] - lo_[f];
        (*out)[f] = span > 0.0 ? lo_[f] + norm[f] * span : lo_[f];
    }
}

}  // namespace rumba
