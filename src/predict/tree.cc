#include "predict/tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/dataset.h"
#include "common/logging.h"

#include <sstream>

namespace rumba::predict {

namespace {

/** Mean of targets over the sample subset. */
double
SubsetMean(const Dataset& data, const std::vector<size_t>& samples)
{
    double sum = 0.0;
    for (size_t s : samples)
        sum += data.Target(s)[0];
    return samples.empty() ? 0.0
                           : sum / static_cast<double>(samples.size());
}

/** Sum of squared deviations from the subset mean. */
double
SubsetSse(const Dataset& data, const std::vector<size_t>& samples)
{
    const double mean = SubsetMean(data, samples);
    double sse = 0.0;
    for (size_t s : samples) {
        const double d = data.Target(s)[0] - mean;
        sse += d * d;
    }
    return sse;
}

/** @p y when @p keep, else +0.0, selected by masking the bits: a
 *  compiler may turn a ternary here into a branch, and the side a
 *  sample falls on is a coin flip. */
double
KeepIf(bool keep, double y)
{
    return std::bit_cast<double>(std::bit_cast<uint64_t>(y) &
                                 -static_cast<uint64_t>(keep));
}

/**
 * Rearrange v[lo, hi) so that v[p] holds the p-th smallest value for
 * every p in the strictly ascending @p positions[0, count), all inside
 * [lo, hi): select the middle position, then recurse into each side.
 */
void
SelectOrderStatistics(double* v, size_t lo, size_t hi,
                      const size_t* positions, size_t count)
{
    if (count == 0)
        return;
    const size_t mid = count / 2;
    const size_t p = positions[mid];
    std::nth_element(v + lo, v + p, v + hi);
    SelectOrderStatistics(v, lo, p, positions, mid);
    SelectOrderStatistics(v, p + 1, hi, positions + mid + 1,
                          count - mid - 1);
}

}  // namespace

TreeErrorPredictor::TreeErrorPredictor() : TreeErrorPredictor(Options()) {}

TreeErrorPredictor::TreeErrorPredictor(const Options& options)
    : options_(options)
{
    RUMBA_CHECK(options.max_depth >= 1);
    RUMBA_CHECK(options.min_leaf_samples >= 1);
    RUMBA_CHECK(options.candidate_quantiles >= 2);
}

void
TreeErrorPredictor::Train(const Dataset& data)
{
    RUMBA_CHECK(!data.Empty());
    RUMBA_CHECK(data.NumTargets() == 1);
    nodes_.clear();
    trained_depth_ = 0;
    std::vector<size_t> all(data.Size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    Grow(data, std::move(all), 0);
}

int
TreeErrorPredictor::Grow(const Dataset& data, std::vector<size_t> samples,
                         size_t depth)
{
    trained_depth_ = std::max(trained_depth_, depth);
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<size_t>(index)].value = SubsetMean(data, samples);

    if (depth >= options_.max_depth ||
        samples.size() < 2 * options_.min_leaf_samples) {
        return index;
    }

    const double parent_sse = SubsetSse(data, samples);
    if (parent_sse < 1e-12)
        return index;

    // Best split over all features and candidate quantile thresholds.
    // The node's targets and feature columns are gathered once into
    // contiguous arrays, the candidates (the order statistics at
    // q * n / Q) are selected rather than sorted for, and both passes
    // per candidate are branch-free. Every sum adds the same terms in
    // the same sample order as a branchy pass over the samples would:
    // a sample on the other side adds +0.0, which leaves a sum that
    // started at +0.0 unchanged.
    const size_t n = samples.size();
    const size_t width = data.NumInputs();
    std::vector<double> ys(n), columns(width * n), selected(n);
    for (size_t i = 0; i < n; ++i) {
        const std::vector<double>& x = data.Input(samples[i]);
        for (size_t f = 0; f < width; ++f)
            columns[f * n + i] = x[f];
        ys[i] = data.Target(samples[i])[0];
    }
    std::vector<size_t> positions;
    for (size_t q = 1; q < options_.candidate_quantiles; ++q) {
        const size_t pos = q * n / options_.candidate_quantiles;
        if (positions.empty() || positions.back() != pos)
            positions.push_back(pos);
    }

    int best_feature = Node::kLeaf;
    double best_threshold = 0.0;
    double best_sse = parent_sse;
    for (size_t f = 0; f < width; ++f) {
        const double* values = columns.data() + f * n;
        selected.assign(values, values + n);
        SelectOrderStatistics(selected.data(), 0, n, positions.data(),
                              positions.size());
        const double lowest = *std::min_element(values, values + n);
        double previous = lowest;
        for (const size_t pos : positions) {
            // A candidate at the minimum leaves the left side empty,
            // and a repeat of the previous one scores the same and
            // cannot win the strict comparison below.
            const double threshold = selected[pos];
            if (threshold <= lowest || threshold == previous)
                continue;
            previous = threshold;
            double lsum = 0.0, rsum = 0.0;
            size_t ln = 0;
            for (size_t i = 0; i < n; ++i) {
                const bool left = values[i] < threshold;
                lsum += KeepIf(left, ys[i]);
                rsum += KeepIf(!left, ys[i]);
                ln += left ? 1 : 0;
            }
            const size_t rn = n - ln;
            if (ln < options_.min_leaf_samples ||
                rn < options_.min_leaf_samples) {
                continue;
            }
            const double lmean = lsum / static_cast<double>(ln);
            const double rmean = rsum / static_cast<double>(rn);
            double sse = 0.0;
            for (size_t i = 0; i < n; ++i) {
                const double d =
                    ys[i] - (values[i] < threshold ? lmean : rmean);
                sse += d * d;
            }
            if (sse < best_sse) {
                best_sse = sse;
                best_feature = static_cast<int>(f);
                best_threshold = threshold;
            }
        }
    }

    if (best_feature == Node::kLeaf || best_sse >= parent_sse * 0.999)
        return index;

    std::vector<size_t> left, right;
    for (size_t s : samples) {
        if (data.Input(s)[static_cast<size_t>(best_feature)] <
            best_threshold) {
            left.push_back(s);
        } else {
            right.push_back(s);
        }
    }
    samples.clear();
    samples.shrink_to_fit();

    const int left_child = Grow(data, std::move(left), depth + 1);
    const int right_child = Grow(data, std::move(right), depth + 1);
    Node& node = nodes_[static_cast<size_t>(index)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left_child;
    node.right = right_child;
    return index;
}

double
TreeErrorPredictor::PredictError(const std::vector<double>& inputs,
                                 const std::vector<double>& /*outputs*/)
{
    RUMBA_CHECK(!nodes_.empty());
    size_t node = 0;
    for (;;) {
        const Node& n = nodes_[node];
        if (n.feature == Node::kLeaf)
            return n.value;
        RUMBA_CHECK(static_cast<size_t>(n.feature) < inputs.size());
        node = static_cast<size_t>(
            inputs[static_cast<size_t>(n.feature)] < n.threshold ? n.left
                                                                 : n.right);
    }
}

size_t
TreeErrorPredictor::Depth() const
{
    return trained_depth_;
}

sim::CheckerCost
TreeErrorPredictor::CostPerCheck() const
{
    sim::CheckerCost cost;
    const double depth = static_cast<double>(std::max<size_t>(1, Depth()));
    cost.compares = depth + 1.0;   // node tests + final threshold test.
    cost.table_reads = depth;      // node-constant buffer reads.
    cost.cycles = depth + 1.0;
    return cost;
}


std::string
TreeErrorPredictor::Serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "tree " << options_.max_depth << " " << trained_depth_ << " "
        << nodes_.size() << "\n";
    for (const Node& n : nodes_) {
        out << n.feature << " " << n.threshold << " " << n.value << " "
            << n.left << " " << n.right << "\n";
    }
    return out.str();
}

bool
TreeErrorPredictor::FitsKernel(size_t num_inputs,
                               size_t /*num_outputs*/) const
{
    for (const Node& n : nodes_) {
        if (n.feature != Node::kLeaf &&
            static_cast<size_t>(n.feature) >= num_inputs)
            return false;
    }
    return true;
}

std::optional<TreeErrorPredictor>
TreeErrorPredictor::TryDeserialize(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    size_t max_depth = 0, depth = 0, count = 0;
    in >> tag >> max_depth >> depth >> count;
    // A node line takes at least ten characters ("-1 0 0 0 0\n"), and
    // a tree of count nodes is less than count deep.
    if (tag != "tree" || in.fail() || count == 0 ||
        count > blob.size() / 10 || depth >= count)
        return std::nullopt;
    Options opt;
    opt.max_depth = std::max<size_t>(1, max_depth);
    TreeErrorPredictor p(opt);
    p.trained_depth_ = depth;
    p.nodes_.resize(count);
    for (size_t i = 0; i < count; ++i) {
        Node& n = p.nodes_[i];
        if (!(in >> n.feature >> n.threshold >> n.value >> n.left >>
              n.right))
            return std::nullopt;
        if (n.feature == Node::kLeaf)
            continue;
        const auto child_ok = [&](int child) {
            return child > static_cast<int>(i) &&
                   static_cast<size_t>(child) < count;
        };
        if (n.feature < 0 || !child_ok(n.left) || !child_ok(n.right))
            return std::nullopt;
    }
    return p;
}

}  // namespace rumba::predict
