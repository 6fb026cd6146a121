#ifndef RUMBA_COMMON_DATASET_H_
#define RUMBA_COMMON_DATASET_H_

/**
 * @file
 * Supervised-learning dataset container shared by the neural-network
 * trainer (the accelerator's offline trainer) and the error-predictor
 * trainer (Rumba's offline trainer).
 */

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rumba {

class Rng;

/** A supervised dataset: rows of inputs with matching target rows. */
class Dataset {
  public:
    /** Empty dataset with the given arities. */
    Dataset(size_t num_inputs, size_t num_targets);

    /** Input arity (features per sample). */
    size_t NumInputs() const { return num_inputs_; }

    /** Target arity (values per sample). */
    size_t NumTargets() const { return num_targets_; }

    /** Number of samples. */
    size_t Size() const { return inputs_.size(); }

    bool Empty() const { return inputs_.empty(); }

    /** Append one sample; vector sizes must match the arities. */
    void Add(std::vector<double> input, std::vector<double> target);

    /** Input row @p i. */
    const std::vector<double>& Input(size_t i) const { return inputs_[i]; }

    /** Target row @p i. */
    const std::vector<double>& Target(size_t i) const { return targets_[i]; }

    /** Replace target row @p i (used when deriving error datasets). */
    void SetTarget(size_t i, std::vector<double> target);

    /** Deterministically shuffle samples in place. */
    void Shuffle(Rng* rng);

    /**
     * Split off the first @p fraction of samples into a new dataset,
     * leaving the remainder in this one (caller shuffles first if
     * randomization is wanted).
     */
    Dataset TakeFront(double fraction);

  private:
    friend class Normalizer;

    size_t num_inputs_;
    size_t num_targets_;
    std::vector<std::vector<double>> inputs_;
    std::vector<std::vector<double>> targets_;
};

/**
 * Per-feature affine normalizer mapping observed [min, max] to [0, 1].
 * Constant features map to 0.5. Used so NPU fixed-point ranges and NN
 * training see well-scaled values.
 */
class Normalizer {
  public:
    /** Identity normalizer of arity 0; call Fit() before use. */
    Normalizer() = default;

    /** Learn per-feature ranges from the dataset's inputs. */
    void FitInputs(const Dataset& data);

    /** Learn per-feature ranges from the dataset's targets. */
    void FitTargets(const Dataset& data);

    /** Number of features this normalizer was fit on. */
    size_t Arity() const { return lo_.size(); }

    /** Map a raw vector into [0, 1] per feature. */
    std::vector<double> Apply(const std::vector<double>& raw) const;

    /** Apply() over a borrowed buffer into a reusable scratch vector
     *  (hot-path form: no per-element allocation once @p out has
     *  capacity). */
    void Apply(const double* raw, size_t n,
               std::vector<double>* out) const;

    /** Inverse of Apply(). */
    std::vector<double> Invert(const std::vector<double>& norm) const;

    /** Invert() over a borrowed buffer into a reusable scratch. */
    void Invert(const double* norm, size_t n,
                std::vector<double>* out) const;

    /** Serialize ranges to a one-line text record. */
    std::string Serialize() const;

    /** Rebuild from Serialize() output; nullopt when malformed. A
     *  blob too short for the arity it declares is refused before the
     *  bounds are allocated. */
    static std::optional<Normalizer> TryDeserialize(
        const std::string& blob);

  private:
    void Fit(const std::vector<std::vector<double>>& rows);

    std::vector<double> lo_;
    std::vector<double> hi_;
};

}  // namespace rumba

#endif  // RUMBA_COMMON_DATASET_H_
