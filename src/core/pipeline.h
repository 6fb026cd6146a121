#ifndef RUMBA_CORE_PIPELINE_H_
#define RUMBA_CORE_PIPELINE_H_

/**
 * @file
 * The offline half of Figure 4: for a benchmark, train the
 * accelerator networks (Rumba's and the unchecked NPU's topologies),
 * fit the input/output normalizers, configure accelerators, and train
 * the error predictors against the accelerator's observed training
 * errors. Both the evaluation harness (experiment.h) and the online
 * runtime (runtime.h) build on this.
 */

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "apps/benchmark.h"
#include "common/dataset.h"
#include "core/schemes.h"
#include "npu/npu.h"
#include "predict/compensator.h"
#include "predict/predictor.h"

namespace rumba::core {

/** Offline-training knobs. */
struct PipelineConfig {
    size_t train_epochs = 120;     ///< NN trainer epochs.
    uint64_t seed = 7;             ///< weight init / shuffling seed.
    /** Subsample caps for quick runs (0 = use everything). */
    size_t max_train_elements = 0;
    size_t max_test_elements = 0;
    npu::NpuConfig npu;            ///< accelerator configuration.
};

struct Artifact;

/** Trained artifacts for one benchmark. */
class Pipeline {
  public:
    /** Run the full offline flow for @p bench. Takes ownership. */
    Pipeline(std::unique_ptr<apps::Benchmark> bench,
             const PipelineConfig& config);

    /**
     * Restore a previously exported configuration: loads networks and
     * normalizers from @p artifact instead of training. TrainErrors()
     * is empty on such a pipeline (no offline run happened), so
     * TrainPredictor()/threshold calibration are unavailable — the
     * artifact carries the trained checker and threshold instead.
     */
    Pipeline(std::unique_ptr<apps::Benchmark> bench,
             const PipelineConfig& config, const Artifact& artifact);

    /**
     * Export the trained configuration (networks + normalizers) plus
     * the given checker and threshold as a deployable artifact; waits
     * for the unchecked-NPU network (NpuMlp()).
     * @p compensator, when non-null and trained, rides along as the
     * artifact's optional compensator section.
     */
    Artifact ExportArtifact(
        const predict::ErrorPredictor& predictor, double threshold,
        const predict::Compensator* compensator = nullptr) const;

    /** The application. */
    const apps::Benchmark& Bench() const { return *bench_; }

    /** The offline configuration used. */
    const PipelineConfig& Config() const { return config_; }

    /** Raw (unnormalized) training element inputs, after capping. */
    const std::vector<std::vector<double>>& TrainInputs() const
    {
        return train_inputs_;
    }

    /** Raw test element inputs, after capping. */
    const std::vector<std::vector<double>>& TestInputs() const
    {
        return test_inputs_;
    }

    /** Trained network with the Rumba topology. */
    const nn::Mlp& RumbaMlp() const { return *rumba_mlp_; }

    /** Trained network with the unchecked-NPU topology. A training
     *  pipeline may still be training it on its own thread; this
     *  waits until it is done. */
    const nn::Mlp& NpuMlp() const { return npu_mlp_.get(); }

    /** Normalize one element's raw inputs into the NN domain. */
    std::vector<double> NormalizeInput(
        const std::vector<double>& raw) const;

    /** NormalizeInput() over a borrowed element buffer into a
     *  reusable scratch vector (hot-path form, no allocation once
     *  @p out has capacity). */
    void NormalizeInput(const double* raw, std::vector<double>* out)
        const;

    /** Map one element's raw outputs into the NN domain (the forward
     *  direction of the output normalizer; hot-path borrowed-buffer
     *  form). The compensator's feature builder uses this to fold the
     *  approximate outputs into its feature vector. */
    void NormalizeOutput(const double* raw, std::vector<double>* out)
        const;

    /** Map NN-domain outputs back into the raw output domain. */
    std::vector<double> DenormalizeOutput(
        const std::vector<double>& norm) const;

    /** DenormalizeOutput() into a reusable scratch vector. */
    void DenormalizeOutput(const std::vector<double>& norm,
                           std::vector<double>* out) const;

    /**
     * Build an accelerator configured with the requested network.
     * @param use_rumba_topology true for Rumba's (smaller) network;
     *        false waits for the unchecked-NPU network (NpuMlp()).
     */
    npu::Npu MakeAccelerator(bool use_rumba_topology) const;

    /**
     * Run @p accel over raw element inputs, returning raw-domain
     * approximate outputs (normalize -> invoke -> denormalize).
     */
    std::vector<std::vector<double>> RunAccelerator(
        npu::Npu* accel,
        const std::vector<std::vector<double>>& raw_inputs) const;

    /** Receives element @p index's NN-domain inputs and raw-domain
     *  approximate outputs; both views die when the call returns. */
    using ApproxVisitor =
        std::function<void(size_t index, const std::vector<double>& norm_in,
                           const std::vector<double>& raw_out)>;

    /**
     * RunAccelerator() through reused scratch buffers: streams each
     * element through @p accel — exactly one Invoke per element, in
     * order — and hands the result to @p visit before the next
     * element is invoked. The offline passes (training errors, the
     * compensator's refine set, threshold calibration) use this form.
     */
    void ForEachApproximate(
        npu::Npu* accel,
        const std::vector<std::vector<double>>& raw_inputs,
        const ApproxVisitor& visit) const;

    /**
     * Instantiate an untrained checker for a predictor scheme
     * (kEma / kLinear / kTree); fatal otherwise.
     */
    static std::unique_ptr<predict::ErrorPredictor> MakePredictor(
        Scheme scheme);

    /**
     * Offline-train a checker (Figure 4's "error predictor trainer"):
     * runs the Rumba-topology accelerator over the training elements,
     * computes each element's true error, and fits the predictor to
     * map normalized inputs -> error. EMA needs no fitting but is
     * returned for uniformity.
     */
    std::unique_ptr<predict::ErrorPredictor> TrainPredictor(
        Scheme scheme) const;

    /**
     * Offline-train the self-compensation model (the recovery middle
     * tier's executor): runs the Rumba-topology accelerator over the
     * training elements on the calling thread to build the refine set
     * (normalized features -> signed NN-domain residuals exact −
     * approximate), then fits the residual network on a thread of its
     * own. The returned future owns that thread; get() waits for it.
     * Requires an offline training run — unavailable (checked-fatal)
     * on an artifact-restored pipeline, whose artifact carries the
     * trained compensator instead.
     */
    std::future<predict::Compensator> TrainCompensator() const;

    /**
     * True per-element errors of the Rumba-topology accelerator on
     * the *training* elements (predictor targets; also useful for
     * threshold calibration).
     */
    const std::vector<double>& TrainErrors() const
    {
        return train_errors_;
    }

  private:
    std::unique_ptr<apps::Benchmark> bench_;
    PipelineConfig config_;
    std::vector<std::vector<double>> train_inputs_;
    std::vector<std::vector<double>> test_inputs_;
    Normalizer in_norm_;
    Normalizer out_norm_;
    std::optional<nn::Mlp> rumba_mlp_;
    /** Ready once the unchecked-NPU network is trained. The trainer
     *  owns its inputs, and the last copy of this future waits for it,
     *  so a pipeline destroyed mid-training joins the thread first. */
    std::shared_future<nn::Mlp> npu_mlp_;
    std::vector<double> train_errors_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_PIPELINE_H_
