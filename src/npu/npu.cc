#include "npu/npu.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timer.h"

namespace rumba::npu {

namespace {

/**
 * Flip one injector-chosen bit in every armed entry of @p lut —
 * models single-event upsets in the activation-table SRAM. Runs at
 * Configure() time; the corruption persists for the accelerator's
 * lifetime, exactly like a real stuck SRAM cell.
 */
size_t
CorruptLut(SigmoidLut* lut, fault::FaultInjector* injector)
{
    size_t corrupted = 0;
    for (size_t i = 0; i < lut->Entries(); ++i) {
        if (!injector->ShouldInject(fault::FaultClass::kNpuLutCorrupt))
            continue;
        const int16_t word = lut->RawEntry(i);
        lut->SetRawEntry(
            i, static_cast<int16_t>(
                   word ^ static_cast<int16_t>(
                              1 << (injector->Draw(
                                        fault::FaultClass::kNpuLutCorrupt) &
                                    15))));
        ++corrupted;
    }
    return corrupted;
}

}  // namespace

Npu::Npu(const NpuConfig& config)
    : config_(config),
      sigmoid_lut_(nn::Activation::kSigmoid, config.lut_entries,
                   config.lut_range, config.format),
      tanh_lut_(nn::Activation::kTanh, config.lut_entries, config.lut_range,
                config.format),
      obs_invocations_(
          obs::Registry::Default().GetCounter("npu.invocations")),
      obs_invoke_ns_(
          obs::Registry::Default().GetHistogram("npu.invoke_ns"))
{
    RUMBA_CHECK(config.num_pes > 0);
}

void
Npu::Configure(const nn::Mlp& mlp)
{
    layers_.clear();
    topology_ = mlp.GetTopology();
    for (const auto& layer : mlp.Layers()) {
        QuantLayer q;
        q.in = layer.in;
        q.out = layer.out;
        q.act = layer.act;
        q.weights.reserve(layer.weights.size());
        for (double w : layer.weights)
            q.weights.push_back(config_.format.Quantize(w));
        stats_.config_words += q.weights.size();
        layers_.push_back(std::move(q));
    }
    schedule_ = BuildSchedule(topology_, config_.num_pes);

    auto& injector = fault::FaultInjector::Default();
    if (injector.Enabled(fault::FaultClass::kNpuLutCorrupt)) {
        const size_t upsets = CorruptLut(&sigmoid_lut_, &injector) +
                              CorruptLut(&tanh_lut_, &injector);
        if (upsets > 0)
            Debug("npu: %zu activation-LUT words corrupted by fault plan",
                  upsets);
    }
}

std::vector<double>
Npu::Invoke(const std::vector<double>& input)
{
    std::vector<double> out;
    Invoke(input, &out);
    return out;
}

void
Npu::Invoke(const std::vector<double>& input,
            std::vector<double>* output)
{
    RUMBA_CHECK(Configured());
    RUMBA_CHECK(input.size() == topology_.NumInputs());
    RUMBA_CHECK(output != nullptr);
    const obs::ScopedTimer timer(obs_invoke_ns_);
    // Sampling-profiler tag (obs/profiler.h): any caller — the
    // runtime's stream loop, calibration replay, the trainer — shows
    // as "device" in folded stacks. Elided when the caller already
    // tagged device, so no "device;device" frames.
    const obs::StageScope device_tag(obs::ProfileStage::kDevice);
    obs_invocations_->Increment();

    // Stream inputs in through the input queue, quantizing at the
    // interface.
    std::vector<int16_t>& current = scratch_current_;
    current.clear();
    current.reserve(input.size());
    for (double v : input)
        current.push_back(config_.format.Quantize(v));
    stats_.input_words += input.size();

    // Hoist the per-invocation fault gates: a disarmed injector costs
    // one relaxed load; armed classes pay their per-opportunity draw.
    auto& injector = fault::FaultInjector::Default();
    const bool armed = injector.Armed();
    const bool flip_bits =
        armed && injector.Enabled(fault::FaultClass::kNpuBitFlip);

    const int16_t one = config_.format.Quantize(1.0);
    std::vector<int16_t>& next = scratch_next_;
    for (const auto& layer : layers_) {
        next.assign(layer.out, 0);
        for (size_t n = 0; n < layer.out; ++n) {
            MacAccumulator acc;
            const size_t row = n * (layer.in + 1);
            for (size_t i = 0; i < layer.in; ++i)
                acc.Mac(layer.weights[row + i], current[i]);
            acc.Mac(layer.weights[row + layer.in], one);
            stats_.macs += layer.in + 1;
            const int16_t pre = acc.Reduce(config_.format);
            switch (layer.act) {
              case nn::Activation::kSigmoid:
                next[n] = sigmoid_lut_.Lookup(pre);
                ++stats_.lut_lookups;
                break;
              case nn::Activation::kTanh:
                next[n] = tanh_lut_.Lookup(pre);
                ++stats_.lut_lookups;
                break;
              case nn::Activation::kLinear:
                next[n] = pre;
                break;
            }
            // Datapath upset: one bit of the PE's activation word
            // flips before it is forwarded to the next layer, so the
            // corruption propagates through the rest of the network.
            if (flip_bits &&
                injector.ShouldInject(fault::FaultClass::kNpuBitFlip)) {
                next[n] = static_cast<int16_t>(
                    next[n] ^
                    static_cast<int16_t>(
                        1 << (injector.Draw(
                                  fault::FaultClass::kNpuBitFlip) &
                              15)));
            }
        }
        current.swap(next);
    }

    stats_.output_words += current.size();
    stats_.cycles += schedule_.total_cycles;
    ++stats_.invocations;

    std::vector<double>& out = *output;
    out.clear();
    out.reserve(current.size());
    for (int16_t q : current)
        out.push_back(config_.format.Dequantize(q));

    // Output-interface corruption: a misbehaving accelerator can hand
    // the host NaN, Inf, or a stuck constant instead of its result.
    // These leave the fixed-point datapath's value domain entirely,
    // which is exactly what the runtime's non-finite guards and the
    // circuit breaker must contain.
    if (armed) {
        const bool nan_on =
            injector.Enabled(fault::FaultClass::kNpuOutputNan);
        const bool inf_on =
            injector.Enabled(fault::FaultClass::kNpuOutputInf);
        const bool stuck_on =
            injector.Enabled(fault::FaultClass::kNpuOutputStuck);
        for (double& v : out) {
            if (nan_on &&
                injector.ShouldInject(fault::FaultClass::kNpuOutputNan)) {
                v = std::numeric_limits<double>::quiet_NaN();
            } else if (inf_on &&
                       injector.ShouldInject(
                           fault::FaultClass::kNpuOutputInf)) {
                v = (injector.Draw(fault::FaultClass::kNpuOutputInf) & 1)
                        ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
            } else if (stuck_on &&
                       injector.ShouldInject(
                           fault::FaultClass::kNpuOutputStuck)) {
                v = injector.Param(fault::FaultClass::kNpuOutputStuck);
            }
        }
    }
}

double
Npu::InvocationLatencyNs() const
{
    RUMBA_CHECK(Configured());
    return static_cast<double>(schedule_.total_cycles) /
           config_.frequency_ghz;
}

size_t
Npu::NumInputs() const
{
    RUMBA_CHECK(Configured());
    return topology_.NumInputs();
}

size_t
Npu::NumOutputs() const
{
    RUMBA_CHECK(Configured());
    return topology_.NumOutputs();
}

}  // namespace rumba::npu
