// ODQ: output-directed dynamic quantization (the paper's contribution).
//
// Pipeline per conv layer (paper §3, Fig. 6):
//   1. Quantize the input feature map FP32 -> INT4 (unsigned, post-ReLU) and
//      the weights -> INT4 (signed, DoReFa-style or linear).
//   2. Split both into high-order 2 bits (HBS) and low-order 2 bits (LBS).
//   3. Sensitivity prediction: convolve I_HBS x W_HBS, shift left by
//      2*N_LBS = 4. Outputs whose dequantized predictor magnitude exceeds
//      the threshold are *sensitive* (bit mask = 1).
//   4. Result generation: for sensitive outputs only, add the remaining
//      three partial products of Eq. (3):
//      (I_HBS*W_LBS + I_LBS*W_HBS) << 2  +  I_LBS*W_LBS.
//   5. Final output = predictor partial sums + executor remainders,
//      dequantized with the combined input*weight scale (+ bias).
//
// odq_conv realizes steps 2-5 on one code window (gemm/window.hpp): the
// predictor shifts the high digits out in-register, and since the four Eq. (3) terms
// sum to the full product, a sensitive output's final accumulator is the
// full-code dot (gemm/sparse_epilogue.hpp). odq_conv_reference performs the
// explicit split and recombination as the independent oracle.
//
// Sensitive outputs are therefore *bit-exact* INT4xINT4 results; insensitive
// outputs keep the predictor-only low-precision value. This is the property
// that separates ODQ from input-directed schemes (DRQ): precision follows
// output sensitivity, never input mixing.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "nn/layer.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/tensor.hpp"

namespace odq::core {

struct OdqConfig {
  float threshold = 0.5f;  // on |dequantized predictor output|
  int total_bits = 4;      // INT4 codes
  int low_bits = 2;        // LBS width (HBS = total - low)
  // Linear by default: the DoReFa tanh transform belongs to training-time
  // quantization; post-hoc it distorts FP32-trained weights. The paper's
  // flow (DoReFa QAT + retraining) uses kDoReFa — the tanh normalization
  // spreads weight codes across the INT4 range so their high-order bits
  // (and hence the sensitivity predictor) carry information.
  quant::WeightTransform weight_transform = quant::WeightTransform::kLinear;
  // Activation clip calibration: <= 0 uses the per-tensor max; in (0, 1]
  // clips at that quantile of the activation distribution, spreading codes
  // across the range the way DoReFa's fixed [0,1] clip does. Values above
  // the clip saturate at the top code.
  float act_clip_percentile = -1.0f;
};

struct OdqLayerStats {
  std::int64_t calls = 0;
  std::int64_t outputs = 0;
  std::int64_t sensitive = 0;
  std::int64_t predictor_macs = 0;  // INT2 MACs (every output)
  std::int64_t executor_macs = 0;   // remaining MACs (sensitive outputs only)
  // Phase wall time of the implicit-GEMM pipeline (zero on the serial
  // reference path, which has no pack/GEMM phases): building the code
  // window and filter panel, predictor INT-GEMM, and mask-aware sparse
  // result generation. Additive across calls, like the MAC counters.
  double pack_seconds = 0.0;
  double gemm_seconds = 0.0;
  double sparse_epilogue_seconds = 0.0;
  // The float-facing phases around odq_conv, set by odq_conv_float and
  // OdqConvExecutor::run (zero from odq_conv itself): the quantize front
  // end (input scan, activation and weight codes) and the dequantize + bias
  // epilogue.
  double quantize_seconds = 0.0;
  double dequantize_seconds = 0.0;

  double sensitive_fraction() const {
    return outputs > 0
               ? static_cast<double>(sensitive) / static_cast<double>(outputs)
               : 0.0;
  }

  // Host cost per MAC of the two ODQ stages, in ns: predictor GEMM time per
  // predictor MAC and Eq. (3) epilogue time per executor MAC (0 when the
  // stage counted no MACs). Comparable with the paper's cycle model, 1
  // cycle per INT2 MAC and 3 for the remainder.
  double ns_per_predictor_mac() const {
    return predictor_macs > 0
               ? gemm_seconds * 1e9 / static_cast<double>(predictor_macs)
               : 0.0;
  }
  double ns_per_executor_mac() const {
    return executor_macs > 0 ? sparse_epilogue_seconds * 1e9 /
                                   static_cast<double>(executor_macs)
                             : 0.0;
  }

  // Sum of the five timed phases; a caller's conv wall time minus this is
  // the unattributed remainder.
  double phase_seconds() const {
    return quantize_seconds + pack_seconds + gemm_seconds +
           sparse_epilogue_seconds + dequantize_seconds;
  }

  void merge(const OdqLayerStats& other) {
    calls += other.calls;
    outputs += other.outputs;
    sensitive += other.sensitive;
    predictor_macs += other.predictor_macs;
    executor_macs += other.executor_macs;
    pack_seconds += other.pack_seconds;
    gemm_seconds += other.gemm_seconds;
    sparse_epilogue_seconds += other.sparse_epilogue_seconds;
    quantize_seconds += other.quantize_seconds;
    dequantize_seconds += other.dequantize_seconds;
  }
};

struct OdqConvResult {
  tensor::TensorI32 acc;            // final accumulators
  tensor::TensorI32 predictor_acc;  // predictor-only accumulators (shifted)
  tensor::TensorU8 mask;            // 1 = sensitive
  // Per-output-channel sensitive counts (summed over batch & space) — the
  // accelerator simulator's workload-balance input.
  std::vector<std::int64_t> sensitive_per_channel;
  float scale = 1.0f;  // float value = acc * scale
  OdqLayerStats stats;
};

// Core integer pipeline on already-quantized tensors. `input` must be an
// unsigned QTensor with `cfg.total_bits` bits, `weight` a signed one.
// Builds one code window and one filter panel, then runs the predictor
// GEMM and the one fused mask+executor pass, tiled over (batch,
// out-channel) on the global thread pool (serially when called from a pool
// worker).
OdqConvResult odq_conv(const quant::QTensor& input,
                       const quant::QTensor& weight, std::int64_t stride,
                       std::int64_t pad, const OdqConfig& cfg);

// Serial scalar reference for odq_conv: explicit bit split, direct conv,
// separate mask and result-generation passes, no tiling, no pool. It shares
// no code with the window path and is called only as an oracle (tests,
// benches); tests/core/test_odq_parallel.cpp asserts bit-exact agreement.
OdqConvResult odq_conv_reference(const quant::QTensor& input,
                                 const quant::QTensor& weight,
                                 std::int64_t stride, std::int64_t pad,
                                 const OdqConfig& cfg);

// Float-facing wrapper: quantizes, runs odq_conv, dequantizes, applies bias.
tensor::Tensor odq_conv_float(const tensor::Tensor& input,
                              const tensor::Tensor& weight,
                              const tensor::Tensor& bias, std::int64_t stride,
                              std::int64_t pad, const OdqConfig& cfg,
                              OdqLayerStats* stats = nullptr,
                              tensor::TensorU8* mask_out = nullptr);

// ConvExecutor plugging ODQ into any Model. Thread-safe stat accumulation
// keyed by conv id; optionally records per-layer bit masks and per-channel
// sensitive counts for the accelerator simulator (the paper dumps binary
// mask maps from PyTorch into its simulator the same way, §5.2).
//
// Graceful degradation: run() validates the layer's quantization
// parameters first — a non-finite threshold, non-finite activations, or a
// collapsed activation range (no positive values) makes the sensitivity
// threshold meaningless — and serves that layer through the static-INT8
// path instead, incrementing the `odq.fallback` obs counter once per run
// and logging once per layer. The model keeps serving; docs/robustness.md
// has the semantics.
class OdqConvExecutor : public nn::ConvExecutor {
 public:
  explicit OdqConvExecutor(OdqConfig cfg) : cfg_(cfg) {}

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override;

  std::string name() const override { return "odq"; }

  const OdqConfig& config() const { return cfg_; }
  void set_threshold(float t) { cfg_.threshold = t; }

  OdqLayerStats layer_stats(int id) const;
  std::size_t num_layers_seen() const;
  // Merge of every layer's stats — the whole-model sensitive fraction and
  // MAC split a serving run reports.
  OdqLayerStats total_stats() const;
  void reset_stats();

  // Runs of conv `id` that were served by the static-INT8 fallback since
  // construction / the last reset_stats().
  std::int64_t fallback_count(int id) const;

  // Per-output-channel sensitive counts of the *last* call per layer
  // (workload-balance input for the accelerator sim).
  std::vector<std::int64_t> last_sensitive_per_channel(int id) const;

  // When enabled, keeps per-layer predictor-magnitude samples so a caller
  // can pick an initial threshold from the output distribution (§3).
  // Toggle before starting concurrent run() callers — the flag itself is
  // read outside the stats lock on the hot path.
  void enable_calibration(bool on) { calibrate_ = on; }
  std::vector<float> calibration_samples() const;

 private:
  tensor::Tensor run_fallback(const tensor::Tensor& input,
                              const tensor::Tensor& weight,
                              const tensor::Tensor& bias, std::int64_t stride,
                              std::int64_t pad, int conv_id,
                              const char* reason);

  OdqConfig cfg_;
  bool calibrate_ = false;
  mutable std::mutex mutex_;
  std::vector<OdqLayerStats> stats_;
  std::vector<std::vector<std::int64_t>> last_channel_counts_;
  std::vector<std::int64_t> fallback_counts_;
  std::vector<float> calib_samples_;
};

}  // namespace odq::core
