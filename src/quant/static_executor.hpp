// Static quantization executor: DoReFa-Net-style INT16 / INT8 / INT4
// inference (the paper's static baselines). Weights and activations are
// quantized per-tensor at a fixed bit width for every conv layer.
#pragma once

#include "nn/layer.hpp"
#include "quant/quantizer.hpp"

namespace odq::quant {

class StaticQuantConvExecutor : public nn::ConvExecutor {
 public:
  // Weights are quantized linearly: the DoReFa tanh transform is a
  // *training-time* normalization, and applying it post hoc to
  // FP32-trained weights distorts them.
  explicit StaticQuantConvExecutor(int bits) : bits_(bits) {}

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override;

  std::string name() const override {
    return "static_int" + std::to_string(bits_);
  }

  int bits() const { return bits_; }

 private:
  int bits_;
};

}  // namespace odq::quant
