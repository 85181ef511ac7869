// Conv output stage: the per-output-channel bias add every conv path ends
// with. Conv2d::forward_fp32 adds the bias to its float output in place;
// the ODQ executor dequantizes its int32 accumulators with the combined
// input x weight scale and adds the bias in the same pass (paper §3,
// step 5). An empty bias adds nothing.
#pragma once

#include "tensor/tensor.hpp"

namespace odq::nn {

// out[b, ch, :, :] += bias[ch] for conv output [N, OC, OH, OW]. Tiled over
// (batch, channel) planes on the global pool; throws if bias is neither
// empty nor [OC].
void add_bias(tensor::Tensor& out, const tensor::Tensor& bias);

// y = float(acc) * scale + bias[ch] for int32 accumulators [N, OC, OH, OW]
// (+ 0.0f with an empty bias). Tiled over (batch, channel) planes on the
// global pool; throws if bias is neither empty nor [OC].
tensor::Tensor dequantize_with_bias(const tensor::TensorI32& acc, float scale,
                                    const tensor::Tensor& bias);

}  // namespace odq::nn
