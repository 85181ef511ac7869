// Packed float im2col operands for the DRQ and static fake-quantized
// baselines (gemm::conv2d_f32).
//
// Those schemes fake-quantize in float and must stay bit-identical to
// tensor::conv2d_direct, so they multiply an im2col matrix [OH*OW, C*KH*KW]
// per batch element against a filter panel [OC, C*KH*KW]:
//
//   * Rows are *output pixels* (receptive fields), stored contiguously —
//     the transpose of the [CKK, OHW] matrix tensor::im2col produces — so a
//     GEMM dot product reads two contiguous runs.
//   * The depth K = C*KH*KW is zero-padded to a multiple of kKTile. Zero
//     entries add exact ±0.0 terms, invisible to the float sums.
//
// ODQ does not use these: its integer operands are the zero-bordered NHWC
// code window and the tap-major filter panel of gemm/window.hpp, read in
// place with no im2col copy.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// Depth-padding quantum of the float packers: K is rounded up to a
// multiple of this.
inline constexpr std::int64_t kKTile = 16;

// Output-pixel block of the im2col packer: one pack task writes this many
// receptive-field rows of one batch element.
inline constexpr std::int64_t kRowTile = 64;

inline std::int64_t pad_k(std::int64_t k) {
  return (k + kKTile - 1) / kKTile * kKTile;
}

// One packed float im2col operand.
// data[(b * rows + r) * k_padded + p] is entry p of output pixel r of batch
// element b; entries beyond `k` are zero.
struct PackedIm2colF {
  std::int64_t batches = 0;
  std::int64_t rows = 0;      // OH * OW
  std::int64_t k = 0;         // C * KH * KW (logical depth)
  std::int64_t k_padded = 0;  // k rounded up to kKTile
  std::int64_t oh = 0, ow = 0;
  std::vector<float> data;

  const float* row(std::int64_t b, std::int64_t r) const {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
  float* row(std::int64_t b, std::int64_t r) {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
};

// A packed float filter panel: row f holds filter f's C*KH*KW taps in
// im2col order, zero-padded to k_padded.
struct PackedWeightsF {
  std::int64_t oc = 0;
  std::int64_t k = 0;
  std::int64_t k_padded = 0;
  std::vector<float> data;

  const float* row(std::int64_t f) const {
    return data.data() + static_cast<std::size_t>(f * k_padded);
  }
};

// Float activations [N,C,H,W] -> packed receptive-field rows.
PackedIm2colF pack_im2col_f32(const tensor::Tensor& input, std::int64_t kh,
                              std::int64_t kw, std::int64_t stride,
                              std::int64_t pad);

// Filter panel from OIHW float weights.
PackedWeightsF pack_weights_f32(const tensor::Tensor& weight);

}  // namespace odq::gemm
