// Mask-aware sparse result generation for ODQ (paper Eq. 3, step 4).
//
// Given the (already shifted) predictor accumulators, one pass per
// (batch, out-channel) tile walks the tile's outputs once; for each it
//   1. thresholds |dequantized predictor| against the sensitivity threshold
//      and writes the bit mask, and
//   2. writes the output's final accumulator: a sensitive output gets the
//      three remaining Eq. (3) partial products
//      (I_HBS*W_LBS + I_LBS*W_HBS) << N_LBS + I_LBS*W_LBS on top of its
//      predictor, an insensitive output keeps the predictor value.
// Only the per-tile sensitive and MAC counts leave the tile; they feed the
// per-channel counts the accelerator simulator schedules from.
//
// Step 2 reads the same code window and filter panel as the predictor
// (gemm/window.hpp). Every int8 code satisfies
// v == ((v >> L) << L) + (v & (2^L-1)), and a dot product is linear, so
// predictor + (cross << L) + low is exactly the full-code dot: a sensitive
// output's accumulator is simply one segmented simd::Kernels::dot_i8 over
// its window row (kh segments, one reduction), with no digit planes and no
// recombination arithmetic.
//
// The window rows include zero taps (image border + padded channels);
// integer zeros add nothing, so accumulators are bit-identical to the
// direct-conv result generation. MACs are counted analytically from the conv
// geometry (in-bounds taps only) so executor_macs matches the direct oracle
// exactly even though the dot also multiplies the zero lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "gemm/window.hpp"
#include "tensor/tensor.hpp"

namespace odq::gemm {

// In-bounds MAC count per output pixel, row-major over [oh, ow]:
// c * ki_n(oy) * kj_n(ox), the taps the direct oracle actually visits.
std::vector<std::int64_t> valid_macs_per_row(const ConvShape& g,
                                             std::int64_t oh, std::int64_t ow);

struct SparseEpilogueStats {
  std::int64_t sensitive = 0;
  std::int64_t executor_macs = 0;
};

// Fused mask + Eq. (3) result generation. Writes every element of `acc`
// and `mask`, both preshaped [N, OC, OH, OW]; `sensitive_per_channel` must
// be pre-sized to OC (zeroed). The window's conv geometry drives the MAC
// accounting. Parallel over (batch, out-channel) tiles with per-tile
// counters — bit-exact and count-exact at any pool size.
SparseEpilogueStats sparse_result_generation(
    const CodeWindow& win, const FilterPanel& wts,
    const tensor::TensorI32& predictor_acc, float scale,
    float threshold, tensor::TensorI32& acc, tensor::TensorU8& mask,
    std::vector<std::int64_t>& sensitive_per_channel);

}  // namespace odq::gemm
