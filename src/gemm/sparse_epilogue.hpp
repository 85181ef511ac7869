// Mask-aware sparse result generation for ODQ (paper Eq. 3, step 4).
//
// Given the (already shifted) predictor accumulators, one fused pass per
// (batch, out-channel) tile:
//   1. thresholds |dequantized predictor| against the sensitivity threshold
//      and writes the bit mask,
//   2. compacts the sensitive output-pixel indices into an ascending
//      per-tile list (the executor PE's work queue), and
//   3. completes each listed output with the three remaining Eq. (3)
//      partial products (I_HBS*W_LBS + I_LBS*W_HBS) << N_LBS + I_LBS*W_LBS
//      — no per-element branching inside the MAC loops; insensitive outputs
//      are never touched.
//
// Step 3 reads the same code window and filter panel as the predictor
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

// Compacted sensitive-output indices, one ascending list per
// (batch, out-channel) tile. Indices are output-pixel offsets in [0, rows).
struct SensitiveLists {
  std::int64_t batches = 0;
  std::int64_t channels = 0;
  std::int64_t rows = 0;  // output pixels per tile (OH * OW)
  std::vector<std::vector<std::int32_t>> lists;

  const std::vector<std::int32_t>& tile(std::int64_t b, std::int64_t ch) const {
    return lists[static_cast<std::size_t>(b * channels + ch)];
  }

  std::int64_t total() const {
    std::int64_t n = 0;
    for (const auto& l : lists) n += static_cast<std::int64_t>(l.size());
    return n;
  }
};

// In-bounds MAC count per output pixel, row-major over [oh, ow]:
// c * ki_n(oy) * kj_n(ox), the taps the direct oracle actually visits.
std::vector<std::int64_t> valid_macs_per_row(const ConvShape& g,
                                             std::int64_t oh, std::int64_t ow);

struct SparseEpilogueStats {
  std::int64_t sensitive = 0;
  std::int64_t executor_macs = 0;
};

// Fused mask + compaction + Eq. (3) result generation. `acc` must start as a
// copy of `predictor_acc` (sensitive outputs are overwritten in place with
// their full-code dot); `mask` must be preshaped [N, OC, OH, OW];
// `sensitive_per_channel` must be pre-sized to OC (zeroed). The window's
// conv geometry drives the MAC accounting. Parallel over
// (batch, out-channel) tiles with per-tile counters — bit-exact and
// count-exact at any pool size.
SparseEpilogueStats sparse_result_generation(
    const CodeWindow& win, const FilterPanel& wts,
    const tensor::TensorI32& predictor_acc, float scale,
    float threshold, tensor::TensorI32& acc, tensor::TensorU8& mask,
    std::vector<std::int64_t>& sensitive_per_channel, SensitiveLists& lists);

}  // namespace odq::gemm
