// Tiled conv-GEMM microkernels.
//
// The integer kernel is implicit GEMM over the ODQ operands of
// gemm/window.hpp: each GEMM row is read in place from the zero-bordered
// NHWC code window as kh segments, and each filter row from the tap-major
// panel, so nothing is unrolled into an im2col matrix. It serves the ODQ
// sensitivity predictor (high digits extracted in-register by a digit
// shift, the 2*N_LBS shift folded into the store) and the differential
// test harness. It accumulates in int32, which the per-dot depth budget
// (simd::kMaxDotDepth, checked once per call) keeps exact. Integer
// addition is associative, so any tiling/unroll order is bit-identical to
// the direct-conv oracle at any thread count.
//
// The float kernel (gemm/packed.hpp operands) is deliberately NOT
// register-blocked over K: it seeds the accumulator with the bias and adds
// products in packed-row order with a single running sum — exactly the
// order tensor::conv2d_direct uses — so the DRQ and static fake-quantized
// baselines stay bit-identical to the retained direct-conv oracle
// (zero-padded taps contribute exact ±0.0 terms).
#pragma once

#include "gemm/packed.hpp"
#include "gemm/window.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace odq::gemm {

// The window's channel quantum is exactly the SIMD kernels' lane-block
// size, so every segment is whole lane blocks.
static_assert(kChannelQuantum == simd::kKTileLanes,
              "window channel quantum must match the SIMD lane block");

// out[b, f, oy, ox] =
//     (sum_p (row(b,r)[p] >> ds) * (wts.row(f)[p] >> ds)) << shift
// as fresh int32 accumulators shaped [N, OC, OH, OW], with r = oy*OW + ox,
// ds = digit_shift and p running over the row's kh window segments.
// digit_shift 0 is the plain full-code dot; the ODQ predictor passes N_LBS
// to multiply the high digits of the same codes. Every output comes from
// the register-blocked simd::Kernels::dot_block tile. Parallel over
// (batch, simd::kBlockFilters-filter block) tasks; each task owns disjoint
// output planes and walks its rows in pairs. A short last filter block or
// an odd last row repeats the last valid pointer and discards the
// duplicate outputs, so there is one inner loop for every shape.
tensor::TensorI32 gemm_conv_i8(const CodeWindow& win, const FilterPanel& wts,
                               int shift = 0, int digit_shift = 0);

// Float GEMM, bit-identical to tensor::conv2d_direct: per output, one
// accumulator seeded with the bias, products added in im2col order.
// `out` must be preshaped [N, OC, OH, OW].
void gemm_conv_f32(const PackedIm2colF& cols, const PackedWeightsF& wts,
                   const tensor::Tensor& bias, tensor::Tensor& out);

// Pack + float GEMM in one call: drop-in for tensor::conv2d_direct on the
// DRQ / static fake-quantized hot paths (the direct path remains the test
// oracle). input [N,C,H,W], weight [O,C,KH,KW], bias [O] (may be empty).
tensor::Tensor conv2d_f32(const tensor::Tensor& input,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad);

}  // namespace odq::gemm
