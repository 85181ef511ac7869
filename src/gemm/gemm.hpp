// Tiled conv-GEMM microkernels.
//
// The integer kernel is implicit GEMM over the ODQ operands of
// gemm/window.hpp: each GEMM row is read in place from the zero-bordered
// NHWC code window as kh segments, and each filter row from the tap-major
// panel, so nothing is unrolled into an im2col matrix. It serves the ODQ
// sensitivity predictor (high digits extracted in-register by a digit
// shift, the 2*N_LBS shift folded into the store) and the differential
// test harness, with a pluggable accumulate type so tests can prove the
// tiling is overflow-safe headroom aside (int32 vs int64 instantiations
// must agree bit-for-bit). Integer addition is associative, so any
// tiling/unroll order is bit-identical to the direct-conv oracle at any
// thread count.
//
// The float kernel (gemm/packed.hpp operands) is deliberately NOT
// register-blocked over K: it seeds the accumulator with the bias and adds
// products in packed-row order with a single running sum — exactly the
// order tensor::conv2d_direct uses — so the DRQ and static fake-quantized
// baselines stay bit-identical to the retained direct-conv oracle
// (zero-padded taps contribute exact ±0.0 terms).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "gemm/packed.hpp"
#include "gemm/window.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

// Filters per INT-GEMM task and per register tile: a task owns kOcTile
// filter rows and walks every output pixel of one batch element in pairs.
// The simd::Kernels::dot_block tile widens each of its 2 activation rows
// and kOcTile filter rows once per 16-lane block and reuses them across all
// 2 x kOcTile outputs. A last block with fewer filters repeats its last
// filter row and drops the duplicate outputs.
inline constexpr std::int64_t kOcTile = 4;

// The window's channel quantum is exactly the SIMD kernels' lane-block
// size, so every segment is whole lane blocks.
static_assert(kChannelQuantum == simd::kKTileLanes,
              "window channel quantum must match the SIMD lane block");
// A GEMM task's filter block is exactly one register tile wide.
static_assert(kOcTile == simd::kBlockFilters,
              "filter block must match the SIMD tile width");

// out[((b*oc + f)*rows) + r] =
//     (sum_p (row(b,r)[p] >> ds) * (wts.row(f)[p] >> ds)) << shift,
// accumulated in Acc, with ds = digit_shift and p running over the row's
// kh window segments. digit_shift 0 is the plain full-code dot; the ODQ
// predictor passes N_LBS to multiply the high digits of the same codes.
// Every output comes from the register-blocked simd::Kernels::dot_block
// tile (exact in int32 within the depth budget), except full-code dots in
// the int64 instantiation, which sum the widening dot_i8_acc64 over the
// segments so they stay exact past int32 headroom.
// `out` must hold win.batches * wts.oc * win.rows() elements. Parallel over
// (batch, filter-block) tiles; each tile owns disjoint output planes and
// walks its rows in pairs. A short last filter block or an odd last row
// repeats the last valid pointer and discards the duplicate outputs, so
// there is one inner loop for every shape.
template <typename Acc>
void gemm_conv_int(const CodeWindow& win, const FilterPanel& wts, int shift,
                   int digit_shift, Acc* out) {
  static_assert(std::is_same_v<Acc, std::int32_t> ||
                    std::is_same_v<Acc, std::int64_t>,
                "gemm_conv_int: Acc must be int32 or int64");
  constexpr int kRows = simd::kBlockRows;
  constexpr int kFilters = simd::kBlockFilters;
  if (digit_shift < 0 || digit_shift > 7) {
    throw std::invalid_argument("gemm_conv: digit shift outside [0, 7]");
  }
  check_window_operands(win, wts, "gemm_conv");
  const std::int64_t rows = win.rows();
  const std::int64_t seg = win.seg();
  const std::int64_t nseg = win.nseg();
  const std::int64_t pitch = win.pitch();
  const std::int64_t oc = wts.oc;
  const std::int64_t oc_blocks = (oc + kOcTile - 1) / kOcTile;
  // One kernel-table fetch per call (not per tile): backend flips between
  // calls (tests, ODQ_SIMD) without an indirect branch in the MAC loop.
  // seg is a multiple of the 16-lane block, so the kernels never handle a
  // tail; integer sums reassociate freely, so every backend stores the
  // same accumulator bit-for-bit.
  const simd::Kernels& kk = simd::active_kernels();
  util::parallel_for(
      win.batches * oc_blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / oc_blocks;
          const std::int64_t f0 = (t % oc_blocks) * kOcTile;
          const std::int64_t nf = std::min(kOcTile, oc - f0);
          const std::int8_t* w[kFilters];
          for (int j = 0; j < kFilters; ++j) {
            w[j] = wts.row(f0 + std::min<std::int64_t>(j, nf - 1));
          }
          Acc* dst = out + (b * oc + f0) * rows;
          for (std::int64_t r = 0; r < rows; r += kRows) {
            const std::int64_t nr = std::min<std::int64_t>(kRows, rows - r);
            const std::int8_t* a[kRows] = {win.row(b, r),
                                           win.row(b, r + nr - 1)};
            Acc tile[kRows * kFilters];
            if constexpr (std::is_same_v<Acc, std::int32_t>) {
              kk.dot_block(a, w, seg, nseg, pitch, digit_shift, tile);
            } else if (digit_shift == 0) {
              for (int i = 0; i < kRows; ++i) {
                for (int j = 0; j < kFilters; ++j) {
                  Acc sum = 0;
                  for (std::int64_t s = 0; s < nseg; ++s) {
                    sum += kk.dot_i8_acc64(a[i] + s * pitch, w[j] + s * seg,
                                           seg);
                  }
                  tile[i * kFilters + j] = sum;
                }
              }
            } else {
              std::int32_t narrow[kRows * kFilters];
              kk.dot_block(a, w, seg, nseg, pitch, digit_shift, narrow);
              std::copy(narrow, narrow + kRows * kFilters, tile);
            }
            for (std::int64_t i = 0; i < nr; ++i) {
              for (std::int64_t j = 0; j < nf; ++j) {
                dst[j * rows + r + i] = tile[i * kFilters + j] << shift;
              }
            }
          }
        }
      },
      /*grain=*/1);
}

// Convenience: fresh int32 accumulators shaped [N, OC, OH, OW].
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
