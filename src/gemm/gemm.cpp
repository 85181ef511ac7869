#include "gemm/gemm.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;

TensorI32 gemm_conv_i8(const CodeWindow& win, const FilterPanel& wts,
                       int shift, int digit_shift) {
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
  const std::int64_t oc_blocks = (oc + kFilters - 1) / kFilters;
  TensorI32 out(Shape{win.batches, oc, win.oh, win.ow});
  std::int32_t* out_base = out.data();
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
          const std::int64_t f0 = (t % oc_blocks) * kFilters;
          const std::int64_t nf = std::min<std::int64_t>(kFilters, oc - f0);
          const std::int8_t* w[kFilters];
          for (int j = 0; j < kFilters; ++j) {
            w[j] = wts.row(f0 + std::min<std::int64_t>(j, nf - 1));
          }
          std::int32_t* dst = out_base + (b * oc + f0) * rows;
          for (std::int64_t r = 0; r < rows; r += kRows) {
            const std::int64_t nr = std::min<std::int64_t>(kRows, rows - r);
            const std::int8_t* a[kRows] = {win.row(b, r),
                                           win.row(b, r + nr - 1)};
            std::int32_t tile[kRows * kFilters];
            kk.dot_block(a, w, seg, nseg, pitch, digit_shift, tile);
            for (std::int64_t i = 0; i < nr; ++i) {
              for (std::int64_t j = 0; j < nf; ++j) {
                dst[j * rows + r + i] = tile[i * kFilters + j] << shift;
              }
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

void gemm_conv_f32(const PackedIm2colF& cols, const PackedWeightsF& wts,
                   const Tensor& bias, Tensor& out) {
  if (cols.k != wts.k || cols.k_padded != wts.k_padded) {
    throw std::invalid_argument("gemm_conv_f32: operand depth mismatch");
  }
  const std::int64_t rows = cols.rows;
  const std::int64_t kp = cols.k_padded;
  const std::int64_t oc = wts.oc;
  if (out.numel() != cols.batches * oc * rows) {
    throw std::invalid_argument("gemm_conv_f32: bad output shape");
  }
  const float* bp = bias.empty() ? nullptr : bias.data();
  float* dst = out.data();
  // Same (batch, out-channel) tiling as conv2d_direct; each tile owns one
  // output plane. The single sequential accumulator per output keeps float
  // results bit-identical to the direct oracle at any pool size.
  util::parallel_for(
      cols.batches * oc,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / oc;
          const std::int64_t f = t % oc;
          const float bv = bp != nullptr ? bp[f] : 0.0f;
          const float* wrow = wts.row(f);
          float* orow = dst + t * rows;
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* a = cols.row(b, r);
            float acc = bv;
            for (std::int64_t p = 0; p < kp; ++p) acc += a[p] * wrow[p];
            orow[r] = acc;
          }
        }
      },
      /*grain=*/1);
}

Tensor conv2d_f32(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4) {
    throw std::invalid_argument("gemm::conv2d_f32: need NCHW input, OIHW "
                                "weight");
  }
  if (is[1] != ws[1]) {
    throw std::invalid_argument("gemm::conv2d_f32: channel mismatch");
  }
  PackedIm2colF cols = pack_im2col_f32(input, ws[2], ws[3], stride, pad);
  PackedWeightsF wts = pack_weights_f32(weight);
  Tensor out(Shape{cols.batches, wts.oc, cols.oh, cols.ow});
  gemm_conv_f32(cols, wts, bias, out);
  return out;
}

}  // namespace odq::gemm
