#include "gemm/gemm.hpp"

#include "tensor/ops.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;

TensorI32 gemm_conv_i8(const CodeWindow& win, const FilterPanel& wts,
                       int shift, int digit_shift) {
  TensorI32 out(Shape{win.batches, wts.oc, win.oh, win.ow});
  gemm_conv_int<std::int32_t>(win, wts, shift, digit_shift, out.data());
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
