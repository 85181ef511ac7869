#include "gemm/packed.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;

namespace {

struct ConvGeometry {
  std::int64_t n, c, h, w, oh, ow, k;
};

ConvGeometry check_geometry(const Shape& s, std::int64_t kh, std::int64_t kw,
                            std::int64_t stride, std::int64_t pad) {
  if (s.rank() != 4) {
    throw std::invalid_argument("gemm::pack_im2col: input must be NCHW");
  }
  ConvGeometry g;
  g.n = s[0];
  g.c = s[1];
  g.h = s[2];
  g.w = s[3];
  g.oh = tensor::conv_out_dim(g.h, kh, stride, pad);
  g.ow = tensor::conv_out_dim(g.w, kw, stride, pad);
  if (g.oh <= 0 || g.ow <= 0) {
    throw std::invalid_argument(
        "gemm::pack_im2col: kernel larger than padded input");
  }
  g.k = g.c * kh * kw;
  return g;
}

void init_packed(PackedIm2colF& p, const ConvGeometry& g) {
  p.batches = g.n;
  p.rows = g.oh * g.ow;
  p.k = g.k;
  p.k_padded = pad_k(g.k);
  p.oh = g.oh;
  p.ow = g.ow;
  p.data.assign(static_cast<std::size_t>(g.n * p.rows * p.k_padded), 0.0f);
}

}  // namespace

// Packs one receptive field per row, in im2col order (ic, ki, kj);
// out-of-bounds and depth-padding entries stay zero from init_packed. Tiled
// over (batch, output-row blocks): every tile writes a disjoint slice of
// rows, so results are identical at any pool size.
PackedIm2colF pack_im2col_f32(const Tensor& input, std::int64_t kh,
                              std::int64_t kw, std::int64_t stride,
                              std::int64_t pad) {
  const ConvGeometry g = check_geometry(input.shape(), kh, kw, stride, pad);
  const float* src = input.data();
  PackedIm2colF out;
  init_packed(out, g);
  const std::int64_t rows = out.rows;
  const std::int64_t row_blocks = (rows + kRowTile - 1) / kRowTile;
  util::parallel_for(
      g.n * row_blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / row_blocks;
          const std::int64_t r0 = (t % row_blocks) * kRowTile;
          const std::int64_t r1 = std::min(rows, r0 + kRowTile);
          const float* img = src + b * g.c * g.h * g.w;
          for (std::int64_t r = r0; r < r1; ++r) {
            float* dst = out.row(b, r);
            const std::int64_t oy = r / g.ow;
            const std::int64_t ox = r % g.ow;
            const std::int64_t iy0 = oy * stride - pad;
            const std::int64_t ix0 = ox * stride - pad;
            std::int64_t p = 0;
            for (std::int64_t ic = 0; ic < g.c; ++ic) {
              const float* plane = img + ic * g.h * g.w;
              for (std::int64_t ki = 0; ki < kh; ++ki) {
                const std::int64_t iy = iy0 + ki;
                if (iy < 0 || iy >= g.h) {
                  p += kw;
                  continue;
                }
                const float* line = plane + iy * g.w;
                for (std::int64_t kj = 0; kj < kw; ++kj, ++p) {
                  const std::int64_t ix = ix0 + kj;
                  if (ix >= 0 && ix < g.w) dst[p] = line[ix];
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

PackedWeightsF pack_weights_f32(const Tensor& weight) {
  const Shape& ws = weight.shape();
  if (ws.rank() != 4) {
    throw std::invalid_argument("gemm::pack_weights: weight must be OIHW");
  }
  PackedWeightsF out;
  out.oc = ws[0];
  out.k = ws[1] * ws[2] * ws[3];
  out.k_padded = pad_k(out.k);
  out.data.assign(static_cast<std::size_t>(out.oc * out.k_padded), 0.0f);
  const float* src = weight.data();
  for (std::int64_t f = 0; f < out.oc; ++f) {
    std::copy(src + f * out.k, src + (f + 1) * out.k,
              out.data.begin() + f * out.k_padded);
  }
  return out;
}

}  // namespace odq::gemm
