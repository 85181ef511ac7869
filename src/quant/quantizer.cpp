#include "quant/quantizer.hpp"

#include "tensor/ops.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace odq::quant {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;

tensor::Tensor QTensor::dequantize() const {
  Tensor out(q.shape());
  const std::int8_t* src = q.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
  return out;
}

namespace {

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i) m = std::max(m, std::abs(t[i]));
  return m;
}

// Round to nearest, ties to even, for |v| < 2^23: adding 2^23 to |v| leaves
// no fraction bits, so the add itself rounds (in the default rounding mode,
// as std::nearbyint does), and subtracting 2^23 back is exact. Inline float
// ops only: baseline x86-64 has no round instruction, so std::nearbyint
// is a libm call per element.
static_assert(FLT_EVAL_METHOD == 0,
              "round_half_even needs float arithmetic in float precision");
inline float round_half_even(float v) {
  constexpr float kTwo23 = 8388608.0f;
  return std::copysign((std::fabs(v) + kTwo23) - kTwo23, v);
}

// The code of v (in code units): clamped to [lo, hi] in float first, so any
// magnitude — and NaN, which goes to lo — converts to int without overflow,
// then rounded. Equal to clamp(nearbyint(v), lo, hi) wherever that is
// defined, because lo and hi are integers.
inline std::int8_t clamp_code(float v, float lo, float hi) {
  const float c = std::min(std::max(lo, v), hi);
  return static_cast<std::int8_t>(
      static_cast<std::int32_t>(round_half_even(c)));
}

// dst[i] = clamp_code(src[i] / scale, lo, hi): the one code loop behind
// every integer quantizer here (lo = 0 makes it the unsigned activation code, which
// is why negative inputs need no separate max with 0). On x86-64 it runs 16
// codes per step in baseline SSE2 with the same operations lane-wise —
// divps; maxps / minps in the operand order that matches std::max(lo, v) /
// std::min(c, hi), NaN included; the 2^23 round trip on |c| with c's sign
// or-ed back — so it stores exactly the scalar codes. Compiled as scalar
// code, the IEEE max/min become branches, which mispredict on ReLU outputs.
void quantize_codes(const float* src, std::int8_t* dst, std::int64_t n,
                    float scale, float lo, float hi) {
  std::int64_t i = 0;
#if defined(__SSE2__)
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 vlo = _mm_set1_ps(lo);
  const __m128 vhi = _mm_set1_ps(hi);
  const __m128 two23 = _mm_set1_ps(8388608.0f);
  const __m128 sign = _mm_set1_ps(-0.0f);
  auto codes4 = [&](const float* p) {
    const __m128 v = _mm_div_ps(_mm_loadu_ps(p), vscale);
    const __m128 c = _mm_min_ps(vhi, _mm_max_ps(v, vlo));
    const __m128 r =
        _mm_sub_ps(_mm_add_ps(_mm_andnot_ps(sign, c), two23), two23);
    return _mm_cvttps_epi32(_mm_or_ps(r, _mm_and_ps(sign, c)));
  };
  for (; i + 16 <= n; i += 16) {
    // Codes lie in [-128, 127], so both saturating packs are exact.
    const __m128i lo8 = _mm_packs_epi32(codes4(src + i), codes4(src + i + 4));
    const __m128i hi8 =
        _mm_packs_epi32(codes4(src + i + 8), codes4(src + i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(lo8, hi8));
  }
#endif
  for (; i < n; ++i) dst[i] = clamp_code(src[i] / scale, lo, hi);
}

// Finite flag and max (from 0, `v > m` so NaN never wins) of src[0, n).
// The SSE2 path keeps 4 lane maxima with maxps(v, m), which is exactly
// `v > m ? v : m`; max is order-independent, so folding the lanes gives the
// scalar loop's result.
ActivationRange scan_range(const float* src, std::int64_t n) {
  std::int64_t i = 0;
  ActivationRange r;
#if defined(__SSE2__)
  const __m128 sign = _mm_set1_ps(-0.0f);
  const __m128 big = _mm_set1_ps(FLT_MAX);
  __m128 m0 = _mm_setzero_ps(), m1 = _mm_setzero_ps();
  __m128 ok = _mm_cmpeq_ps(m0, m0);
  for (; i + 8 <= n; i += 8) {
    const __m128 v0 = _mm_loadu_ps(src + i);
    const __m128 v1 = _mm_loadu_ps(src + i + 4);
    ok = _mm_and_ps(ok, _mm_cmple_ps(_mm_andnot_ps(sign, v0), big));
    ok = _mm_and_ps(ok, _mm_cmple_ps(_mm_andnot_ps(sign, v1), big));
    m0 = _mm_max_ps(v0, m0);
    m1 = _mm_max_ps(v1, m1);
  }
  r.finite = _mm_movemask_ps(ok) == 0xF;
  float lanes[4];
  _mm_storeu_ps(lanes, _mm_max_ps(m0, m1));
  for (const float v : lanes) r.max = v > r.max ? v : r.max;
#endif
  for (; i < n; ++i) {
    const float v = src[i];
    r.finite = r.finite && std::fabs(v) <= FLT_MAX;
    r.max = v > r.max ? v : r.max;
  }
  return r;
}

}  // namespace

QTensor quantize_weights(const Tensor& w, int bits, WeightTransform transform) {
  if (bits < 2 || bits > 8) {
    throw std::invalid_argument("quantize_weights: bits must be in [2,8]");
  }
  QTensor out;
  out.bits = bits;
  out.is_signed = true;
  out.q = TensorI8(w.shape());
  const auto qmax = static_cast<float>(out.qmax());

  if (transform == WeightTransform::kDoReFa) {
    // DoReFa: normalize through tanh, code the normalized weights, then fold
    // the normalization magnitude back into the scale so dequantize()
    // approximates the original weights.
    Tensor t(w.shape());
    for (std::int64_t i = 0; i < w.numel(); ++i) t[i] = std::tanh(w[i]);
    const float tmax = max_abs(t);
    const float denom = tmax > 0.0f ? tmax : 1.0f;
    out.scale = denom / qmax;
    quantize_codes(t.data(), out.q.data(), w.numel(), out.scale, -qmax, qmax);
  } else {
    const float wmax = max_abs(w);
    out.scale = (wmax > 0.0f ? wmax : 1.0f) / qmax;
    quantize_codes(w.data(), out.q.data(), w.numel(), out.scale, -qmax, qmax);
  }
  return out;
}

ActivationRange activation_range(const Tensor& x) {
  const std::int64_t n = x.numel();
  const float* src = x.data();
  const std::int64_t chunks = (n + kQuantizeGrain - 1) / kQuantizeGrain;
  std::vector<ActivationRange> part(static_cast<std::size_t>(chunks));
  // One task per grain-sized chunk, each filling its own slot; the slots
  // are folded below.
  util::parallel_for(
      chunks,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          const std::int64_t i0 = c * kQuantizeGrain;
          part[static_cast<std::size_t>(c)] =
              scan_range(src + i0, std::min(n - i0, kQuantizeGrain));
        }
      },
      /*grain=*/1);
  ActivationRange r;
  for (const ActivationRange& p : part) {
    r.finite = r.finite && p.finite;
    r.max = p.max > r.max ? p.max : r.max;
  }
  return r;
}

QTensor quantize_activations(const Tensor& x, int bits, float clip) {
  // Unsigned codes live in int8 storage, so at most 7 bits here. Wider
  // activations (INT8/INT16 baselines) use fake_quantize_activations.
  if (bits < 2 || bits > 7) {
    throw std::invalid_argument("quantize_activations: bits must be in [2,7]");
  }
  QTensor out;
  out.bits = bits;
  out.is_signed = false;
  out.q = TensorI8(x.shape());
  const auto qmax = static_cast<float>(out.qmax());
  float xmax = clip;
  if (xmax <= 0.0f) xmax = activation_range(x).max;
  const float scale = (xmax > 0.0f ? xmax : 1.0f) / qmax;
  out.scale = scale;
  const float* src = x.data();
  std::int8_t* dst = out.q.data();
  util::parallel_for(
      x.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        quantize_codes(src + i0, dst + i0, i1 - i0, scale, 0.0f, qmax);
      },
      kQuantizeGrain);
  return out;
}

float activation_clip_from_percentile(const Tensor& x, float percentile) {
  if (percentile <= 0.0f || x.numel() == 0) return -1.0f;
  std::vector<float> mags;
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 4096);
  mags.reserve(static_cast<std::size_t>(x.numel() / stride) + 2);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    mags.push_back(x[i] > 0.0f ? x[i] : 0.0f);
  }
  // The strided walk stops short of the last element whenever
  // (numel - 1) % stride != 0; sample it explicitly so a tail maximum
  // cannot silently fall out of the estimate.
  if ((x.numel() - 1) % stride != 0) {
    const float tail = x[x.numel() - 1];
    mags.push_back(tail > 0.0f ? tail : 0.0f);
  }
  const float clip = static_cast<float>(
      util::percentile(std::move(mags), static_cast<double>(percentile)));
  return clip > 0.0f ? clip : -1.0f;
}

Tensor fake_quantize_weights(const Tensor& w, int bits,
                             WeightTransform transform) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("fake_quantize_weights: bits must be in [2,16]");
  }
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  Tensor out(w.shape());
  if (transform == WeightTransform::kDoReFa) {
    Tensor t(w.shape());
    float tmax = 0.0f;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      t[i] = std::tanh(w[i]);
      tmax = std::max(tmax, std::abs(t[i]));
    }
    const float scale = (tmax > 0.0f ? tmax : 1.0f) / qmax;
    util::parallel_for(
        w.numel(),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            out[i] =
                std::clamp(std::nearbyint(t[i] / scale), -qmax, qmax) * scale;
          }
        },
        /*grain=*/1 << 13);
  } else {
    const float wmax = max_abs(w);
    const float scale = (wmax > 0.0f ? wmax : 1.0f) / qmax;
    util::parallel_for(
        w.numel(),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            out[i] =
                std::clamp(std::nearbyint(w[i] / scale), -qmax, qmax) * scale;
          }
        },
        /*grain=*/1 << 13);
  }
  return out;
}

Tensor fake_quantize_activations(const Tensor& x, int bits, float clip) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument(
        "fake_quantize_activations: bits must be in [2,16]");
  }
  const float qmax = static_cast<float>((1 << bits) - 1);
  float xmax = clip;
  if (xmax <= 0.0f) {
    xmax = 0.0f;
    for (std::int64_t i = 0; i < x.numel(); ++i) xmax = std::max(xmax, x[i]);
  }
  const float scale = (xmax > 0.0f ? xmax : 1.0f) / qmax;
  Tensor out(x.shape());
  util::parallel_for(
      x.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          out[i] = std::clamp(std::nearbyint(std::max(x[i], 0.0f) / scale),
                              0.0f, qmax) *
                   scale;
        }
      },
      /*grain=*/1 << 13);
  return out;
}

TensorI32 conv2d_i8(const TensorI8& input, const TensorI8& weight,
                    std::int64_t stride, std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4) {
    throw std::invalid_argument("conv2d_i8: need NCHW input, OIHW weight");
  }
  if (is[1] != ws[1]) {
    throw std::invalid_argument("conv2d_i8: channel mismatch");
  }
  const std::int64_t n = is[0], c = is[1], h = is[2], w = is[3];
  const std::int64_t o = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  TensorI32 out(Shape{n, o, oh, ow});

  // Tiled over (batch, out-channel) planes; each tile writes its own output
  // plane, so the integer result is thread-count independent.
  util::parallel_for(
      n * o,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / o;
          const std::int64_t oc = t % o;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              std::int32_t acc = 0;
              for (std::int64_t ic = 0; ic < c; ++ic) {
                for (std::int64_t ki = 0; ki < kh; ++ki) {
                  const std::int64_t iy = oy * stride - pad + ki;
                  if (iy < 0 || iy >= h) continue;
                  const std::int8_t* irow =
                      input.data() + ((b * c + ic) * h + iy) * w;
                  const std::int8_t* wrow =
                      weight.data() + ((oc * c + ic) * kh + ki) * kw;
                  for (std::int64_t kj = 0; kj < kw; ++kj) {
                    const std::int64_t ix = ox * stride - pad + kj;
                    if (ix < 0 || ix >= w) continue;
                    acc += static_cast<std::int32_t>(irow[ix]) *
                           static_cast<std::int32_t>(wrow[kj]);
                  }
                }
              }
              out.at4(b, oc, oy, ox) = acc;
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

TensorI8 im2col_i8(const TensorI8& input, std::int64_t kh, std::int64_t kw,
                   std::int64_t stride, std::int64_t pad) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("im2col_i8: input must be NCHW");
  }
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col_i8: kernel larger than padded input");
  }
  TensorI8 cols(Shape{n, c * kh * kw, oh * ow});
  const std::int64_t col_stride = oh * ow;
  // One tile per (batch, input-channel) plane; tiles write disjoint rows.
  util::parallel_for(
      n * c,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / c;
          const std::int64_t ch = t % c;
          const std::int8_t* img = input.data() + (b * c + ch) * h * w;
          std::int8_t* dst = cols.data() + b * c * kh * kw * col_stride;
          for (std::int64_t ki = 0; ki < kh; ++ki) {
            for (std::int64_t kj = 0; kj < kw; ++kj) {
              std::int8_t* row = dst + ((ch * kh + ki) * kw + kj) * col_stride;
              std::int64_t idx = 0;
              for (std::int64_t oy = 0; oy < oh; ++oy) {
                const std::int64_t iy = oy * stride - pad + ki;
                for (std::int64_t ox = 0; ox < ow; ++ox, ++idx) {
                  const std::int64_t ix = ox * stride - pad + kj;
                  row[idx] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                 ? img[iy * w + ix]
                                 : static_cast<std::int8_t>(0);
                }
              }
            }
          }
        }
      },
      /*grain=*/2);
  return cols;
}

}  // namespace odq::quant
