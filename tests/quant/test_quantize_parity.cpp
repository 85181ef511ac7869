// Rounding and threading parity of the quantize front end. The activation
// scan and code loop run in kQuantizeGrain-element chunks on the global pool
// and round half-to-even with inline float ops; the oracle here is the
// serial std::max scan plus clamp(int(std::nearbyint(v)), lo, hi), the
// definition the codes must keep bit for bit. The inputs are the values a
// rounding shortcut gets wrong: exact .5 ties at every code, their nextafter
// neighbours, -0.0, denormals, and values at, just below and just above
// qmax. Each case runs on the 4-worker pool (the scan and code loop split
// into chunks) and as a task on a pool worker (where they run inline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "quant/quantizer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Size the global pool before its first use, so the chunked paths fan out.
const int kForcePool = [] {
  ::setenv("ODQ_THREADS", "4", 1);
  return 4;
}();

constexpr float kInf = std::numeric_limits<float>::infinity();

std::int8_t oracle_code(float v, std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int8_t>(
      std::clamp(static_cast<std::int32_t>(std::nearbyint(v)), lo, hi));
}

QTensor oracle_activations(const Tensor& x, int bits, float clip) {
  QTensor out;
  out.bits = bits;
  out.is_signed = false;
  out.q = tensor::TensorI8(x.shape());
  const std::int32_t qmax = out.qmax();
  float xmax = clip;
  if (xmax <= 0.0f) {
    xmax = 0.0f;
    for (std::int64_t i = 0; i < x.numel(); ++i) xmax = std::max(xmax, x[i]);
  }
  out.scale = (xmax > 0.0f ? xmax : 1.0f) / static_cast<float>(qmax);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out.q[i] = oracle_code(std::max(x[i], 0.0f) / out.scale, 0, qmax);
  }
  return out;
}

QTensor oracle_weights(const Tensor& w, int bits) {
  QTensor out;
  out.bits = bits;
  out.is_signed = true;
  out.q = tensor::TensorI8(w.shape());
  const std::int32_t qmax = out.qmax();
  float wmax = 0.0f;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    wmax = std::max(wmax, std::abs(w[i]));
  }
  out.scale = (wmax > 0.0f ? wmax : 1.0f) / static_cast<float>(qmax);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    out.q[i] = oracle_code(w[i] / out.scale, -qmax, qmax);
  }
  return out;
}

// The hostile values for a quantizer with an exact power-of-two step
// `step` and top code qmax: every tie (c + 0.5) * step with both nextafter
// neighbours, the top code itself and its neighbours, and the sign and
// subnormal corner cases. All are exact multiples of `step` where stated,
// so v / step is the intended code-space value.
std::vector<float> hostile_values(std::int32_t qmax, float step) {
  std::vector<float> v = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::min() / 2.0f,
                          std::numeric_limits<float>::min(),
                          qmax * step,
                          std::nextafter(qmax * step, 0.0f),
                          std::nextafter(qmax * step, kInf),
                          (qmax + 0.5f) * step,
                          (qmax + 1.0f) * step};
  for (std::int32_t c = 0; c <= qmax; ++c) {
    const float tie = (static_cast<float>(c) + 0.5f) * step;
    v.push_back(tie);
    v.push_back(std::nextafter(tie, 0.0f));
    v.push_back(std::nextafter(tie, kInf));
  }
  return v;
}

// A tensor of `n` elements cycling through `special` with seeded random
// values in between, so every chunk of the parallel loops sees ties.
Tensor interleaved(const std::vector<float>& special, std::int64_t n,
                   float lo, float hi, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    t[i] = i % 2 == 0
               ? special[static_cast<std::size_t>(i / 2) % special.size()]
               : rng.uniform_f(lo, hi);
  }
  return t;
}

void expect_same(const QTensor& want, const QTensor& got) {
  ASSERT_EQ(want.scale, got.scale);
  ASSERT_EQ(want.q.shape(), got.q.shape());
  for (std::int64_t i = 0; i < want.q.numel(); ++i) {
    ASSERT_EQ(want.q[i], got.q[i]) << "element " << i;
  }
}

// Runs `fn` as a task on a pool worker, where nested parallel_for calls run
// inline, and returns its result.
template <typename Fn>
auto on_worker(Fn fn) {
  decltype(fn()) out;
  util::ThreadPool::global().submit([&] { out = fn(); });
  util::ThreadPool::global().wait_idle();
  return out;
}

TEST(QuantizeParity, ActivationCodesMatchNearbyintOracle) {
  ASSERT_GE(util::ThreadPool::global().size(), std::size_t{4})
      << "ODQ_THREADS=4 must be set before the pool's first use";
  // Several chunks plus a ragged last one.
  const std::int64_t n = 4 * kQuantizeGrain + 123;
  for (const int bits : {2, 4, 7}) {
    const std::int32_t qmax = (1 << bits) - 1;
    const float step = 0.125f;
    const Tensor x = interleaved(hostile_values(qmax, step), n, -1.0f,
                                 (qmax + 2.0f) * step, 100 + bits);
    // An exact clip (every tie lands on .5 in code space), then max
    // calibration over the same data.
    for (const float clip : {qmax * step, -1.0f}) {
      SCOPED_TRACE("bits=" + std::to_string(bits) +
                   " clip=" + std::to_string(clip));
      const QTensor want = oracle_activations(x, bits, clip);
      if (clip > 0.0f) {
        ASSERT_EQ(want.scale, step);
      }
      expect_same(want, quantize_activations(x, bits, clip));
      expect_same(want, on_worker([&] {
                    return quantize_activations(x, bits, clip);
                  }));
    }
  }
}

TEST(QuantizeParity, WeightCodesMatchNearbyintOracle) {
  for (const int bits : {2, 4, 8}) {
    const std::int32_t qmax = (1 << (bits - 1)) - 1;
    const float step = 0.125f;
    std::vector<float> special = hostile_values(qmax, step);
    const std::size_t half = special.size();
    for (std::size_t i = 0; i < half; ++i) special.push_back(-special[i]);
    Tensor w = interleaved(special, 4096 + 7, -qmax * step, qmax * step,
                           200 + bits);
    // Pin max|w| to qmax * step so the scale is exactly `step` and every
    // tie lands on .5 in code space.
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      w[i] = std::clamp(w[i], -qmax * step, qmax * step);
    }
    w[0] = -qmax * step;
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const QTensor want = oracle_weights(w, bits);
    ASSERT_EQ(want.scale, step);
    expect_same(want, quantize_weights(w, bits));
  }
}

TEST(QuantizeParity, ActivationRangeMatchesSerialScan) {
  const std::int64_t n = 3 * kQuantizeGrain + 5;
  Tensor x = interleaved({-3.0f, -0.0f, 0.25f}, n, -2.0f, 1.0f, 7);
  x[n - 1] = 9.5f;  // the max sits in the ragged last chunk
  const ActivationRange r = activation_range(x);
  EXPECT_TRUE(r.finite);
  EXPECT_EQ(r.max, 9.5f);
  const ActivationRange inline_r =
      on_worker([&] { return activation_range(x); });
  EXPECT_TRUE(inline_r.finite);
  EXPECT_EQ(inline_r.max, 9.5f);

  // A non-finite element in any chunk, and at any offset within a vector
  // step or in a scalar tail, is seen.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float bad : {nan, kInf, -kInf}) {
    for (const std::int64_t at : {std::int64_t{0}, std::int64_t{5},
                                  kQuantizeGrain + 1, 2 * kQuantizeGrain + 6,
                                  n - 2}) {
      Tensor y = x;
      y[at] = bad;
      SCOPED_TRACE("bad=" + std::to_string(bad) + " at=" + std::to_string(at));
      EXPECT_FALSE(activation_range(y).finite);
      EXPECT_FALSE(on_worker([&] { return activation_range(y); }).finite);
    }
  }

  // All non-positive: the max floors at +0.
  const Tensor neg = interleaved({-1.0f, -0.0f}, n, -5.0f, -1.0f, 9);
  const ActivationRange nr = activation_range(neg);
  EXPECT_TRUE(nr.finite);
  EXPECT_EQ(nr.max, 0.0f);
  EXPECT_FALSE(std::signbit(nr.max));
}

}  // namespace
}  // namespace odq::quant
