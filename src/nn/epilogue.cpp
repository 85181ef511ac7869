#include "nn/epilogue.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;

namespace {

// Output channels of an NCHW conv output, after checking that `bias` is
// empty or has one value per channel.
std::int64_t checked_channels(const Shape& s, const Tensor& bias,
                              const char* who) {
  if (s.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": need NCHW output");
  }
  if (!bias.empty() && bias.numel() != s[1]) {
    throw std::invalid_argument(std::string(who) + ": bias size mismatch");
  }
  return s[1];
}

}  // namespace

void add_bias(Tensor& out, const Tensor& bias) {
  const Shape& s = out.shape();
  const std::int64_t oc = checked_channels(s, bias, "add_bias");
  if (bias.empty()) return;
  const std::int64_t ohw = s[2] * s[3];
  float* base = out.data();
  util::parallel_for(
      s[0] * oc,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const float bv = bias[t % oc];
          float* p = base + t * ohw;
          for (std::int64_t i = 0; i < ohw; ++i) p[i] += bv;
        }
      },
      /*grain=*/1);
}

Tensor dequantize_with_bias(const TensorI32& acc, float scale,
                            const Tensor& bias) {
  const Shape& s = acc.shape();
  const std::int64_t oc = checked_channels(s, bias, "dequantize_with_bias");
  const std::int64_t ohw = s[2] * s[3];
  Tensor out(s);
  const std::int32_t* src = acc.data();
  float* dst = out.data();
  util::parallel_for(
      s[0] * oc,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const float bv = bias.empty() ? 0.0f : bias[t % oc];
          const std::int32_t* a = src + t * ohw;
          float* o = dst + t * ohw;
          for (std::int64_t i = 0; i < ohw; ++i) {
            o[i] = static_cast<float>(a[i]) * scale + bv;
          }
        }
      },
      /*grain=*/1);
  return out;
}

}  // namespace odq::nn
