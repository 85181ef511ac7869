// Conv output stage (nn/epilogue.hpp): add_bias and dequantize_with_bias
// must reproduce, bit for bit, the unfused loops they replaced in
// Conv2d::forward_fp32 and the ODQ executor.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "common/proptest.hpp"
#include "nn/epilogue.hpp"
#include "tensor/ops.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using testprop::ConvGeom;

TEST(ConvBias, IdentityIsNoOp) {
  ODQ_PROP_CASE(c, 0);
  Tensor x = testprop::random_activations(c.rng(), Shape{2, 3, 4, 4});
  const Tensor before = x;
  add_bias(x, Tensor{});
  for (std::int64_t i = 0; i < x.numel(); ++i) ASSERT_EQ(x[i], before[i]);
}

// add_bias == the verbatim `p[i] += bias[oc]` loop
// Conv2d::forward_fp32 used to carry.
TEST(ConvBias, BiasOnlyMatchesUnfusedLoopBitwise) {
  for (int i = 0; i < 15; ++i) {
    ODQ_PROP_CASE(c, i + 10);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    Tensor x = testprop::random_weights(c.rng(),
                                        Shape{g.n, g.oc, g.h, g.w});
    const Tensor bias = testprop::random_weights(c.rng(), Shape{g.oc});

    Tensor unfused = x;
    for (std::int64_t b = 0; b < g.n; ++b) {
      for (std::int64_t oc = 0; oc < g.oc; ++oc) {
        float* p = unfused.data() + (b * g.oc + oc) * g.h * g.w;
        const float bv = bias[oc];
        for (std::int64_t j = 0; j < g.h * g.w; ++j) p[j] += bv;
      }
    }

    add_bias(x, bias);
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      ASSERT_EQ(x[j], unfused[j]) << "add_bias diverges at " << j;
    }
  }
}

// dequantize_with_bias == the ODQ executor's historical fused expression
// `float(acc) * scale + bias[oc]`, bit for bit.
TEST(ConvBias, DequantizeBiasMatchesLegacyExpressionBitwise) {
  for (int i = 0; i < 15; ++i) {
    ODQ_PROP_CASE(c, i + 40);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    TensorI32 acc(Shape{g.n, g.oc, g.h, g.w});
    for (std::int64_t j = 0; j < acc.numel(); ++j) {
      acc[j] = static_cast<std::int32_t>(c.rng().uniform_int(-5000, 5000));
    }
    const Tensor bias = testprop::random_weights(c.rng(), Shape{g.oc});
    const float scale = c.rng().uniform_f(1e-4f, 1e-1f);

    Tensor legacy(acc.shape());
    for (std::int64_t b = 0; b < g.n; ++b) {
      for (std::int64_t oc = 0; oc < g.oc; ++oc) {
        const float bv = bias[oc];
        const std::int64_t base = (b * g.oc + oc) * g.h * g.w;
        for (std::int64_t j = 0; j < g.h * g.w; ++j) {
          legacy[base + j] = static_cast<float>(acc[base + j]) * scale + bv;
        }
      }
    }

    const Tensor fused = dequantize_with_bias(acc, scale, bias);
    for (std::int64_t j = 0; j < fused.numel(); ++j) {
      ASSERT_EQ(fused[j], legacy[j]) << "dequantize diverges at " << j;
    }
  }
}

TEST(ConvBias, RejectsChannelMismatch) {
  Tensor x(Shape{1, 3, 2, 2});
  const Tensor bias(Shape{4});
  EXPECT_THROW(add_bias(x, bias), std::invalid_argument);
  EXPECT_THROW(dequantize_with_bias(TensorI32(Shape{1, 3, 2, 2}), 1.0f, bias),
               std::invalid_argument);
}

}  // namespace
}  // namespace odq::nn
