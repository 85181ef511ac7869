// §5.1: "ODQ is not limited to 4-bit and 2-bit quantization and can be
// easily extended to support other types of precision." The pipeline is
// parametric in (total_bits, low_bits); these tests sweep precision splits
// and check the same bit-exactness contract holds at every one.
#include <gtest/gtest.h>

#include <tuple>

#include "core/odq.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::core {
namespace {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;

struct QuantLayer {
  QTensor in;
  QTensor w;
};

QuantLayer make_layer(int bits, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{1, 3, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  Tensor w(Shape{4, 3, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  return {quant::quantize_activations(x, bits),
          quant::quantize_weights(w, bits)};
}

using Precision = std::tuple<int, int>;  // total_bits, low_bits

class PrecisionSweep : public ::testing::TestWithParam<Precision> {};

TEST_P(PrecisionSweep, SensitiveOutputsBitExactAtEverySplit) {
  const auto [total, low] = GetParam();
  QuantLayer ql = make_layer(total, 100 + total * 10 + low);
  OdqConfig cfg;
  cfg.total_bits = total;
  cfg.low_bits = low;
  cfg.threshold = 0.2f;
  OdqConvResult r = odq_conv(ql.in, ql.w, 1, 1, cfg);
  TensorI32 full = quant::conv2d_i8(ql.in.q, ql.w.q, 1, 1);
  for (std::int64_t i = 0; i < full.numel(); ++i) {
    if (r.mask[i] != 0) {
      ASSERT_EQ(r.acc[i], full[i]);
    }
  }
}

TEST_P(PrecisionSweep, ZeroThresholdIsFullPrecisionEverywhere) {
  const auto [total, low] = GetParam();
  QuantLayer ql = make_layer(total, 200 + total * 10 + low);
  OdqConfig cfg;
  cfg.total_bits = total;
  cfg.low_bits = low;
  cfg.threshold = 0.0f;
  OdqConvResult r = odq_conv(ql.in, ql.w, 1, 1, cfg);
  TensorI32 full = quant::conv2d_i8(ql.in.q, ql.w.q, 1, 1);
  for (std::int64_t i = 0; i < full.numel(); ++i) {
    ASSERT_EQ(r.acc[i], full[i]);
  }
}

TEST_P(PrecisionSweep, PredictorErrorShrinksWithHighBits) {
  // More high-order bits in the predictor -> better approximation of the
  // full result on insensitive outputs.
  const auto [total, low] = GetParam();
  if (total - low < 2) GTEST_SKIP();  // need room to compare with low+1
  QuantLayer ql = make_layer(total, 300 + total * 10 + low);
  TensorI32 full = quant::conv2d_i8(ql.in.q, ql.w.q, 1, 1);

  auto mean_err = [&](int lb) {
    OdqConfig cfg;
    cfg.total_bits = total;
    cfg.low_bits = lb;
    cfg.threshold = 1e30f;  // predictor only
    OdqConvResult r = odq_conv(ql.in, ql.w, 1, 1, cfg);
    double acc = 0.0;
    for (std::int64_t i = 0; i < full.numel(); ++i) {
      acc += std::abs(static_cast<double>(r.acc[i] - full[i]));
    }
    return acc / static_cast<double>(full.numel());
  };
  // Fewer low bits (== more predictor bits) must not be worse.
  EXPECT_LE(mean_err(low), mean_err(low + 1) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Splits, PrecisionSweep,
                         ::testing::Values(Precision{4, 2}, Precision{4, 1},
                                           Precision{4, 3}, Precision{6, 3},
                                           Precision{6, 2}, Precision{7, 3},
                                           Precision{5, 2}));

TEST(OdqPrecision, MacCountsIndependentOfSplit) {
  // The predictor always touches every MAC once; split width changes cost
  // per MAC on hardware, not the count.
  for (int low : {1, 2, 3}) {
    QuantLayer ql = make_layer(4, 400 + low);
    OdqConfig cfg;
    cfg.total_bits = 4;
    cfg.low_bits = low;
    cfg.threshold = 0.2f;
    OdqConvResult r = odq_conv(ql.in, ql.w, 1, 1, cfg);
    EXPECT_EQ(r.stats.predictor_macs, r.stats.outputs * 3 * 3 * 3);
  }
}

}  // namespace
}  // namespace odq::core
