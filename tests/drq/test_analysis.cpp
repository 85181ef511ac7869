#include <gtest/gtest.h>

#include "drq/drq.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::drq {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct LayerSetup {
  Tensor x;
  Tensor w;
  Tensor bias;
};

LayerSetup make_layer(std::uint64_t seed) {
  util::Rng rng(seed);
  LayerSetup s{Tensor(Shape{1, 3, 12, 12}), Tensor(Shape{4, 3, 3, 3}),
               Tensor(Shape{4})};
  for (std::int64_t i = 0; i < s.x.numel(); ++i) {
    s.x[i] = rng.uniform_f(0.0f, 1.0f);
  }
  for (std::int64_t i = 0; i < s.w.numel(); ++i) {
    s.w[i] = rng.normal_f(0.0f, 0.3f);
  }
  return s;
}

TEST(DrqAnalysis, HistogramsAreDistributions) {
  LayerSetup s = make_layer(1);
  DrqConfig cfg;
  cfg.input_threshold = calibrate_input_threshold(s.x, cfg, 0.5);
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.3f);

  double lo_sum = 0.0, hi_sum = 0.0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_GE(a.lowprec_share_hist[k], 0.0);
    EXPECT_GE(a.highprec_share_hist[k], 0.0);
    lo_sum += a.lowprec_share_hist[k];
    hi_sum += a.highprec_share_hist[k];
  }
  // Each histogram sums to 1 when its population is non-empty.
  if (a.sensitive_output_fraction > 0.0) {
    EXPECT_NEAR(lo_sum, 1.0, 1e-9);
  }
  if (a.sensitive_output_fraction < 1.0) {
    EXPECT_NEAR(hi_sum, 1.0, 1e-9);
  }
}

TEST(DrqAnalysis, AllSensitiveInputsGiveZeroPrecisionLoss) {
  LayerSetup s = make_layer(2);
  DrqConfig cfg;
  cfg.input_threshold = -1.0f;  // every input region high precision
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.3f);
  EXPECT_NEAR(a.precision_loss_sensitive, 0.0, 1e-6);
  // With all-high inputs, every sensitive output sits in the 0-25% low bin.
  EXPECT_NEAR(a.lowprec_share_hist[0], 1.0, 1e-9);
}

TEST(DrqAnalysis, AllInsensitiveInputsGiveZeroExtraPrecision) {
  LayerSetup s = make_layer(3);
  DrqConfig cfg;
  cfg.input_threshold = 1e9f;  // every input region low precision
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.3f);
  EXPECT_NEAR(a.extra_precision_insensitive, 0.0, 1e-6);
}

TEST(DrqAnalysis, MixedInputsInjectNoiseIntoSensitiveOutputs) {
  // The paper's core observation (Fig. 3): with mixed input precision,
  // sensitive outputs receive nonzero noise.
  LayerSetup s = make_layer(4);
  DrqConfig cfg;
  cfg.lo_bits = 2;  // INT4-INT2 mode where the effect is pronounced
  cfg.hi_bits = 4;
  cfg.input_threshold = calibrate_input_threshold(s.x, cfg, 0.5);
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.2f);
  if (a.sensitive_output_fraction > 0.0) {
    EXPECT_GT(a.precision_loss_sensitive, 0.0);
  }
}

TEST(DrqAnalysis, MixedInputsWasteComputationOnInsensitiveOutputs) {
  // Fig. 5: insensitive outputs computed with some high-precision inputs
  // carry extra precision that low-precision inputs would not.
  LayerSetup s = make_layer(5);
  DrqConfig cfg;
  cfg.input_threshold = calibrate_input_threshold(s.x, cfg, 0.5);
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.5f);
  if (a.sensitive_output_fraction < 1.0) {
    EXPECT_GT(a.extra_precision_insensitive, 0.0);
  }
}

TEST(DrqAnalysis, OutputThresholdControlsSensitiveFraction) {
  LayerSetup s = make_layer(6);
  DrqConfig cfg;
  cfg.input_threshold = calibrate_input_threshold(s.x, cfg, 0.5);
  const LayerAnalysis lo = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.05f);
  const LayerAnalysis hi = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 1.0f);
  EXPECT_GE(lo.sensitive_output_fraction, hi.sensitive_output_fraction);
}

TEST(DrqAnalysis, OutputsCounted) {
  LayerSetup s = make_layer(7);
  DrqConfig cfg;
  LayerAnalysis a = analyze_layer(s.x, s.w, s.bias, 1, 1, cfg, 0.3f);
  EXPECT_EQ(a.outputs, 1 * 4 * 12 * 12);
}

}  // namespace
}  // namespace odq::drq
