// Graceful-degradation coverage: OdqConvExecutor must serve layers whose
// quantization parameters are degenerate through the static-INT8 path
// instead of producing NaN/garbage, incrementing the `odq.fallback` obs
// counter exactly once per (layer, run) and logging once per layer.
#include "core/odq.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_acts(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
  return t;
}

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

class OdqFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_telemetry_enabled(true);
    obs::telemetry_reset();
  }
  void TearDown() override {
    obs::telemetry_reset();
    obs::set_telemetry_enabled(false);
  }

  Tensor weight_ = random_weights(Shape{3, 2, 3, 3}, 2);
  Tensor bias_ = random_weights(Shape{3}, 3);
};

TEST_F(OdqFallbackTest, NormalInputDoesNotFallBack) {
  OdqConvExecutor exec(OdqConfig{});
  const Tensor in = random_acts(Shape{1, 2, 8, 8}, 1);
  (void)exec.run(in, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(exec.fallback_count(0), 0);
  EXPECT_EQ(obs::telemetry_counter("odq.fallback").total(), 0);
  EXPECT_EQ(exec.layer_stats(0).calls, 1);
}

TEST_F(OdqFallbackTest, CollapsedRangeFallsBackToStaticInt8) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor zeros(Shape{1, 2, 8, 8});  // post-ReLU all-zero: no positive values
  const Tensor out = exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(exec.fallback_count(0), 1);

  quant::StaticQuantConvExecutor reference(/*bits=*/8);
  const Tensor want = reference.run(zeros, weight_, bias_, 1, 1, 0);
  EXPECT_EQ(tensor::max_abs_diff(out, want), 0.0f);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(out[i])) << "output " << i;
  }
}

TEST_F(OdqFallbackTest, NonFiniteActivationsFallBack) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor in = random_acts(Shape{1, 2, 8, 8}, 4);
  in[17] = std::numeric_limits<float>::quiet_NaN();
  (void)exec.run(in, weight_, bias_, 1, 1, 0);
  EXPECT_EQ(exec.fallback_count(0), 1);

  Tensor in2 = random_acts(Shape{1, 2, 8, 8}, 5);
  in2[3] = std::numeric_limits<float>::infinity();
  (void)exec.run(in2, weight_, bias_, 1, 1, 0);
  EXPECT_EQ(exec.fallback_count(0), 2);
}

TEST_F(OdqFallbackTest, NonFiniteThresholdFallsBack) {
  OdqConfig cfg;
  cfg.threshold = std::numeric_limits<float>::quiet_NaN();
  OdqConvExecutor exec(cfg);
  const Tensor in = random_acts(Shape{1, 2, 8, 8}, 6);
  (void)exec.run(in, weight_, bias_, 1, 1, 0);
  EXPECT_EQ(exec.fallback_count(0), 1);
}

// Golden counter semantics: `odq.fallback` moves by exactly one per
// (layer, run) — dashboards alert on its rate, so double counting (or
// counting only the first occurrence) would silently skew it.
TEST_F(OdqFallbackTest, FallbackCounterIncrementsExactlyOncePerRun) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor zeros(Shape{1, 2, 8, 8});

  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(obs::telemetry_counter("odq.fallback").total(), 1);
  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(obs::telemetry_counter("odq.fallback").total(), 2);
  EXPECT_EQ(exec.fallback_count(0), 2);

  // A second degenerate layer counts independently.
  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/1);
  EXPECT_EQ(obs::telemetry_counter("odq.fallback").total(), 3);
  EXPECT_EQ(exec.fallback_count(0), 2);
  EXPECT_EQ(exec.fallback_count(1), 1);

  // A healthy layer in the same executor does not move the counter.
  (void)exec.run(random_acts(Shape{1, 2, 8, 8}, 7), weight_, bias_, 1, 1, 2);
  EXPECT_EQ(obs::telemetry_counter("odq.fallback").total(), 3);
  EXPECT_EQ(exec.fallback_count(2), 0);
}

TEST_F(OdqFallbackTest, ResetStatsClearsFallbackCounts) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor zeros(Shape{1, 2, 8, 8});
  (void)exec.run(zeros, weight_, bias_, 1, 1, 0);
  ASSERT_EQ(exec.fallback_count(0), 1);
  exec.reset_stats();
  EXPECT_EQ(exec.fallback_count(0), 0);
}

}  // namespace
}  // namespace odq::core
