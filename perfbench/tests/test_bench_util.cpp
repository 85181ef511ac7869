// Tests of the benchmark's own helpers: the percentile rule, the Poisson
// schedule, the metric-name charset, per-batch phase normalisation, the
// result line, and span self times.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Quantile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(quantile(v, 0.99), 99.0);
  EXPECT_EQ(quantile(v, 1.0), 100.0);
  EXPECT_EQ(quantile(v, 0.001), 1.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, TailRuleKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(10000), 0.999);
  EXPECT_EQ(tail_quantile(9999), 0.99);
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(999), 0.95);
  EXPECT_EQ(tail_quantile(200), 0.95);
  EXPECT_EQ(tail_quantile(199), 0.90);
  EXPECT_EQ(tail_quantile(100), 0.90);
  EXPECT_EQ(tail_quantile(40), 0.75);
  EXPECT_EQ(tail_quantile(20), 0.50);
  EXPECT_EQ(tail_quantile(19), 0.0);
  for (std::size_t n = 20; n < 3000; ++n) {
    const double q = tail_quantile(n);
    EXPECT_GE(samples_beyond(n, q), 10u) << n;
  }
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(quantile_label(0.95), "p95");
  EXPECT_EQ(quantile_label(0.999), "p99.9");
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 1, 120.0, 5.0);
  const auto b = poisson_schedule(7, 1, 120.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_schedule(8, 1, 120.0, 5.0));
  EXPECT_NE(a, poisson_schedule(7, 2, 120.0, 5.0));
}

TEST(PoissonSchedule, SortedInRangeWithTheRequestedRate) {
  const auto s = poisson_schedule(3, 0, 100.0, 100.0);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
  ASSERT_FALSE(s.empty());
  EXPECT_GE(s.front(), 0.0);
  EXPECT_LT(s.back(), 100.0);
  // 10000 expected arrivals; four standard deviations is 400.
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 400.0);
  EXPECT_TRUE(poisson_schedule(3, 0, 0.0, 10.0).empty());
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("serve.queue_wait_ms.p99"));
  EXPECT_TRUE(valid_metric_name("0-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name(".x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("count"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'm')));
}

TEST(SplitPhases, NormalisesPerBatch) {
  const PhaseSplit s = split_phases(2.0, 0.5, 0.3, 0.2, 10);
  EXPECT_DOUBLE_EQ(s.conv_ms, 200.0);
  EXPECT_DOUBLE_EQ(s.pack_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.predictor_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.epilogue_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.other_ms, 100.0);
  EXPECT_LE(s.pack_ms + s.predictor_ms + s.epilogue_ms, s.conv_ms);
}

TEST(SplitPhases, RefusesPhasesLargerThanTheirConv) {
  // Phases summed over ten iterations against the conv time of one: the
  // 10:1 unit mix must be caught, not reported.
  EXPECT_THROW(split_phases(0.2, 0.5, 0.3, 0.2, 1), std::logic_error);
  EXPECT_THROW(split_phases(1.0, 0.1, 0.1, 0.1, 0), std::invalid_argument);
}

TEST(ResultJson, ExactKeysAndFullDigits) {
  const std::string j =
      result_json(true, 12, 0, {{"latency_ms", "ms", 1.2034567891234},
                                {"setup_s", "s", 0.5}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567891234, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
            "\"s\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", "ms", 1.0}}),
               std::logic_error);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"parent", 1, 0, 1, 0, 100, 0},
      {"child", 2, 1, 1, 10, 30, 0},
      {"child", 3, 1, 1, 20, 50, 0},   // overlaps the first child
      {"child", 4, 1, 1, 60, 70, 0},
      {"child", 5, 1, 1, 95, 120, 0},  // clipped to the parent
  };
  const auto self = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(self.at("parent"), 100.0 - 40.0 - 10.0 - 5.0);
  EXPECT_DOUBLE_EQ(self.at("child"), 20.0 + 30.0 + 10.0 + 25.0);
  EXPECT_DOUBLE_EQ(total_time_by_name(spans).at("child"), 85.0);
}

}  // namespace
}  // namespace perfbench
