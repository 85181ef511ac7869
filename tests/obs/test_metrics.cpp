// The library's pipeline metrics on the observability plane: the counters
// and series that the ODQ executor, the thread pool and the accelerator
// simulator record (docs/observability.md), checked through the call sites
// themselves rather than through hand-made test names.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "core/odq.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace odq::obs {
namespace {

// Match test_trace.cpp: a 4-worker global pool, sized before first use.
const int kForcePoolSize = [] {
  ::setenv("ODQ_THREADS", "4", 1);
  return 4;
}();

constexpr std::uint64_t kSec = 1000000;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_telemetry_enabled(true);
    telemetry_reset();
  }
  void TearDown() override {
    telemetry_reset();
    set_telemetry_enabled(false);
  }
};

// One ODQ conv forward; returns the executor's own counts.
core::OdqLayerStats odq_forward(std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor x(tensor::Shape{2, 4, 8, 8}), w(tensor::Shape{8, 4, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  core::OdqConfig cfg;
  cfg.threshold = 0.5f;
  core::OdqConvExecutor exec(cfg);
  (void)exec.run(x, w, tensor::Tensor(), 1, 1, /*conv_id=*/0);
  return exec.total_stats();
}

// One simulated inference of a single conv layer.
void simulate_one_layer(double sensitive_fraction) {
  accel::ConvWorkload wl;
  wl.name = "conv0";
  wl.out_channels = 8;
  wl.out_elems = 8 * 8 * 8;
  wl.macs_per_out = 4 * 9;
  wl.total_macs = wl.out_elems * wl.macs_per_out;
  wl.input_elems = 4 * 8 * 8;
  wl.weight_elems = 8 * 4 * 9;
  wl.odq_sensitive_fraction = sensitive_fraction;
  wl.sensitive_per_channel.assign(8, 8 * 8 / 2);
  (void)accel::simulate(accel::odq_accelerator(), {wl});
}

const TelemetryCounterSnapshot* find_counter(const TelemetrySnapshot& snap,
                                             const std::string& name) {
  for (const TelemetryCounterSnapshot& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const TelemetrySeriesSnapshot* find_series(const TelemetrySnapshot& snap,
                                           const std::string& name) {
  for (const TelemetrySeriesSnapshot& s : snap.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(MetricsTest, DisabledRecordsNothing) {
  set_telemetry_enabled(false);
  const core::OdqLayerStats conv = odq_forward(1);
  ASSERT_GT(conv.outputs, 0);
  simulate_one_layer(conv.sensitive_fraction());
  util::parallel_for(
      64, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  set_telemetry_enabled(true);

  for (const char* name : {"odq.conv.calls", "odq.conv.outputs",
                           "odq.conv.sensitive", "sim.runs", "sim.cycles",
                           "threadpool.tasks"}) {
    EXPECT_EQ(telemetry_counter(name).total(), 0) << name;
  }
  for (const char* name :
       {"odq.conv.sensitive_fraction", "sim.layer_idle_fraction"}) {
    EXPECT_EQ(telemetry_series(name).total().count(), 0u) << name;
  }
}

TEST_F(MetricsTest, RegistryReturnsSameObjectAndChecksKinds) {
  const core::OdqLayerStats conv = odq_forward(2);
  simulate_one_layer(conv.sensitive_fraction());

  // A lookup by name reaches the object the call site recorded into.
  WindowedCounter& outputs = telemetry_counter("odq.conv.outputs");
  EXPECT_EQ(&outputs, &telemetry_counter("odq.conv.outputs"));
  EXPECT_EQ(outputs.total(), conv.outputs);
  WindowedSeries& frac = telemetry_series("odq.conv.sensitive_fraction");
  EXPECT_EQ(&frac, &telemetry_series("odq.conv.sensitive_fraction"));
  EXPECT_EQ(frac.total().count(), 1u);

  // Each call-site name holds one kind; asking for the other refuses.
  for (const char* name :
       {"odq.conv.calls", "odq.conv.outputs", "odq.conv.sensitive",
        "odq.conv.predictor_macs", "odq.conv.executor_macs", "sim.runs",
        "sim.layers", "sim.cycles"}) {
    EXPECT_THROW(telemetry_series(name), std::invalid_argument) << name;
  }
  for (const char* name :
       {"odq.conv.sensitive_fraction", "sim.layer_idle_fraction"}) {
    EXPECT_THROW(telemetry_counter(name), std::invalid_argument) << name;
  }
}

TEST_F(MetricsTest, ParallelCountsMatchSerialExactly) {
  constexpr std::int64_t kN = 10000;
  WindowedCounter& serial = telemetry_counter("t.det.serial");
  WindowedCounter& parallel = telemetry_counter("t.det.parallel");
  WindowedSeries& ss = telemetry_series("t.det.sseries");
  WindowedSeries& ps = telemetry_series("t.det.pseries");

  for (std::int64_t i = 0; i < kN; ++i) {
    serial.add(i % 7);
    ss.record(static_cast<std::uint64_t>(i % 100));
  }
  util::parallel_for(
      kN,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          parallel.add(i % 7);
          ps.record(static_cast<std::uint64_t>(i % 100));
        }
      },
      /*grain=*/64);

  // Counter totals and series histograms merge to the serial answer no
  // matter how the work was sharded.
  EXPECT_EQ(parallel.total(), serial.total());
  const LogHistogram s = ss.total(), p = ps.total();
  EXPECT_EQ(p.count(), s.count());
  EXPECT_EQ(p.sum(), s.sum());
  EXPECT_EQ(p.min(), s.min());
  EXPECT_EQ(p.max(), s.max());
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    EXPECT_EQ(p.bucket_count(i), s.bucket_count(i)) << "bucket " << i;
  }
}

TEST_F(MetricsTest, SnapshotIsSortedAndTyped) {
  const core::OdqLayerStats conv = odq_forward(3);
  simulate_one_layer(conv.sensitive_fraction());

  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }

  // Counts land among the counters, per-call fractions among the series.
  ASSERT_NE(find_counter(snap, "odq.conv.calls"), nullptr);
  EXPECT_EQ(find_counter(snap, "odq.conv.calls")->total, 1);
  EXPECT_EQ(find_series(snap, "odq.conv.calls"), nullptr);
  ASSERT_NE(find_counter(snap, "odq.conv.executor_macs"), nullptr);
  EXPECT_EQ(find_counter(snap, "odq.conv.executor_macs")->total,
            conv.executor_macs);
  ASSERT_NE(find_counter(snap, "sim.runs"), nullptr);
  EXPECT_EQ(find_counter(snap, "sim.runs")->total, 1);

  // Fractions are one sample each, in basis points.
  const TelemetrySeriesSnapshot* frac =
      find_series(snap, "odq.conv.sensitive_fraction");
  ASSERT_NE(frac, nullptr);
  EXPECT_EQ(find_counter(snap, "odq.conv.sensitive_fraction"), nullptr);
  EXPECT_EQ(frac->total.count, 1u);
  EXPECT_EQ(frac->total.mean,
            static_cast<double>(fraction_bp(conv.sensitive_fraction())));
  const TelemetrySeriesSnapshot* idle =
      find_series(snap, "sim.layer_idle_fraction");
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->total.count, 1u);
  EXPECT_LE(idle->total.max, 10000u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  const core::OdqLayerStats first = odq_forward(4);
  WindowedCounter& outputs = telemetry_counter("odq.conv.outputs");
  WindowedSeries& frac = telemetry_series("odq.conv.sensitive_fraction");
  EXPECT_EQ(outputs.total(), first.outputs);

  telemetry_reset();
  EXPECT_EQ(outputs.total(), 0);
  EXPECT_EQ(frac.total().count(), 0u);

  // The call site resolved its handles once; they still record after the
  // reset, into the same registered objects.
  const core::OdqLayerStats second = odq_forward(5);
  EXPECT_EQ(&outputs, &telemetry_counter("odq.conv.outputs"));
  EXPECT_EQ(outputs.total(), second.outputs);
  EXPECT_EQ(telemetry_counter("odq.conv.sensitive").total(), second.sensitive);
  EXPECT_EQ(frac.total().count(), 1u);
}

TEST_F(MetricsTest, SnapshotIncludesSyntheticTraceDroppedEventsCounter) {
  // Span loss must be visible wherever metrics are, even when no metric
  // named trace.* was ever registered.
  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);
  for (const TelemetryCounterSnapshot& c : snap.counters) {
    EXPECT_NE(c.name.rfind("trace.", 0), 0u) << c.name;
  }
  util::JsonWriter w;
  telemetry_to_json(snap, w);
  const util::StatusOr<util::JsonValue> doc = util::json_try_parse(w.take());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  ASSERT_TRUE(doc->has("trace_dropped_events"));
  EXPECT_EQ(doc->at("trace_dropped_events").num,
            static_cast<double>(trace_dropped_events()));
  EXPECT_NE(telemetry_to_prometheus(snap).find(
                "odq_trace_dropped_events_total"),
            std::string::npos);
}

TEST_F(MetricsTest, JsonSnapshotParses) {
  // The document odq_profile embeds under "metrics", holding the
  // executor's counts as recorded by its call site.
  const core::OdqLayerStats conv = odq_forward(6);
  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);

  util::JsonWriter w;
  telemetry_to_json(snap, w);
  const util::StatusOr<util::JsonValue> parsed = util::json_try_parse(w.take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const util::JsonValue& doc = *parsed;
  EXPECT_EQ(doc.at("bench").str, "odq_telemetry");

  const util::JsonValue& counters = doc.at("counters");
  EXPECT_EQ(counters.at("odq.conv.calls").at("total").num, 1.0);
  EXPECT_EQ(counters.at("odq.conv.outputs").at("total").num,
            static_cast<double>(conv.outputs));
  EXPECT_EQ(counters.at("odq.conv.predictor_macs").at("total").num,
            static_cast<double>(conv.predictor_macs));
  const util::JsonValue& frac =
      doc.at("series").at("odq.conv.sensitive_fraction");
  EXPECT_EQ(frac.at("total").at("count").num, 1.0);
  EXPECT_EQ(frac.at("total").at("mean").num,
            static_cast<double>(fraction_bp(conv.sensitive_fraction())));
}

}  // namespace
}  // namespace odq::obs
