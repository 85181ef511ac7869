// Telemetry registry, snapshot/exposition layer, and the background
// exporter (manual injected clock; no wall-time dependence in assertions),
// plus the whole plane as the serving engine, the ODQ executor and the
// accelerator simulator record into it.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "common/temp_path.hpp"
#include "core/odq.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"
#include "util/rng.hpp"

namespace odq::obs {
namespace {

constexpr std::uint64_t kSec = 1000000;

class TelemetryTest : public ::testing::Test {
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

TEST_F(TelemetryTest, RegistryReturnsSameObjectAndChecksKinds) {
  WindowedSeries& a = telemetry_series("t.reg.series");
  WindowedSeries& b = telemetry_series("t.reg.series");
  EXPECT_EQ(&a, &b);
  WindowedCounter& c = telemetry_counter("t.reg.counter");
  WindowedCounter& d = telemetry_counter("t.reg.counter");
  EXPECT_EQ(&c, &d);
  // One namespace: a name registered as one kind refuses the other.
  EXPECT_THROW(telemetry_counter("t.reg.series"), std::invalid_argument);
  EXPECT_THROW(telemetry_series("t.reg.counter"), std::invalid_argument);
}

TEST_F(TelemetryTest, DisabledRecordsNothing) {
  WindowedSeries& s = telemetry_series("t.gate.series");
  WindowedCounter& c = telemetry_counter("t.gate.counter");
  set_telemetry_enabled(false);
  s.record(42);
  c.increment();
  set_telemetry_enabled(true);
  EXPECT_EQ(s.total().count(), 0u);
  EXPECT_EQ(c.total(), 0);
}

TEST_F(TelemetryTest, SnapshotCarriesSortedSeriesAndCounters) {
  telemetry_series("t.snap.zz").record(100);
  telemetry_series("t.snap.aa").record(200);
  telemetry_counter("t.snap.mm").add(7);

  const TelemetrySnapshot snap = telemetry_snapshot(3 * kSec);
  EXPECT_EQ(snap.generated_us, 3 * kSec);
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }

  bool saw_aa = false, saw_mm = false;
  for (const TelemetrySeriesSnapshot& s : snap.series) {
    if (s.name == "t.snap.aa") {
      saw_aa = true;
      EXPECT_EQ(s.total.count, 1u);
      EXPECT_EQ(s.total.mean, 200.0);
      // The snapshot's advance folded the sample into epoch 3, so every
      // window sees it.
      for (const TelemetryWindowStats& w : s.windows) {
        EXPECT_EQ(w.count, 1u);
        EXPECT_GE(w.p50, 200u);
      }
    }
  }
  for (const TelemetryCounterSnapshot& c : snap.counters) {
    if (c.name == "t.snap.mm") {
      saw_mm = true;
      EXPECT_EQ(c.total, 7);
      for (std::int64_t w : c.windows) EXPECT_EQ(w, 7);
    }
  }
  EXPECT_TRUE(saw_aa);
  EXPECT_TRUE(saw_mm);
}

TEST_F(TelemetryTest, JsonDocumentParsesWithSchemaTag) {
  telemetry_series("t.json.lat").record(1234);
  telemetry_counter("t.json.req").add(3);
  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);

  util::JsonWriter w;
  telemetry_to_json(snap, w);
  const util::StatusOr<util::JsonValue> parsed = util::json_try_parse(w.take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const util::JsonValue& doc = *parsed;

  EXPECT_EQ(doc.at("bench").str, "odq_telemetry");
  EXPECT_EQ(doc.at("schema_version").num,
            static_cast<double>(kTelemetrySchemaVersion));
  ASSERT_EQ(doc.at("windows_s").arr.size(), kTelemetryWindowsS.size());
  EXPECT_EQ(doc.at("windows_s").arr[0].num, 1.0);

  const util::JsonValue& series = doc.at("series").at("t.json.lat");
  for (const char* win : {"total", "1s", "10s", "60s"}) {
    ASSERT_TRUE(series.has(win)) << win;
    EXPECT_EQ(series.at(win).at("count").num, 1.0);
    EXPECT_GE(series.at(win).at("p99").num, 1234.0);
  }
  EXPECT_EQ(doc.at("counters").at("t.json.req").at("total").num, 3.0);
  EXPECT_EQ(doc.at("counters").at("t.json.req").at("1s").num, 3.0);
}

TEST_F(TelemetryTest, PrometheusExpositionHasSummaryAndCounterLines) {
  telemetry_series("t.prom.latency_us").record(500);
  telemetry_counter("t.prom.requests").add(9);
  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);

  const std::string text = telemetry_to_prometheus(snap);
  EXPECT_NE(text.find("# TYPE odq_t_prom_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us{window=\"1s\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us_count{window=\"total\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us_sum{window=\"total\"} 500"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_requests_total 9"), std::string::npos);
  EXPECT_NE(text.find("odq_trace_dropped_events_total"), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotSurfacesTraceDroppedEvents) {
  // The droppedEvents counter rides along in every snapshot so starved
  // trace buffers are visible from odq_top, not just the trace file.
  EXPECT_EQ(telemetry_snapshot(0).trace_dropped_events,
            trace_dropped_events());
}

TEST_F(TelemetryTest, ExporterFlushOnceWritesBothFilesAtomically) {
  const std::string json_path =
      testutil::temp_path("odq_telemetry_test.json");
  const std::string prom_path =
      testutil::temp_path("odq_telemetry_test.prom");
  telemetry_series("t.exp.lat").record(777);
  telemetry_counter("t.exp.req").add(2);

  std::uint64_t fake_now = 5 * kSec;
  TelemetryExporterConfig cfg;
  cfg.json_path = json_path;
  cfg.prom_path = prom_path;
  cfg.now_us = [&fake_now] { return fake_now; };
  TelemetryExporter exporter(cfg);

  const TelemetrySnapshot first = exporter.flush_once();
  EXPECT_EQ(first.flush_seq, 1u);
  EXPECT_EQ(first.generated_us, 5 * kSec);
  EXPECT_EQ(exporter.flush_count(), 1u);

  const util::StatusOr<util::JsonValue> doc =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->at("bench").str, "odq_telemetry");
  EXPECT_EQ(doc->at("flush_seq").num, 1.0);
  EXPECT_EQ(doc->at("series").at("t.exp.lat").at("total").at("count").num,
            1.0);

  // Re-flush at a later epoch: the file is atomically replaced (no .tmp
  // residue) and the 1s window has drained while the total persists.
  fake_now = 20 * kSec;
  telemetry_series("t.exp.lat").record(888);
  const TelemetrySnapshot second = exporter.flush_once();
  EXPECT_EQ(second.flush_seq, 2u);
  const util::StatusOr<util::JsonValue> doc2 =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->at("series").at("t.exp.lat").at("total").at("count").num,
            2.0);
  EXPECT_EQ(doc2->at("series").at("t.exp.lat").at("1s").at("count").num, 1.0);
  std::FILE* tmp = std::fopen((json_path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr) << "tmp file left behind";
  if (tmp != nullptr) std::fclose(tmp);

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST_F(TelemetryTest, ExporterStopDrainsFinalSamples) {
  const std::string json_path =
      testutil::temp_path("odq_telemetry_drain.json");
  std::atomic<std::uint64_t> fake_now{1 * kSec};
  TelemetryExporterConfig cfg;
  cfg.json_path = json_path;
  cfg.flush_interval_ms = 1;
  cfg.now_us = [&fake_now] { return fake_now.load(); };
  TelemetryExporter exporter(cfg);
  exporter.start();

  // A sample recorded while the flusher runs must be on disk after stop()
  // even if no periodic flush happened to see it: stop() drains.
  telemetry_counter("t.drain.req").add(5);
  exporter.stop();
  EXPECT_GE(exporter.flush_count(), 1u);

  const util::StatusOr<util::JsonValue> doc =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->at("counters").at("t.drain.req").at("total").num, 5.0);

  exporter.stop();  // idempotent
  std::remove(json_path.c_str());
}

TEST_F(TelemetryTest, ExporterWithBadPathReportsButDoesNotThrowFromStop) {
  TelemetryExporterConfig cfg;
  cfg.json_path = "/nonexistent-dir/odq_telemetry.json";
  cfg.flush_interval_ms = 1;
  cfg.now_us = [] { return std::uint64_t{0}; };
  TelemetryExporter exporter(cfg);
  exporter.start();
  exporter.stop();  // swallows the write failure; flush_once would throw
  EXPECT_THROW(exporter.flush_once(), std::runtime_error);
}

// Sleeps ~1 ms per request, so the engine records a known ~1 ms latency.
class SleepSession : public serve::InferenceSession {
 public:
  tensor::Tensor run(const tensor::Tensor& input) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return input;
  }
  std::string scheme() const override { return "sleep"; }
};

TEST_F(TelemetryTest, ServeOdqAndSimulatorShareOnePlane) {
  // One served request.
  serve::InferResponse res;
  {
    serve::ServeEngine engine(serve::EngineConfig{}, [](int) {
      return std::make_unique<SleepSession>();
    });
    auto fut = engine.submit(tensor::Tensor(tensor::Shape{1, 1, 2, 2}));
    ASSERT_TRUE(fut.ok());
    res = fut->get();
    ASSERT_TRUE(res.status.ok());
  }

  // One ODQ conv forward.
  util::Rng rng(5);
  tensor::Tensor x(tensor::Shape{2, 4, 8, 8}), w(tensor::Shape{8, 4, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  core::OdqConfig cfg;
  cfg.threshold = 0.5f;
  core::OdqConvExecutor exec(cfg);
  (void)exec.run(x, w, tensor::Tensor(), 1, 1, /*conv_id=*/0);
  const core::OdqLayerStats conv = exec.total_stats();

  // One simulated inference of that conv.
  accel::ConvWorkload wl;
  wl.name = "conv0";
  wl.out_channels = 8;
  wl.out_elems = 8 * 8 * 8;
  wl.macs_per_out = 4 * 9;
  wl.total_macs = wl.out_elems * wl.macs_per_out;
  wl.input_elems = 4 * 8 * 8;
  wl.weight_elems = w.numel();
  wl.odq_sensitive_fraction = conv.sensitive_fraction();
  wl.sensitive_per_channel.assign(8, conv.sensitive / (2 * 8));  // per image
  (void)accel::simulate(accel::odq_accelerator(), {wl});

  const TelemetrySnapshot snap = telemetry_snapshot(1 * kSec);

  // Every name is registered once, under one kind.
  std::multiset<std::string> names;
  for (const auto& s : snap.series) names.insert(s.name);
  for (const auto& c : snap.counters) names.insert(c.name);
  for (const std::string& n : names) EXPECT_EQ(names.count(n), 1u) << n;
  for (const char* n :
       {"serve.latency_us", "serve.batch_size", "serve.queue_depth",
        "serve.in_flight", "serve.requests", "odq.conv.outputs",
        "odq.conv.sensitive", "odq.conv.sensitive_fraction", "sim.runs",
        "sim.layer_idle_fraction"}) {
    EXPECT_EQ(names.count(n), 1u) << n;
  }

  auto series = [&](const std::string& name) {
    for (const auto& s : snap.series) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no series " << name;
    return TelemetrySeriesSnapshot{};
  };
  auto counter = [&](const std::string& name) -> std::int64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.total;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
  };

  // The ~1 ms latency resolves within one log bucket (<= 1/32 of the
  // value).
  const auto latency = static_cast<std::uint64_t>(res.latency_us());
  ASSERT_GE(latency, 1000u);
  const TelemetryWindowStats lat = series("serve.latency_us").total;
  EXPECT_EQ(lat.count, 1u);
  EXPECT_GE(lat.p50, latency);
  EXPECT_LE(lat.p50 - latency, latency / 32);
  EXPECT_EQ(counter("serve.requests"), 1);

  // The plane's conv counters are the executor's exact counts.
  const std::int64_t outputs = counter("odq.conv.outputs");
  const std::int64_t sensitive = counter("odq.conv.sensitive");
  ASSERT_GT(outputs, 0);
  EXPECT_EQ(static_cast<double>(sensitive) / static_cast<double>(outputs),
            conv.sensitive_fraction());
  EXPECT_EQ(counter("sim.runs"), 1);
  EXPECT_EQ(series("sim.layer_idle_fraction").total.count, 1u);
}

}  // namespace
}  // namespace odq::obs
