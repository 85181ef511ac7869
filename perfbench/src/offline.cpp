// offline_sparse / offline_dense: ResNet-20 (width 16) on a batch of 16
// synthetic 32x32 images, closed loop with one caller. The two workloads
// differ only in the share of conv outputs that are sensitive.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "odq_common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using odq::tensor::Shape;
using odq::tensor::Tensor;

struct OfflineSetup {
  odq::nn::Model model;
  std::shared_ptr<TimedConv> exec;
  Tensor batch;
};

Tensor make_batch(std::uint64_t seed) {
  odq::data::SyntheticConfig sc;
  sc.seed = seed;
  return odq::data::make_synthetic_images(sc, /*train_n=*/0, kOfflineBatch)
      .test.images;
}

// The threshold is a constant of the workload for a seed, so it is found
// once, before and outside the timed set-up.
float calibrate(std::uint64_t seed, double target_fraction) {
  odq::nn::Model model = build_resnet20(kOfflineWidth, seed);
  return calibrate_threshold(model, {make_batch(seed)}, target_fraction);
}

OfflineSetup set_up(std::uint64_t seed, float threshold) {
  OfflineSetup s;
  s.model = build_resnet20(kOfflineWidth, seed);
  s.batch = make_batch(seed);
  s.exec = std::make_shared<TimedConv>(threshold);
  s.model.set_conv_executor(s.exec);
  // The first forward of a fresh model is about twice as slow; keep it out
  // of the timed loop.
  for (int i = 0; i < 2; ++i) (void)s.model.forward(s.batch, false);
  return s;
}

struct LoopResult {
  std::vector<double> batch_ms;
  std::int64_t mismatches = 0;  // logits that differ from the reference
  double elapsed_s = 0.0;
};

LoopResult timed_loop(OfflineSetup& s, double seconds, const Tensor& ref) {
  LoopResult r;
  const std::int64_t t_start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; now_ns() - t_start < budget; ++i) {
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan batch("bench.batch", 0, i + 1);
      Tensor out;
      {
        ScopedSpan fwd("nn.forward");
        out = s.model.forward(s.batch, false);
      }
      if (!bitwise_equal(out, ref)) ++r.mismatches;
    }
    r.batch_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  r.elapsed_s = static_cast<double>(now_ns() - t_start) / 1e9;
  return r;
}

double mean_ms(const LoopResult& r) {
  return r.elapsed_s * 1e3 / static_cast<double>(r.batch_ms.size());
}

}  // namespace

RunResult run_offline(const RunOptions& opt, double target_fraction) {
  RunResult res;

  const float threshold = calibrate(opt.seed, target_fraction);
  std::vector<double> setup_s;
  OfflineSetup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    s = set_up(opt.seed, threshold);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());
  const Tensor ref = s.model.forward(s.batch, false);

  // The untraced loop. In the traced run it is the half the traced half is
  // compared with to give the tracing overhead.
  s.exec->reset();
  const LoopResult plain =
      timed_loop(s, opt.trace ? opt.seconds / 2.0 : opt.seconds, ref);
  res.attempted += static_cast<std::int64_t>(plain.batch_ms.size());
  std::int64_t mismatches = plain.mismatches;

  LoopResult traced;
  odq::core::OdqLayerStats traced_stats;
  std::int64_t traced_conv_ns = 0;
  std::vector<odq::core::OdqLayerStats> traced_convs;
  if (opt.trace) {
    s.exec->reset();
    tracer().set_enabled(true);
    traced = timed_loop(s, opt.seconds / 2.0, ref);
    tracer().set_enabled(false);
    res.attempted += static_cast<std::int64_t>(traced.batch_ms.size());
    mismatches += traced.mismatches;
    traced_stats = s.exec->inner().total_stats();
    traced_conv_ns = s.exec->conv_ns();
    for (odq::nn::Conv2d* c : s.model.convs()) {
      traced_convs.push_back(s.exec->inner().layer_stats(c->conv_id()));
    }
  }

  // ---- correctness and exact counters, after timing ------------------------
  s.exec->reset();
  if (!bitwise_equal(s.model.forward(s.batch, false), ref)) ++mismatches;
  ++res.attempted;
  const odq::core::OdqLayerStats exact = s.exec->inner().total_stats();
  std::int64_t fallbacks = 0;
  for (odq::nn::Conv2d* c : s.model.convs()) {
    fallbacks += s.exec->inner().fallback_count(c->conv_id());
  }
  const Tensor check_image(
      Shape{1, s.batch.shape()[1], s.batch.shape()[2], s.batch.shape()[3]},
      std::vector<float>(s.batch.data(),
                         s.batch.data() + s.batch.numel() / kOfflineBatch));
  std::int64_t conv_mismatches = 0;
  const int convs_checked = check_convs_against_reference(
      s.model, check_image, threshold, s.exec, conv_mismatches);
  res.attempted += convs_checked;
  // A fallback is the executor's designed answer to a degenerate input; it
  // is reported, not counted as a failure.
  res.failed = mismatches + conv_mismatches;
  res.correct = res.failed == 0;

  const SimJoin sim = simulate_masks(s.model, {s.batch}, threshold, s.exec);

  const std::size_t n = plain.batch_ms.size();
  const double tail_q = std::max(0.5, tail_quantile(n));
  const auto images = static_cast<double>(kOfflineBatch);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "threshold = %.6g (target sensitive share %.2f); "
                "core.sensitive_fraction = %.6f of %.0f outputs per image; "
                "core.predictor_macs = %.0f, core.executor_macs = %.0f per "
                "image (exact)",
                threshold, target_fraction, exact.sensitive_fraction(),
                static_cast<double>(exact.outputs) / images,
                static_cast<double>(exact.predictor_macs) / images,
                static_cast<double>(exact.executor_macs) / images);
  res.report.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "batches timed = %zu; batch latency: fastest %.3f ms, p50 "
                "%.3f ms, %s %.3f ms (%zu samples beyond it); setup_s = "
                "median of %d set-ups",
                n, quantile(plain.batch_ms, 0.0), quantile(plain.batch_ms, 0.5),
                quantile_label(tail_q).c_str(), quantile(plain.batch_ms, tail_q),
                samples_beyond(n, tail_q), kSetupRepeats);
  res.report.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "error_rate = %.6g (%lld failed of %lld attempted: %lld "
                "logit mismatches, %lld of %d convs differ from "
                "odq_conv_reference; %lld conv runs served by the "
                "degenerate-input fallback)",
                static_cast<double>(res.failed) /
                    static_cast<double>(res.attempted),
                static_cast<long long>(res.failed),
                static_cast<long long>(res.attempted),
                static_cast<long long>(mismatches),
                static_cast<long long>(conv_mismatches), convs_checked,
                static_cast<long long>(fallbacks));
  res.report.push_back(buf);

  res.end_to_end = {
      {"setup_s", "s", setup_s[setup_s.size() / 2]},
      // At the median batch time: a stretch of the run in which the host
      // took CPU time away moves a mean, not the median.
      {"images_per_s", "1/s", images * 1e3 / quantile(plain.batch_ms, 0.5)},
      {"sim_speedup_vs_int8", "x", sim.speedup_vs_int8()},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };
  if (!opt.trace) return res;

  // ---- per-layer attribution from the traced half, per batch --------------
  const std::vector<Span> spans = tracer().spans();
  const auto self = self_time_by_name(spans);
  const auto total = total_time_by_name(spans);
  const auto batches = static_cast<std::int64_t>(traced.batch_ms.size());
  const double ns_to_ms = 1e-6 / static_cast<double>(batches);
  const PhaseSplit ph = split_phases(
      static_cast<double>(traced_conv_ns) / 1e9, traced_stats.pack_seconds,
      traced_stats.gemm_seconds, traced_stats.sparse_epilogue_seconds,
      batches);
  res.per_layer = {
      {"nn.forward_ms", "ms", total.at("nn.forward") * ns_to_ms},
      {"nn.nonconv_ms", "ms", self.at("nn.forward") * ns_to_ms},
      {"bench.unattributed_ms", "ms", self.at("bench.batch") * ns_to_ms},
      {"bench.trace_overhead_pct", "%",
       (mean_ms(traced) / mean_ms(plain) - 1.0) * 100.0},
      // No engine and no generator on this workload.
      {"serve.queue_wait_ms.p50", "ms", 0.0},
      {"serve.queue_wait_ms.p99", "ms", 0.0},
      {"serve.exec_ms.p50", "ms", 0.0},
      {"serve.batch_size_mean", "requests", 0.0},
      {"bench.gen_lag_ms.p99", "ms", 0.0},
  };
  for (Metric& m : model_layer_metrics(ph, traced_stats, exact, images, sim)) {
    res.per_layer.push_back(std::move(m));
  }
  for (std::string& line : join_report(traced_convs, traced_stats, sim)) {
    res.report.push_back(std::move(line));
  }
  return res;
}

}  // namespace perfbench
