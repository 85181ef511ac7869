// Figure 19: normalized execution time of the four DNNs on the four
// Table-2 accelerators (INT16 DoReFa, INT8 DoReFa, DRQ, ODQ).
//
// Also reports host wall-clock for the software ODQ pipeline itself (the
// direct-conv oracle odq_conv_reference vs the packed odq_conv pipeline),
// since the simulated cycle counts say nothing about how fast this repo
// executes.
#include <cstdio>

#include "accel/simulator.hpp"
#include "common.hpp"
#include "core/odq.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using OdqConvFn = odq::core::OdqConvResult (*)(
    const odq::quant::QTensor&, const odq::quant::QTensor&, std::int64_t,
    std::int64_t, const odq::core::OdqConfig&);

// Batch-8 quick-scale ResNet-20-ish conv stack (16-ch 16x16 + 32-ch 8x8),
// the shape EXPERIMENTS.md quotes for the host hot-path numbers. Times the
// integer conv `conv` on pre-quantized operands.
double time_host_pipeline(const odq::core::OdqConfig& cfg,
                          OdqConvFn conv = odq::core::odq_conv) {
  using namespace odq;
  util::Rng rng(1);
  auto acts = [&](tensor::Shape s) {
    tensor::Tensor t(std::move(s));
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
    return t;
  };
  auto wts = [&](tensor::Shape s) {
    tensor::Tensor t(std::move(s));
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
    return t;
  };
  const quant::QTensor x1 =
      quant::quantize_activations(acts({8, 16, 16, 16}), cfg.total_bits);
  const quant::QTensor w1 =
      quant::quantize_weights(wts({16, 16, 3, 3}), cfg.total_bits);
  const quant::QTensor x2 =
      quant::quantize_activations(acts({8, 32, 8, 8}), cfg.total_bits);
  const quant::QTensor w2 =
      quant::quantize_weights(wts({32, 32, 3, 3}), cfg.total_bits);
  (void)conv(x1, w1, 1, 1, cfg);  // warm-up
  util::WallTimer t;
  for (int i = 0; i < 10; ++i) {
    (void)conv(x1, w1, 1, 1, cfg);
    (void)conv(x2, w2, 1, 1, cfg);
  }
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odq;
  bench::json_init(argc, argv);
  bench::print_header(
      "bench_fig19_execution_time",
      "Figure 19 (normalized execution time) + Table 2 (configurations)",
      "paper: ODQ cuts execution time 97.8% vs INT16, 95.8% vs INT8, "
      "67.6% vs DRQ");

  std::printf("Table 2 — accelerator configurations (same area budget):\n");
  std::printf("%-8s %-8s %-10s %s\n", "name", "#PEs", "PE width", "on-chip MB");
  bench::print_rule();
  for (const auto& cfg : accel::table2_configs()) {
    std::printf("%-8s %-8d INT%-7d %.2f\n", cfg.name.c_str(), cfg.num_pes,
                cfg.pe_bits, cfg.onchip_mem_mb);
  }

  std::printf("\nFigure 19 — execution time normalized to INT16 = 1.0:\n");
  std::printf("%-10s %-10s %-10s %-10s %-10s\n", "model", "INT16", "INT8",
              "DRQ", "ODQ");
  bench::print_rule();

  double sum_vs16 = 0.0, sum_vs8 = 0.0, sum_vsdrq = 0.0;
  for (const auto& model : bench::model_names()) {
    auto wls = bench::workloads_for(model, 10, bench::workload_odq_config(model, 10),
                                    bench::workload_drq_config());
    double cycles[4];
    int i = 0;
    for (const auto& cfg : accel::table2_configs()) {
      cycles[i++] = accel::simulate(cfg, wls).total_cycles;
    }
    std::printf("%-10s %-10.3f %-10.3f %-10.3f %-10.4f\n", model.c_str(),
                1.0, cycles[1] / cycles[0], cycles[2] / cycles[0],
                cycles[3] / cycles[0]);
    bench::json_row("fig19", {{"model", model},
                              {"int16", 1.0},
                              {"int8", cycles[1] / cycles[0]},
                              {"drq", cycles[2] / cycles[0]},
                              {"odq", cycles[3] / cycles[0]}});
    sum_vs16 += 1.0 - cycles[3] / cycles[0];
    sum_vs8 += 1.0 - cycles[3] / cycles[1];
    sum_vsdrq += 1.0 - cycles[3] / cycles[2];
  }
  const double n = static_cast<double>(bench::model_names().size());
  bench::print_rule();
  std::printf("mean ODQ execution-time reduction: vs INT16 %.1f%% (paper "
              "97.8%%), vs INT8 %.1f%% (paper 95.8%%), vs DRQ %.1f%% (paper "
              "67.6%%)\n",
              100.0 * sum_vs16 / n, 100.0 * sum_vs8 / n,
              100.0 * sum_vsdrq / n);
  bench::json_row("fig19_mean_reduction",
                  {{"vs_int16_pct", 100.0 * sum_vs16 / n},
                   {"vs_int8_pct", 100.0 * sum_vs8 / n},
                   {"vs_drq_pct", 100.0 * sum_vsdrq / n}});

  std::printf("\nHost wall-clock — ODQ software pipeline, 20 batch-8 convs "
              "(threshold %.2f):\n", 0.15);
  core::OdqConfig host_cfg;
  host_cfg.threshold = 0.15f;
  const double reference_s =
      time_host_pipeline(host_cfg, core::odq_conv_reference);
  const double packed_s = time_host_pipeline(host_cfg, core::odq_conv);
  std::printf("%-28s %.3f s\n", "odq_conv_reference (direct)", reference_s);
  std::printf("%-20s (%zu thr) %.3f s  (%.2fx)\n", "odq_conv (packed)",
              util::ThreadPool::global().size(), packed_s,
              reference_s / packed_s);
  bench::json_row("host_wall_clock",
                  {{"reference_seconds", reference_s},
                   {"packed_seconds", packed_s},
                   {"pool_threads", util::ThreadPool::global().size()},
                   {"speedup", reference_s / packed_s}});

  // SIMD kernel A/B over the same packed pipeline at threshold 0 — every
  // output sensitive, the worst case where the packed path used to trail
  // the direct conv by ~20%. All wall cells are *_seconds/speedup so the
  // odq_bench_diff gate ignores them; the backend strings document what ran.
  {
    const simd::Backend active = simd::active_backend();
    core::OdqConfig ab_cfg;
    ab_cfg.threshold = 0.0f;
    simd::set_backend(simd::Backend::kScalar);
    const double scalar_s = time_host_pipeline(ab_cfg);
    simd::set_backend(active);
    const double active_s = time_host_pipeline(ab_cfg);
    std::printf("\nSIMD kernel A/B — threshold 0 (100%% sensitive), tiled "
                "pipeline:\n");
    std::printf("%-28s %.3f s\n", "scalar kernels", scalar_s);
    std::printf("%-21s (%s) %.3f s  (%.2fx)\n", "active backend",
                simd::backend_name(active), active_s, scalar_s / active_s);
    bench::json_row(
        "simd_ab",
        {{"active_backend", std::string(simd::backend_name(active))},
         {"scalar_seconds", scalar_s},
         {"active_seconds", active_s},
         {"speedup", scalar_s / active_s}});
  }

  // Threshold sweep over the same conv stack: the mask-aware sparse
  // epilogue runs the Eq. 3 dot only for sensitive outputs, so host
  // wall time must fall with the sensitive fraction. The fractions are
  // deterministic (fixed rng seed) and gated by odq_bench_diff; the
  // *_seconds cells are wall-clock and auto-ignored by the gate.
  std::printf("\nHost threshold sweep — sensitive fraction vs wall time:\n");
  std::printf("%-10s %-14s %-10s\n", "threshold", "sensitive frac", "secs");
  bench::print_rule();
  for (const float thr : {0.0f, 4.0f, 8.0f, 16.0f, 32.0f}) {
    core::OdqConfig sweep_cfg;
    sweep_cfg.threshold = thr;
    util::Rng rng(1);
    auto fill = [&](tensor::Tensor& t, bool act) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = act ? rng.uniform_f(0, 1) : rng.normal_f(0, 0.3f);
      }
    };
    tensor::Tensor x1(tensor::Shape{8, 16, 16, 16}), w1(tensor::Shape{16, 16, 3, 3});
    tensor::Tensor x2(tensor::Shape{8, 32, 8, 8}), w2(tensor::Shape{32, 32, 3, 3});
    fill(x1, true); fill(w1, false); fill(x2, true); fill(w2, false);
    tensor::Tensor no_bias;
    (void)core::odq_conv_float(x1, w1, no_bias, 1, 1, sweep_cfg);  // warm-up
    // odq_conv_float overwrites its stats argument, so every call's stats
    // are merged: the phase cells then cover the same 20 convs as secs.
    core::OdqLayerStats total, call;
    util::WallTimer sweep_t;
    for (int i = 0; i < 10; ++i) {
      (void)core::odq_conv_float(x1, w1, no_bias, 1, 1, sweep_cfg, &call);
      total.merge(call);
      (void)core::odq_conv_float(x2, w2, no_bias, 1, 1, sweep_cfg, &call);
      total.merge(call);
    }
    const double secs = sweep_t.seconds();
    std::printf("%-10.2f %-14.4f %-10.3f\n", thr, total.sensitive_fraction(),
                secs);
    char thr_label[32];
    std::snprintf(thr_label, sizeof(thr_label), "thr_%.2f",
                  static_cast<double>(thr));
    bench::json_row("host_threshold_sweep",
                    {{"point", std::string(thr_label)},
                     {"threshold", thr},
                     {"sensitive_fraction", total.sensitive_fraction()},
                     {"odq_seconds", secs},
                     {"quantize_seconds", total.quantize_seconds},
                     {"pack_seconds", total.pack_seconds},
                     {"gemm_seconds", total.gemm_seconds},
                     {"sparse_epilogue_seconds",
                      total.sparse_epilogue_seconds},
                     {"dequantize_seconds", total.dequantize_seconds}});
    // The phases are timed inside the timed convs, so their sum can never
    // exceed the wall time unless the two cover different calls.
    const double phases = total.quantize_seconds + total.pack_seconds +
                          total.gemm_seconds + total.sparse_epilogue_seconds +
                          total.dequantize_seconds;
    if (phases > secs) {
      std::fprintf(stderr,
                   "host_threshold_sweep %s: phases sum to %.6f s, more than "
                   "the %.6f s they are part of\n",
                   thr_label, phases, secs);
      return 1;
    }
  }
  return 0;
}
