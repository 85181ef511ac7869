#include "odq_common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstring>

#include "accel/config.hpp"
#include "accel/workload.hpp"
#include "drq/drq.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "quant/quantizer.hpp"
#include "trace.hpp"

namespace perfbench {

using odq::tensor::Tensor;

odq::nn::Model build_resnet20(std::int64_t width, std::uint64_t seed) {
  odq::nn::Model model = odq::nn::make_resnet20(10, width);
  odq::nn::kaiming_init(model, seed);
  model.assign_conv_ids();
  return model;
}

float calibrate_threshold(odq::nn::Model& model,
                          const std::vector<Tensor>& calib, double target) {
  odq::core::OdqConfig cfg;
  auto exec = std::make_shared<odq::core::OdqConvExecutor>(cfg);
  model.set_conv_executor(exec);
  auto fraction = [&](double t) {
    exec->set_threshold(static_cast<float>(t));
    exec->reset_stats();
    for (const Tensor& x : calib) (void)model.forward(x, /*train=*/false);
    return exec->total_stats().sensitive_fraction();
  };
  // Bisection in log space keeps f(hi) < target and, unless the target is
  // out of reach, f(lo) >= target; f is non-increasing in the threshold.
  // An unreachable target still runs every step (each lowers hi), so
  // set-up costs the same either way.
  double lo = 1e-3, hi = 1e2;
  for (int i = 0; i < 12; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (fraction(mid) >= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  model.set_conv_executor(nullptr);
  return static_cast<float>(lo);
}

TimedConv::TimedConv(float threshold) {
  odq::core::OdqConfig cfg;
  cfg.threshold = threshold;
  inner_ = std::make_shared<odq::core::OdqConvExecutor>(cfg);
}

Tensor TimedConv::run(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride,
                      std::int64_t pad, int conv_id) {
  ScopedSpan span("core.conv");
  const std::int64_t t0 = now_ns();
  Tensor out = inner_->run(input, weight, bias, stride, pad, conv_id);
  conv_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return out;
}

namespace {

template <typename T>
bool same_bytes(const odq::tensor::TensorT<T>& a,
                const odq::tensor::TensorT<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(T) * a.vec().size()) == 0;
}

// Compares the tiled pipeline with the serial oracle on every conv it sees,
// then serves the conv through the ODQ executor so the forward continues.
class CheckingConv : public odq::nn::ConvExecutor {
 public:
  explicit CheckingConv(float threshold) {
    cfg_.threshold = threshold;
    inner_ = std::make_shared<odq::core::OdqConvExecutor>(cfg_);
  }

  Tensor run(const Tensor& input, const Tensor& weight, const Tensor& bias,
             std::int64_t stride, std::int64_t pad, int conv_id) override {
    const float clip = odq::quant::activation_clip_from_percentile(
        input, cfg_.act_clip_percentile);
    const odq::quant::QTensor qin =
        odq::quant::quantize_activations(input, cfg_.total_bits, clip);
    const odq::quant::QTensor qw = odq::quant::quantize_weights(
        weight, cfg_.total_bits, cfg_.weight_transform);
    const odq::core::OdqConvResult fast =
        odq::core::odq_conv(qin, qw, stride, pad, cfg_);
    const odq::core::OdqConvResult ref =
        odq::core::odq_conv_reference(qin, qw, stride, pad, cfg_);
    ++checked;
    if (!same_bytes(fast.acc, ref.acc) ||
        !same_bytes(fast.predictor_acc, ref.predictor_acc) ||
        !same_bytes(fast.mask, ref.mask) || fast.scale != ref.scale) {
      ++mismatches;
    }
    return inner_->run(input, weight, bias, stride, pad, conv_id);
  }

  std::string name() const override { return "perfbench.check_odq"; }

  int checked = 0;
  std::int64_t mismatches = 0;

 private:
  odq::core::OdqConfig cfg_;
  std::shared_ptr<odq::core::OdqConvExecutor> inner_;
};

}  // namespace

int check_convs_against_reference(
    odq::nn::Model& model, const Tensor& image, float threshold,
    const std::shared_ptr<odq::nn::ConvExecutor>& restore,
    std::int64_t& mismatches) {
  auto check = std::make_shared<CheckingConv>(threshold);
  model.set_conv_executor(check);
  (void)model.forward(image, /*train=*/false);
  model.set_conv_executor(restore);
  mismatches += check->mismatches;
  return check->checked;
}

double SimJoin::speedup_vs_int8() const {
  return odq_cycles > 0.0 ? int8_cycles / odq_cycles : 0.0;
}

SimJoin simulate_masks(odq::nn::Model& model, const std::vector<Tensor>& samples,
                       float threshold,
                       const std::shared_ptr<odq::nn::ConvExecutor>& restore) {
  odq::core::OdqConfig cfg;
  cfg.threshold = threshold;
  SimJoin j;
  const double share = 1.0 / static_cast<double>(samples.size());
  for (const Tensor& sample : samples) {
    const std::vector<odq::accel::ConvWorkload> wl =
        odq::accel::extract_workloads(model, sample, cfg,
                                      odq::drq::DrqConfig{});
    const odq::accel::SimResult odq_sim =
        odq::accel::simulate(odq::accel::odq_accelerator(), wl);
    const odq::accel::SimResult int8_sim =
        odq::accel::simulate(odq::accel::int8_accelerator(), wl);
    j.odq_cycles += share * odq_sim.total_cycles;
    j.int8_cycles += share * int8_sim.total_cycles;
    j.idle_pe_fraction += share * odq_sim.idle_pe_fraction;
    j.predictor_cycles.resize(odq_sim.layers.size(), 0.0);
    j.executor_cycles.resize(odq_sim.layers.size(), 0.0);
    for (std::size_t i = 0; i < odq_sim.layers.size(); ++i) {
      j.predictor_cycles[i] += share * odq_sim.layers[i].predictor_cycles;
      j.executor_cycles[i] += share * odq_sim.layers[i].executor_cycles;
    }
    if (j.conv_names.empty()) {
      for (const auto& w : wl) j.conv_names.push_back(w.name);
    }
  }
  model.set_conv_executor(restore);
  return j;
}

double ns_per_predictor_mac(const odq::core::OdqLayerStats& s) {
  return s.predictor_macs > 0 ? s.gemm_seconds * 1e9 /
                                    static_cast<double>(s.predictor_macs)
                              : 0.0;
}

double ns_per_executor_mac(const odq::core::OdqLayerStats& s) {
  return s.executor_macs > 0 ? s.sparse_epilogue_seconds * 1e9 /
                                   static_cast<double>(s.executor_macs)
                             : 0.0;
}

std::vector<Metric> model_layer_metrics(const PhaseSplit& phases,
                                        const odq::core::OdqLayerStats& traced,
                                        const odq::core::OdqLayerStats& exact,
                                        double exact_images,
                                        const SimJoin& sim) {
  const double pred = ns_per_predictor_mac(traced);
  const double exec = ns_per_executor_mac(traced);
  return {
      {"core.conv_ms", "ms", phases.conv_ms},
      {"core.conv_other_ms", "ms", phases.other_ms},
      {"gemm.pack_ms", "ms", phases.pack_ms},
      {"gemm.predictor_ms", "ms", phases.predictor_ms},
      {"gemm.epilogue_ms", "ms", phases.epilogue_ms},
      {"gemm.ns_per_predictor_mac", "ns", pred},
      {"gemm.ns_per_executor_mac", "ns", exec},
      {"gemm.exec_pred_cost_ratio", "x", pred > 0.0 ? exec / pred : 0.0},
      {"core.sensitive_fraction", "fraction", exact.sensitive_fraction()},
      {"core.outputs_per_image", "count",
       static_cast<double>(exact.outputs) / exact_images},
      {"core.predictor_macs", "count",
       static_cast<double>(exact.predictor_macs) / exact_images},
      {"core.executor_macs", "count",
       static_cast<double>(exact.executor_macs) / exact_images},
      {"accel.odq_cycles", "cycles", sim.odq_cycles},
      {"accel.int8_cycles", "cycles", sim.int8_cycles},
      {"accel.idle_pe_fraction", "fraction", sim.idle_pe_fraction},
  };
}

std::vector<std::string> join_report(
    const std::vector<odq::core::OdqLayerStats>& per_conv,
    const odq::core::OdqLayerStats& traced, const SimJoin& sim) {
  std::vector<std::string> out = {
      "join: conv | host ns/pred-MAC | host ns/exec-MAC | host exec/pred | "
      "sim pred cycles | sim exec cycles | sim exec/pred"};
  char buf[256];
  for (std::size_t i = 0; i < per_conv.size() && i < sim.conv_names.size();
       ++i) {
    const double p = ns_per_predictor_mac(per_conv[i]);
    const double e = ns_per_executor_mac(per_conv[i]);
    const double pc = sim.predictor_cycles[i];
    const double ec = sim.executor_cycles[i];
    std::snprintf(buf, sizeof buf,
                  "join: %s | %.4f | %.4f | %.3f | %.0f | %.0f | %.3f",
                  sim.conv_names[i].c_str(), p, e, p > 0.0 ? e / p : 0.0,
                  pc, ec, pc > 0.0 ? ec / pc : 0.0);
    out.push_back(buf);
  }
  const double p = ns_per_predictor_mac(traced);
  std::snprintf(buf, sizeof buf,
                "join: whole model host exec/pred cost per MAC = %.3f "
                "(paper cost model: 3)",
                p > 0.0 ? ns_per_executor_mac(traced) / p : 0.0);
  out.push_back(buf);
  return out;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool bitwise_equal(const Tensor& a, const Tensor& b) { return same_bytes(a, b); }

}  // namespace perfbench
