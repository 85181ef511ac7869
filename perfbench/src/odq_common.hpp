// Model-side pieces shared by the workloads: model construction, threshold
// calibration, the timing decorator around core::OdqConvExecutor, the
// odq_conv-vs-reference check, and the accelerator-simulator join.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "bench_util.hpp"
#include "core/odq.hpp"
#include "nn/layer.hpp"
#include "nn/model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

// ResNet-20 for 10 classes at `width`, Kaiming-initialised from `seed`, with
// conv ids assigned.
odq::nn::Model build_resnet20(std::int64_t width, std::uint64_t seed);

// The ODQ threshold at which about `target` of all conv outputs are
// sensitive when each tensor of `calib` is run as one forward (activation
// scales are per tensor, so calibrate on the batch shape the workload runs):
// bisection on the exact layer_stats counters of an OdqConvExecutor. When
// even the smallest threshold falls short (outputs whose predictor is
// exactly zero are never sensitive), the smallest is returned.
// Deterministic for a fixed model and input.
float calibrate_threshold(odq::nn::Model& model,
                          const std::vector<odq::tensor::Tensor>& calib,
                          double target);

// nn::ConvExecutor decorator: forwards to a core::OdqConvExecutor, sums the
// time spent in it, and records a "core.conv" span when tracing.
class TimedConv : public odq::nn::ConvExecutor {
 public:
  explicit TimedConv(float threshold);

  odq::tensor::Tensor run(const odq::tensor::Tensor& input,
                          const odq::tensor::Tensor& weight,
                          const odq::tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad, int conv_id) override;
  std::string name() const override { return "perfbench.timed_odq"; }

  odq::core::OdqConvExecutor& inner() { return *inner_; }
  std::int64_t conv_ns() const { return conv_ns_.load(); }
  void reset() {
    conv_ns_.store(0);
    inner_->reset_stats();
  }

 private:
  std::shared_ptr<odq::core::OdqConvExecutor> inner_;
  std::atomic<std::int64_t> conv_ns_{0};
};

// Runs `image` through `model` with an executor that, for every conv,
// quantizes the conv's input and weight as the ODQ executor does and
// compares core::odq_conv with core::odq_conv_reference bit for bit
// (accumulators, predictor accumulators, mask). Returns the number of convs
// checked and adds mismatching ones to `mismatches`. Restores `restore` as
// the model's executor afterwards.
int check_convs_against_reference(
    odq::nn::Model& model, const odq::tensor::Tensor& image, float threshold,
    const std::shared_ptr<odq::nn::ConvExecutor>& restore,
    std::int64_t& mismatches);

// Simulated cycles for the masks this model and threshold produce, per
// image, on the ODQ and INT8 accelerators of Table 2: the mean over
// `samples`, each run as one forward. Deterministic for a fixed seed.
struct SimJoin {
  double odq_cycles = 0.0;
  double int8_cycles = 0.0;
  double idle_pe_fraction = 0.0;  // ODQ, cycle-weighted over layers
  std::vector<std::string> conv_names;
  std::vector<double> predictor_cycles;  // ODQ, per conv
  std::vector<double> executor_cycles;   // ODQ, per conv
  double speedup_vs_int8() const;
};
SimJoin simulate_masks(odq::nn::Model& model,
                       const std::vector<odq::tensor::Tensor>& samples,
                       float threshold,
                       const std::shared_ptr<odq::nn::ConvExecutor>& restore);

// Host time per MAC: predictor GEMM seconds per predictor MAC and sparse
// epilogue seconds per executor MAC, in ns (0 when there were no MACs).
double ns_per_predictor_mac(const odq::core::OdqLayerStats& s);
double ns_per_executor_mac(const odq::core::OdqLayerStats& s);

// Per-layer metrics of the model layers, shared by every workload.
// `phases` comes from the traced run's counters, normalised per batch or
// request; `traced` are those counters; `exact` are the counters of a fixed
// pass over `exact_images` images, which repeat exactly for a seed.
std::vector<Metric> model_layer_metrics(const PhaseSplit& phases,
                                        const odq::core::OdqLayerStats& traced,
                                        const odq::core::OdqLayerStats& exact,
                                        double exact_images, const SimJoin& sim);

// Host-vs-model join, one report line per conv: host ns per predictor and
// executor MAC from the traced run beside the simulator's predictor and
// executor cycles for the same masks. The paper's cost model charges 3
// cycles per executor MAC against 1 per predictor MAC.
std::vector<std::string> join_report(
    const std::vector<odq::core::OdqLayerStats>& per_conv,
    const odq::core::OdqLayerStats& traced, const SimJoin& sim);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Bitwise equality of two float tensors (shape and bytes).
bool bitwise_equal(const odq::tensor::Tensor& a, const odq::tensor::Tensor& b);

}  // namespace perfbench
