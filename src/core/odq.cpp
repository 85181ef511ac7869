#include "core/odq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gemm/gemm.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "gemm/window.hpp"
#include "nn/epilogue.hpp"
#include "obs/fidelity.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace odq::core {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;
using tensor::TensorU8;

namespace {

// The quantize front end: one parallel scan of the conv input (its max is
// the calibration unless a percentile clip applies), then the parallel
// activation code loop and the weight codes. `range` comes from
// quant::activation_range on the same input.
struct QuantizedOperands {
  QTensor input;
  QTensor weight;
};

QuantizedOperands quantize_operands(const Tensor& input, const Tensor& weight,
                                    const quant::ActivationRange& range,
                                    const OdqConfig& cfg) {
  ODQ_TRACE_SPAN("odq.quantize");
  float clip =
      quant::activation_clip_from_percentile(input, cfg.act_clip_percentile);
  if (clip <= 0.0f) clip = range.max;
  return {quant::quantize_activations(input, cfg.total_bits, clip),
          quant::quantize_weights(weight, cfg.total_bits,
                                  cfg.weight_transform)};
}

// Per-conv pipeline counters (see docs/observability.md). Recorded once per
// odq_conv call — a handful of relaxed ops, never inside the MAC loops.
void record_conv_metrics(const OdqLayerStats& s) {
  if (!obs::telemetry_enabled()) return;
  static obs::WindowedCounter& calls = obs::telemetry_counter("odq.conv.calls");
  static obs::WindowedCounter& outputs =
      obs::telemetry_counter("odq.conv.outputs");
  static obs::WindowedCounter& sensitive =
      obs::telemetry_counter("odq.conv.sensitive");
  static obs::WindowedCounter& pred_macs =
      obs::telemetry_counter("odq.conv.predictor_macs");
  static obs::WindowedCounter& exec_macs =
      obs::telemetry_counter("odq.conv.executor_macs");
  static obs::WindowedSeries& frac_bp =
      obs::telemetry_series("odq.conv.sensitive_fraction");
  calls.increment();
  outputs.add(s.outputs);
  sensitive.add(s.sensitive);
  pred_macs.add(s.predictor_macs);
  exec_macs.add(s.executor_macs);
  frac_bp.record(obs::fraction_bp(s.sensitive_fraction()));
}

// Dequantize integer accumulators and add the per-channel bias through the
// shared conv epilogue helper (nn/epilogue.hpp) — the bias-only case there
// is the exact fused expression this file used to hand-roll.
Tensor dequantize_with_bias(const TensorI32& acc, float scale,
                            const Tensor& bias) {
  ODQ_TRACE_SPAN("odq.epilogue");
  nn::ConvEpilogue e;
  e.bias = bias;
  return nn::dequantize_epilogue(acc, scale, e);
}

// Fidelity attribution for one finished ODQ conv (obs/fidelity.hpp): runs
// the FP32 reference conv and dequantizes the predictor-only accumulators,
// then records scheme/predictor/mask-side errors plus the |predictor|
// magnitude histogram. Only ever called when fidelity is enabled — the
// reference conv makes this path deliberately expensive.
void record_odq_fidelity(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, std::int64_t stride,
                         std::int64_t pad, const OdqConfig& cfg,
                         const OdqConvResult& r, const Tensor& out, int layer) {
  ODQ_TRACE_SPAN("odq.fidelity");
  const Tensor ref = tensor::conv2d_direct(input, weight, bias, stride, pad);
  const Tensor pred_out = dequantize_with_bias(r.predictor_acc, r.scale, bias);
  std::vector<float> pred_mag(static_cast<std::size_t>(out.numel()));
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    pred_mag[static_cast<std::size_t>(i)] =
        std::abs(static_cast<float>(r.predictor_acc[i]) * r.scale);
  }
  obs::fidelity_record_odq("odq", layer, cfg.threshold, ref.data(), out.data(),
                           pred_out.data(), pred_mag.data(), r.mask.data(),
                           out.numel());
}

// One float-facing ODQ conv, as odq_conv_float and OdqConvExecutor::run
// both serve it: the quantize front end, odq_conv, the dequantize + bias
// epilogue, and fidelity attribution when it is enabled. `front` started
// before the caller's scan of the input (`range`), so quantize_seconds
// covers the scan too.
struct FloatConv {
  Tensor out;
  OdqConvResult r;
};

FloatConv odq_conv_from_float(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, std::int64_t stride,
                              std::int64_t pad, const OdqConfig& cfg,
                              const quant::ActivationRange& range,
                              const util::WallTimer& front, int layer) {
  const QuantizedOperands q = quantize_operands(input, weight, range, cfg);
  const double quantize_seconds = front.seconds();
  FloatConv c{Tensor{}, odq_conv(q.input, q.weight, stride, pad, cfg)};
  c.r.stats.quantize_seconds = quantize_seconds;

  util::WallTimer back;
  c.out = dequantize_with_bias(c.r.acc, c.r.scale, bias);
  c.r.stats.dequantize_seconds = back.seconds();
  if (obs::fidelity_enabled()) {
    record_odq_fidelity(input, weight, bias, stride, pad, cfg, c.r, c.out,
                        layer);
  }
  return c;
}

// Returns nullptr when the layer's runtime statistics support the dynamic
// scheme, else a short reason string. ODQ's sensitivity threshold compares
// |dequantized predictor| against cfg.threshold — a non-finite threshold
// never selects anything, and a collapsed or non-finite activation range
// makes the predictor magnitudes meaningless. `range` is the front end's
// one scan of the input, so the check costs no pass of its own.
const char* odq_degenerate_reason(const quant::ActivationRange& range,
                                  float threshold) {
  if (!std::isfinite(threshold)) return "non-finite sensitivity threshold";
  if (!range.finite) return "non-finite activation";
  if (range.max <= 0.0f) {
    return "collapsed activation range (no positive values)";
  }
  return nullptr;
}

void check_bits(const QTensor& input, const QTensor& weight,
                const OdqConfig& cfg) {
  if (input.bits != cfg.total_bits || weight.bits != cfg.total_bits) {
    throw std::invalid_argument("odq_conv: tensors must be total_bits wide");
  }
}

}  // namespace

OdqConvResult odq_conv_reference(const QTensor& input, const QTensor& weight,
                                 std::int64_t stride, std::int64_t pad,
                                 const OdqConfig& cfg) {
  check_bits(input, weight, cfg);
  const int lb = cfg.low_bits;

  // Step 2: bit split.
  quant::SplitTensor in_split, w_split;
  {
    ODQ_TRACE_SPAN("odq.bitsplit");
    in_split = quant::split(input, lb);
    w_split = quant::split(weight, lb);
  }

  // Step 3: sensitivity prediction — I_HBS x W_HBS shifted by 2*low_bits.
  const Shape& is = input.q.shape();
  const Shape& ws = weight.q.shape();
  const std::int64_t n = is[0];
  const std::int64_t c = is[1], h = is[2], w = is[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);

  OdqConvResult res;
  res.scale = input.scale * weight.scale;
  {
    ODQ_TRACE_SPAN("odq.predictor");
    // Direct (non-GEMM) integer conv: the reference path must stay an
    // independent oracle for the implicit-GEMM pipeline, so it shares no code
    // with it.
    res.predictor_acc =
        quant::conv2d_i8(in_split.high, w_split.high, stride, pad);
    for (std::int64_t i = 0; i < res.predictor_acc.numel(); ++i) {
      res.predictor_acc[i] <<= 2 * lb;
    }
  }

  // Threshold -> bit mask.
  res.mask = TensorU8(Shape{n, oc, oh, ow});
  res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
  std::int64_t sensitive = 0;
  {
    ODQ_TRACE_SPAN("odq.mask");
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        for (std::int64_t i = 0; i < oh * ow; ++i) {
          const std::int64_t idx = ((b * oc + ch) * oh * ow) + i;
          const float mag =
              std::abs(static_cast<float>(res.predictor_acc[idx]) * res.scale);
          const bool sens = mag >= cfg.threshold;
          res.mask[idx] = sens ? 1 : 0;
          if (sens) {
            ++sensitive;
            ++res.sensitive_per_channel[static_cast<std::size_t>(ch)];
          }
        }
      }
    }
  }

  // Step 4: result generation — remaining three terms, sensitive outputs
  // only. Computed per masked output, mirroring the executor PE's work.
  obs::TraceSpan result_span("odq.result_gen");
  result_span.arg("sensitive", sensitive);
  res.acc = res.predictor_acc;
  const std::int8_t* ih = in_split.high.data();
  const std::int8_t* il = in_split.low.data();
  const std::int8_t* wh = w_split.high.data();
  const std::int8_t* wl = w_split.low.data();
  std::int64_t exec_macs = 0;

  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t och = 0; och < oc; ++och) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t oidx = ((b * oc + och) * oh + oy) * ow + ox;
          if (res.mask[oidx] == 0) continue;
          std::int32_t cross = 0;  // ih*wl + il*wh
          std::int32_t low = 0;    // il*wl
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ki = 0; ki < kh; ++ki) {
              const std::int64_t iy = oy * stride - pad + ki;
              if (iy < 0 || iy >= h) continue;
              const std::int64_t irow = ((b * c + ic) * h + iy) * w;
              const std::int64_t wrow = ((och * c + ic) * kh + ki) * kw;
              for (std::int64_t kj = 0; kj < kw; ++kj) {
                const std::int64_t ix = ox * stride - pad + kj;
                if (ix < 0 || ix >= w) continue;
                const std::int32_t a_h = ih[irow + ix];
                const std::int32_t a_l = il[irow + ix];
                const std::int32_t b_h = wh[wrow + kj];
                const std::int32_t b_l = wl[wrow + kj];
                cross += a_h * b_l + a_l * b_h;
                low += a_l * b_l;
                ++exec_macs;
              }
            }
          }
          res.acc[oidx] += (cross << lb) + low;
        }
      }
    }
  }

  res.stats.calls = 1;
  res.stats.outputs = n * oc * oh * ow;
  res.stats.sensitive = sensitive;
  res.stats.predictor_macs = res.stats.outputs * c * kh * kw;
  res.stats.executor_macs = exec_macs;
  record_conv_metrics(res.stats);
  return res;
}

OdqConvResult odq_conv(const QTensor& input, const QTensor& weight,
                       std::int64_t stride, std::int64_t pad,
                       const OdqConfig& cfg) {
  check_bits(input, weight, cfg);
  const int lb = cfg.low_bits;

  const Shape& is = input.q.shape();
  const Shape& ws = weight.q.shape();
  const std::int64_t n = is[0];
  const std::int64_t c = is[1], h = is[2], w = is[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);

  OdqConvResult res;
  res.scale = input.scale * weight.scale;

  // Step 2 needs no pass of its own: the pipeline copies the codes once
  // into a zero-bordered NHWC window and packs a tap-major filter panel
  // (gemm/window.hpp); the predictor and the epilogue read their rows in
  // place, and the kernels take the digits apart in-register. The window's
  // storage stays with the calling thread from one conv to the next.
  thread_local std::vector<std::int8_t> window_storage;
  gemm::CodeWindow win;
  gemm::FilterPanel wts;
  {
    ODQ_TRACE_SPAN("odq.pack");
    util::WallTimer timer;
    win = gemm::build_code_window(input.q, kh, kw, stride, pad,
                                  window_storage);
    wts = gemm::pack_filter_panel(weight.q);
    res.stats.pack_seconds = timer.seconds();
  }

  // Step 3: sensitivity prediction — tiled INT-GEMM over the high digits
  // (code >> N_LBS, extracted in-register) with the 2*N_LBS shift folded
  // into the store.
  {
    ODQ_TRACE_SPAN("odq.gemm");
    util::WallTimer timer;
    res.predictor_acc = gemm::gemm_conv_i8(win, wts, 2 * lb, lb);
    res.stats.gemm_seconds = timer.seconds();
  }

  // Steps 3b+4: threshold mask and Eq. (3) result generation in one pass
  // over the outputs (gemm/sparse_epilogue), which writes every final
  // accumulator.
  gemm::SparseEpilogueStats es;
  {
    obs::TraceSpan span("odq.sparse_epilogue");
    util::WallTimer timer;
    res.acc = TensorI32(Shape{n, oc, oh, ow});
    res.mask = TensorU8(Shape{n, oc, oh, ow});
    res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
    es = gemm::sparse_result_generation(
        win, wts, res.predictor_acc, res.scale, cfg.threshold, res.acc,
        res.mask, res.sensitive_per_channel);
    res.stats.sparse_epilogue_seconds = timer.seconds();
    span.arg("sensitive", es.sensitive);
  }

  res.stats.calls = 1;
  res.stats.outputs = n * oc * oh * ow;
  res.stats.sensitive = es.sensitive;
  res.stats.predictor_macs = res.stats.outputs * c * kh * kw;
  res.stats.executor_macs = es.executor_macs;
  record_conv_metrics(res.stats);
  return res;
}

Tensor odq_conv_float(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride, std::int64_t pad,
                      const OdqConfig& cfg, OdqLayerStats* stats,
                      TensorU8* mask_out) {
  util::WallTimer front;
  FloatConv c =
      odq_conv_from_float(input, weight, bias, stride, pad, cfg,
                          quant::activation_range(input), front,
                          /*layer=*/-1);
  if (stats != nullptr) *stats = c.r.stats;
  if (mask_out != nullptr) *mask_out = std::move(c.r.mask);
  return std::move(c.out);
}

Tensor OdqConvExecutor::run(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, int conv_id) {
  obs::TraceSpan span("odq.conv");
  span.arg("conv_id", conv_id);
  util::WallTimer front;
  const quant::ActivationRange range = quant::activation_range(input);
  if (const char* reason = odq_degenerate_reason(range, cfg_.threshold)) {
    return run_fallback(input, weight, bias, stride, pad, conv_id, reason);
  }
  FloatConv c = odq_conv_from_float(input, weight, bias, stride, pad, cfg_,
                                    range, front, conv_id);
  OdqConvResult& r = c.r;

  // Calibration subsampling happens in a call-local buffer; the shared
  // state below is only touched under one short lock (concurrent run()
  // callers would otherwise serialize on the sampling loop).
  std::vector<float> local_samples;
  if (calibrate_) {
    const std::int64_t stride_s =
        std::max<std::int64_t>(1, r.predictor_acc.numel() / 512);
    local_samples.reserve(
        static_cast<std::size_t>(r.predictor_acc.numel() / stride_s) + 1);
    for (std::int64_t i = 0; i < r.predictor_acc.numel(); i += stride_s) {
      local_samples.push_back(
          std::abs(static_cast<float>(r.predictor_acc[i]) * r.scale));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    if (stats_.size() <= id) {
      stats_.resize(id + 1);
      last_channel_counts_.resize(id + 1);
    }
    stats_[id].merge(r.stats);
    last_channel_counts_[id] = std::move(r.sensitive_per_channel);
    calib_samples_.insert(calib_samples_.end(), local_samples.begin(),
                          local_samples.end());
  }
  return std::move(c.out);
}

Tensor OdqConvExecutor::run_fallback(const Tensor& input, const Tensor& weight,
                                     const Tensor& bias, std::int64_t stride,
                                     std::int64_t pad, int conv_id,
                                     const char* reason) {
  obs::TraceSpan span("odq.fallback");
  span.arg("conv_id", conv_id);
  static obs::WindowedCounter& fallbacks =
      obs::telemetry_counter("odq.fallback");
  fallbacks.increment();
  bool log_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    if (fallback_counts_.size() <= id) fallback_counts_.resize(id + 1, 0);
    log_now = fallback_counts_[id]++ == 0;
  }
  if (log_now) {
    ODQ_LOG_WARN(
        "odq: conv %d has %s; serving this layer via the static-INT8 "
        "fallback",
        conv_id, reason);
  }
  quant::StaticQuantConvExecutor fallback(/*bits=*/8);
  return fallback.run(input, weight, bias, stride, pad, conv_id);
}

std::int64_t OdqConvExecutor::fallback_count(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < fallback_counts_.size() ? fallback_counts_[i] : 0;
}

OdqLayerStats OdqConvExecutor::layer_stats(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < stats_.size() ? stats_[i] : OdqLayerStats{};
}

std::size_t OdqConvExecutor::num_layers_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.size();
}

OdqLayerStats OdqConvExecutor::total_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OdqLayerStats total;
  for (const OdqLayerStats& s : stats_) total.merge(s);
  return total;
}

void OdqConvExecutor::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clear();
  last_channel_counts_.clear();
  fallback_counts_.clear();
  calib_samples_.clear();
}

std::vector<std::int64_t> OdqConvExecutor::last_sensitive_per_channel(
    int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < last_channel_counts_.size() ? last_channel_counts_[i]
                                         : std::vector<std::int64_t>{};
}

std::vector<float> OdqConvExecutor::calibration_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calib_samples_;
}

}  // namespace odq::core
