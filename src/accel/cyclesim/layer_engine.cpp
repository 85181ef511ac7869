#include "accel/cyclesim/layer_engine.hpp"

#include <algorithm>
#include <vector>

#include "accel/cyclesim/crossbar.hpp"
#include "accel/cyclesim/dram_channel.hpp"
#include "accel/cyclesim/line_buffer.hpp"
#include "accel/cyclesim/pe_array.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace odq::accel::cyclesim {

namespace {

// Bresenham-style even spreading: output i of a channel with `sens` of
// `total` sensitive outputs is sensitive iff the running error crosses 1.
class SensitivityPattern {
 public:
  SensitivityPattern(std::int64_t sensitive, std::int64_t total)
      : sensitive_(sensitive), total_(std::max<std::int64_t>(total, 1)) {}

  bool next() {
    acc_ += sensitive_;
    if (acc_ >= total_) {
      acc_ -= total_;
      return true;
    }
    return false;
  }

 private:
  std::int64_t sensitive_;
  std::int64_t total_;
  std::int64_t acc_ = 0;
};

}  // namespace

namespace {

// Per-layer PE-array busy/idle and memory-stall counters, so cycle-sim runs
// show up in metrics snapshots without the caller aggregating by hand.
void record_layer_metrics(const CycleSimResult& r) {
  if (!obs::telemetry_enabled()) return;
  using obs::telemetry_counter;
  static obs::WindowedCounter& layers = telemetry_counter("cyclesim.layers");
  static obs::WindowedCounter& cycles = telemetry_counter("cyclesim.cycles");
  static obs::WindowedCounter& pred_busy =
      telemetry_counter("cyclesim.predictor_busy");
  static obs::WindowedCounter& pred_idle =
      telemetry_counter("cyclesim.predictor_idle");
  static obs::WindowedCounter& exec_busy =
      telemetry_counter("cyclesim.executor_busy");
  static obs::WindowedCounter& exec_idle =
      telemetry_counter("cyclesim.executor_idle");
  static obs::WindowedCounter& underruns =
      telemetry_counter("cyclesim.lb_underruns");
  static obs::WindowedCounter& dram = telemetry_counter("cyclesim.dram_bytes");
  layers.increment();
  cycles.add(r.cycles);
  pred_busy.add(r.predictor_busy);
  pred_idle.add(r.predictor_idle);
  exec_busy.add(r.executor_busy);
  exec_idle.add(r.executor_idle);
  underruns.add(r.line_buffer_underruns);
  dram.add(static_cast<std::int64_t>(r.dram_bytes));
}

}  // namespace

CycleSimResult simulate_layer(const ConvWorkload& wl,
                              const CycleSimConfig& cfg) {
  obs::TraceSpan span("cyclesim.layer");
  CycleSimResult res;
  const int pes_per_array = cfg.slice.pes_per_array(cfg.total_pes);
  res.allocation = cfg.dynamic_allocation
                       ? choose_allocation(wl.odq_sensitive_fraction, cfg.slice)
                       : cfg.static_allocation;

  const std::int64_t channels = std::max<std::int64_t>(wl.out_channels, 1);
  const std::int64_t outs_per_channel = wl.out_elems / channels;

  // Per-channel sensitivity patterns.
  std::vector<SensitivityPattern> pattern;
  pattern.reserve(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::int64_t sens =
        c < static_cast<std::int64_t>(wl.sensitive_per_channel.size())
            ? wl.sensitive_per_channel[static_cast<std::size_t>(c)]
            : static_cast<std::int64_t>(wl.odq_sensitive_fraction *
                                        static_cast<double>(outs_per_channel));
    pattern.emplace_back(std::min(sens, outs_per_channel), outs_per_channel);
  }

  // Off-chip stream: the layer's unique bytes (INT4 inputs + weights + the
  // 1-bit mask), prefetched in order. Compute may not consume outputs whose
  // share of the stream has not arrived yet.
  DramChannel dram(cfg.dram_bytes_per_cycle, cfg.dram_latency);
  const double unique_bytes =
      (static_cast<double>(wl.input_elems) * 4.0 +
       static_cast<double>(wl.weight_elems) * 4.0 +
       static_cast<double>(wl.out_elems)) /
      8.0;
  (void)dram.request(unique_bytes);
  const double fresh_per_output =
      unique_bytes / static_cast<double>(std::max<std::int64_t>(
                         wl.out_elems, 1));

  // On-chip global-buffer ports: line-buffer refills are SRAM traffic.
  DramChannel gbuf(cfg.gbuf_bytes_per_cycle, cfg.gbuf_latency);

  // Line buffers: one shared by the predictor arrays, one per executor
  // cluster (Fig. 17: data is delivered to one cluster per cycle).
  const double pred_col_bytes =
      static_cast<double>(wl.macs_per_out) * 2.0 / 8.0;  // HBS operands
  const double exec_col_bytes =
      static_cast<double>(wl.macs_per_out) * 6.0 / 8.0;  // remaining operands
  LineBuffer pred_lb(cfg.line_buffer_columns, pred_col_bytes);
  std::vector<LineBuffer> exec_lbs(
      static_cast<std::size_t>(cfg.slice.executor_clusters),
      LineBuffer(cfg.line_buffer_columns, exec_col_bytes));

  std::vector<PeArray> pred_arrays(
      static_cast<std::size_t>(res.allocation.predictor_arrays),
      PeArray(pes_per_array, ArrayRole::kPredictor));
  std::vector<PeArray> exec_arrays(
      static_cast<std::size_t>(res.allocation.executor_arrays),
      PeArray(pes_per_array, ArrayRole::kExecutor));

  Crossbar crossbar(channels);

  // Predictor output stream state: channel-major raster order. When one
  // output needs fewer MACs than the array has PEs, the array works on a
  // bundle of outputs in parallel (systolic mapping).
  std::int64_t next_output = 0;
  const std::int64_t total_outputs = outs_per_channel * channels;
  const std::int64_t pred_bundle_max =
      std::max<std::int64_t>(1, pes_per_array / std::max<std::int64_t>(
                                                    wl.macs_per_out, 1));
  const std::int64_t exec_bundle_max = std::max<std::int64_t>(
      1, pes_per_array / std::max<std::int64_t>(3 * wl.macs_per_out, 1));
  // Track which channel / how many outputs each in-flight array carries.
  std::vector<std::int64_t> pred_channel(pred_arrays.size(), -1);
  std::vector<std::int64_t> pred_bundle(pred_arrays.size(), 0);
  std::vector<std::int64_t> exec_bundle(exec_arrays.size(), 0);

  while (res.cycles < cfg.max_cycles) {
    // 1. Memory system.
    pred_lb.refill(gbuf);
    for (auto& lb : exec_lbs) lb.refill(gbuf);
    dram.step();
    gbuf.step();
    pred_lb.step(gbuf);
    for (auto& lb : exec_lbs) lb.step(gbuf);

    // 2. Issue new work to idle predictor arrays (bundled outputs from one
    // channel), gated by the off-chip prefetch stream.
    const auto prefetched_outputs = static_cast<std::int64_t>(
        dram.total_bytes_served() / std::max(fresh_per_output, 1e-12));
    // Input columns are broadcast: one column fetch serves every predictor
    // array issuing this cycle (inputs are shared among the weight filters
    // held by different arrays, Fig. 17).
    bool column_fetched = false;
    for (std::size_t a = 0; a < pred_arrays.size(); ++a) {
      if (pred_arrays[a].busy() || next_output >= total_outputs) continue;
      const std::int64_t ch = next_output / outs_per_channel;
      const std::int64_t left_in_channel =
          (ch + 1) * outs_per_channel - next_output;
      const std::int64_t bundle =
          std::min({pred_bundle_max, left_in_channel,
                    total_outputs - next_output});
      if (next_output + bundle > prefetched_outputs) continue;  // stall
      if (!column_fetched) {
        if (!pred_lb.pop()) break;  // underrun: all remaining arrays stall
        column_fetched = true;
      }
      if (pred_arrays[a].issue_prefetched(wl.macs_per_out * bundle)) {
        pred_channel[a] = ch;
        pred_bundle[a] = bundle;
        next_output += bundle;
      }
    }

    // 3. Issue sensitive outputs to idle executor arrays via the crossbar
    // (winner channel, bundled).
    for (std::size_t a = 0; a < exec_arrays.size(); ++a) {
      if (exec_arrays[a].busy()) continue;
      if (crossbar.pending_total() == 0) continue;
      LineBuffer& lb =
          exec_lbs[a % static_cast<std::size_t>(cfg.slice.executor_clusters)];
      if (lb.empty()) continue;  // stall: no column for this cluster
      std::int64_t ch = -1;
      const std::int64_t took = crossbar.pop_winner_n(exec_bundle_max, &ch);
      if (took == 0) continue;
      if (exec_arrays[a].issue(wl.macs_per_out * took, lb)) {
        exec_bundle[a] = took;
      } else {
        crossbar.enqueue(ch, took);  // shouldn't happen; put it back
      }
    }

    // 4. Step the arrays.
    for (std::size_t a = 0; a < pred_arrays.size(); ++a) {
      if (pred_arrays[a].step()) {
        res.outputs_predicted += pred_bundle[a];
        // Threshold unit: decide sensitivity per output in the bundle,
        // append sensitive ones to the executor's pending queue.
        const std::int64_t ch = pred_channel[a];
        std::int64_t sensitive = 0;
        for (std::int64_t k = 0; k < pred_bundle[a]; ++k) {
          if (pattern[static_cast<std::size_t>(ch)].next()) ++sensitive;
        }
        if (sensitive > 0) crossbar.enqueue(ch, sensitive);
        pred_bundle[a] = 0;
      }
    }
    for (std::size_t a = 0; a < exec_arrays.size(); ++a) {
      if (exec_arrays[a].step()) {
        res.outputs_executed += exec_bundle[a];
        exec_bundle[a] = 0;
      }
    }

    ++res.cycles;

    // Done when every output was predicted, nothing is pending, and all
    // arrays drained.
    if (next_output >= total_outputs && crossbar.pending_total() == 0) {
      const bool pred_idle =
          std::none_of(pred_arrays.begin(), pred_arrays.end(),
                       [](const PeArray& a) { return a.busy(); });
      const bool exec_idle =
          std::none_of(exec_arrays.begin(), exec_arrays.end(),
                       [](const PeArray& a) { return a.busy(); });
      if (pred_idle && exec_idle) break;
    }
  }
  res.hit_cycle_limit = res.cycles >= cfg.max_cycles;

  for (const auto& a : pred_arrays) {
    res.predictor_busy += a.busy_cycles();
    res.predictor_idle += a.idle_cycles();
  }
  for (const auto& a : exec_arrays) {
    res.executor_busy += a.busy_cycles();
    res.executor_idle += a.idle_cycles();
  }
  res.line_buffer_underruns = pred_lb.underruns();
  for (const auto& lb : exec_lbs) res.line_buffer_underruns += lb.underruns();
  res.dram_bytes = dram.total_bytes_served();
  record_layer_metrics(res);
  return res;
}

CycleSimResult simulate_network(const std::vector<ConvWorkload>& layers,
                                const CycleSimConfig& cfg) {
  CycleSimResult total;
  for (const ConvWorkload& wl : layers) {
    const CycleSimResult r = simulate_layer(wl, cfg);
    total.cycles += r.cycles;
    total.predictor_busy += r.predictor_busy;
    total.predictor_idle += r.predictor_idle;
    total.executor_busy += r.executor_busy;
    total.executor_idle += r.executor_idle;
    total.outputs_predicted += r.outputs_predicted;
    total.outputs_executed += r.outputs_executed;
    total.line_buffer_underruns += r.line_buffer_underruns;
    total.dram_bytes += r.dram_bytes;
    total.hit_cycle_limit |= r.hit_cycle_limit;
  }
  return total;
}

}  // namespace odq::accel::cyclesim
