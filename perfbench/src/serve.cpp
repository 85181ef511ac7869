// serve_poisson: ServeEngine running ResNet-20 (width 8) behind an open-loop
// generator. One thread sends single-sample requests on a seeded Poisson
// schedule with try_submit, at fixed rate steps: light, busy, then a ladder
// that stops at the first step missing the SLO.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/synthetic.hpp"
#include "odq_common.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using odq::tensor::Shape;
using odq::tensor::Tensor;

const Shape kChw{3, 32, 32};

// Request ids: step index in the high half, arrival index in the low half.
std::uint64_t request_id(std::uint64_t step, std::uint64_t j) {
  return (step << 32) | j;
}
constexpr std::uint64_t kWarmupStep = 0xFFFF;
constexpr std::uint64_t kCalibStep = 0xFFFE;

// Traced run: the generator tags each request's input buffer with its
// request id and request span, and the worker-side session picks the tag up
// to parent its forward span. Keyed by the tensor's data pointer, which a
// move into the engine does not change.
struct RequestTag {
  std::uint64_t req = 0;
  std::uint64_t span = 0;
};
std::mutex g_tags_mutex;
std::unordered_map<const float*, RequestTag> g_tags;

RequestTag take_tag(const float* p) {
  std::lock_guard<std::mutex> lock(g_tags_mutex);
  auto it = g_tags.find(p);
  if (it == g_tags.end()) return {};
  RequestTag t = it->second;
  g_tags.erase(it);
  return t;
}

class BenchSession : public odq::serve::InferenceSession {
 public:
  BenchSession(odq::nn::Model model, std::shared_ptr<TimedConv> exec)
      : inner_(std::move(model), std::move(exec), "odq") {}

  Tensor run(const Tensor& input) override {
    if (!tracer().enabled()) return inner_.run(input);
    const RequestTag tag = take_tag(input.data());
    ScopedSpan fwd("nn.forward", tag.span, tag.req);
    return inner_.run(input);
  }
  std::string scheme() const override { return inner_.scheme(); }

 private:
  odq::serve::ModelSession inner_;
};

std::vector<Tensor> requests(std::uint64_t seed, std::uint64_t step, int n) {
  std::vector<Tensor> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(odq::data::make_request_input(
        seed, request_id(step, static_cast<std::uint64_t>(i)), kChw));
  }
  return out;
}

struct ServeSetup {
  float threshold = 0.0f;
  std::vector<std::shared_ptr<TimedConv>> execs;
  std::unique_ptr<odq::serve::ServeEngine> engine;
  std::int64_t engine_epoch_ns = 0;  // steady-clock ns of engine time 0
};

// The threshold is a constant of the workload for a seed, so it is found
// once, before and outside the timed set-up.
float calibrate(std::uint64_t seed) {
  odq::nn::Model model = build_resnet20(kServeWidth, seed);
  return calibrate_threshold(model, requests(seed, kCalibStep, 8),
                             kServeFraction);
}

std::unique_ptr<ServeSetup> set_up(std::uint64_t seed, float threshold) {
  auto s = std::make_unique<ServeSetup>();
  s->threshold = threshold;
  s->execs.resize(kServeWorkers);
  odq::serve::EngineConfig cfg;
  cfg.num_workers = kServeWorkers;
  cfg.queue_capacity = kServeQueueCapacity;
  cfg.max_batch = kServeMaxBatch;
  cfg.flush_timeout_us = kServeFlushUs;
  ServeSetup* raw = s.get();
  s->engine = std::make_unique<odq::serve::ServeEngine>(
      cfg, [raw, seed](int worker) {
        auto exec = std::make_shared<TimedConv>(raw->threshold);
        raw->execs[static_cast<std::size_t>(worker)] = exec;
        return std::make_unique<BenchSession>(
            build_resnet20(kServeWidth, seed), exec);
      });
  std::int64_t best = INT64_MAX;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t a = now_ns();
    const double us = s->engine->now_us();
    const std::int64_t b = now_ns();
    if (b - a < best) {
      best = b - a;
      s->engine_epoch_ns = a + (b - a) / 2 - static_cast<std::int64_t>(us * 1e3);
    }
  }
  // Warm-up: the first forwards of a fresh replica are about twice as slow.
  std::vector<std::future<odq::serve::InferResponse>> warm;
  for (std::uint64_t j = 0; j < 4 * kServeMaxBatch; ++j) {
    auto f = s->engine->submit(odq::data::make_request_input(
        seed, request_id(kWarmupStep, j), kChw));
    if (f.ok()) warm.push_back(std::move(*f));
  }
  for (auto& f : warm) (void)f.get();
  return s;
}

struct Served {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::uint64_t span = 0;       // bench.request
  std::uint64_t exec_span = 0;  // serve.exec, the parent of nn.forward
  std::future<odq::serve::InferResponse> future;
};

struct StepResult {
  std::string name;
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t refused = 0;
  std::size_t errors = 0;
  bool aborted = false;  // backlog reached kBacklogAbortDepth
  std::size_t depth_start = 0;
  std::size_t depth_end = 0;
  std::vector<double> latency_ms;  // from due time; refused = +inf
  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> batch_size;
  std::vector<std::pair<std::uint64_t, Tensor>> outputs;  // served ones
  double span_s = 0.0;  // from the step's start to its last response

  // Served requests per second over the step's span.
  double served_rps() const {
    return span_s > 0.0 ? static_cast<double>(outputs.size()) / span_s : 0.0;
  }
  double p(double q) const { return quantile(latency_ms, q); }
  bool valid() const { return quantile(lag_ms, 0.95) <= kGenLagBoundMs; }
  bool meets_slo() const {
    return valid() && refused == 0 && errors == 0 && !aborted &&
           depth_end <= kBacklogEndDepth && p(kSloQuantile) <= kSloMs;
  }
};

// Sends requests at the offsets of `sched` (seconds from the step's start),
// waits until `duration_s` has passed, then collects every response. With
// `stop_on_backlog` the step ends early once the queue holds
// kBacklogAbortDepth requests.
StepResult run_schedule(ServeSetup& s, std::uint64_t seed, std::uint64_t step,
                        const std::string& name, double rate,
                        const std::vector<double>& sched, double duration_s,
                        bool stop_on_backlog) {
  StepResult r;
  r.name = name;
  r.rate = rate;
  std::vector<Tensor> inputs;
  inputs.reserve(sched.size());
  for (std::size_t j = 0; j < sched.size(); ++j) {
    inputs.push_back(
        odq::data::make_request_input(seed, request_id(step, j), kChw));
  }
  const bool traced = tracer().enabled();
  std::vector<Served> served;
  served.reserve(sched.size());

  r.depth_start = s.engine->queue_depth();
  const std::int64_t t0 = now_ns() + 2'000'000;
  const std::chrono::steady_clock::time_point tp0{
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(t0))};
  for (std::size_t j = 0; j < sched.size(); ++j) {
    const auto off = static_cast<std::int64_t>(sched[j] * 1e9);
    std::this_thread::sleep_until(tp0 + std::chrono::nanoseconds(off));
    if (stop_on_backlog && s.engine->queue_depth() >= kBacklogAbortDepth) {
      r.aborted = true;
      break;
    }
    Served sv;
    sv.id = request_id(step, j);
    sv.due_ns = t0 + off;
    sv.submit_ns = now_ns();
    const float* key = inputs[j].data();
    if (traced) {
      sv.span = tracer().new_id();
      sv.exec_span = tracer().new_id();
      std::lock_guard<std::mutex> lock(g_tags_mutex);
      g_tags[key] = RequestTag{sv.id + 1, sv.exec_span};
    }
    r.lag_ms.push_back(static_cast<double>(sv.submit_ns - sv.due_ns) / 1e6);
    ++r.sent;
    auto f = s.engine->try_submit(std::move(inputs[j]), sv.id);
    if (!f.ok()) {
      if (traced) (void)take_tag(key);
      ++r.refused;
      r.latency_ms.push_back(1e300);
      continue;
    }
    sv.future = std::move(*f);
    served.push_back(std::move(sv));
  }
  if (!r.aborted) {
    std::this_thread::sleep_until(
        tp0 + std::chrono::nanoseconds(static_cast<std::int64_t>(duration_s * 1e9)));
  }
  r.depth_end = s.engine->queue_depth();

  std::int64_t last_done_ns = t0;
  for (Served& sv : served) {
    odq::serve::InferResponse resp = sv.future.get();
    if (!resp.status.ok()) {
      ++r.errors;
      r.latency_ms.push_back(1e300);
      continue;
    }
    const double lag = static_cast<double>(sv.submit_ns - sv.due_ns) / 1e6;
    r.latency_ms.push_back(lag + (resp.done_us - resp.enqueue_us) / 1e3);
    last_done_ns = std::max(
        last_done_ns,
        s.engine_epoch_ns + static_cast<std::int64_t>(resp.done_us * 1e3));
    r.queue_wait_ms.push_back((resp.start_us - resp.enqueue_us) / 1e3);
    r.exec_ms.push_back((resp.done_us - resp.start_us) / 1e3);
    r.batch_size.push_back(static_cast<double>(resp.batch_size));
    if (traced) {
      // Retrospective spans on the bench clock: the request from its due
      // time, the generator's lateness, the engine's queue wait, and the
      // batch execution that holds this request's forward.
      auto at = [&](double us) {
        return s.engine_epoch_ns + static_cast<std::int64_t>(us * 1e3);
      };
      const std::uint64_t req = sv.id + 1;
      Tracer& tr = tracer();
      tr.record(Span{"bench.request", sv.span, 0, req, sv.due_ns,
                     at(resp.done_us), 0});
      tr.record(Span{"bench.gen_lag", tr.new_id(), sv.span, req, sv.due_ns,
                     sv.submit_ns, 0});
      tr.record(Span{"serve.queue_wait", tr.new_id(), sv.span, req,
                     at(resp.enqueue_us), at(resp.start_us), 0});
      tr.record(Span{"serve.exec", sv.exec_span, sv.span, req,
                     at(resp.start_us), at(resp.done_us), 0});
    }
    r.outputs.emplace_back(sv.id, std::move(resp.output));
  }
  r.span_s = static_cast<double>(last_done_ns - t0) / 1e9;
  return r;
}

StepResult run_step(ServeSetup& s, std::uint64_t seed, std::uint64_t step,
                    const std::string& name, double rate, double duration_s) {
  return run_schedule(s, seed, step, name, rate,
                      poisson_schedule(seed, step, rate, duration_s),
                      duration_s, /*stop_on_backlog=*/true);
}

// A burst: a full queue's worth of requests due at once. The engine drains
// it at its saturated rate, and nothing is refused because the queue holds
// the whole burst.
StepResult run_burst(ServeSetup& s, std::uint64_t seed, std::uint64_t step) {
  return run_schedule(s, seed, step, "burst", 0.0,
                      std::vector<double>(kServeQueueCapacity, 0.0), 0.0,
                      /*stop_on_backlog=*/false);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string step_line(const StepResult& r) {
  const std::size_t n = r.latency_ms.size();
  const double tq = tail_quantile(n);
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "step %-8s rate %6.1f/s sent %4zu refused %zu errors %zu | p50_ms.%s "
      "%.3f | %s_ms.%s %.3f (n=%zu, %zu beyond) | p95 %.3f | "
      "bench.gen_lag_ms.p99 %.3f | queue depth %zu -> %zu%s | %s",
      r.name.c_str(), r.rate, r.sent, r.refused, r.errors, r.name.c_str(),
      r.p(0.5), tq > 0.0 ? quantile_label(tq).c_str() : "tail",
      r.name.c_str(), tq > 0.0 ? r.p(tq) : 0.0, n,
      samples_beyond(n, tq), r.p(0.95), quantile(r.lag_ms, 0.99),
      r.depth_start, r.depth_end, r.aborted ? " (aborted: backlog)" : "",
      !r.valid() ? "INVALID (generator late)"
                 : (r.meets_slo() ? "meets SLO" : "misses SLO"));
  return buf;
}

}  // namespace

RunResult run_serve(const RunOptions& opt) {
  RunResult res;

  const float threshold = calibrate(opt.seed);
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();  // drains and joins the previous engine outside the timing
    const std::int64_t t0 = now_ns();
    s = set_up(opt.seed, threshold);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  std::vector<StepResult> steps;
  double knee = 0.0;
  bool knee_capped = false;
  double overhead_pct = 0.0;
  std::size_t traced_step = 0;
  std::vector<double> light_p50, light_p90, busy_p95, burst_rps;
  std::size_t light_last = 0;
  if (!opt.trace) {
    // Rounds of light, bursts and busy; each figure is a median over the
    // rounds, so a slow stretch of the host spoils a round, not the figure.
    for (int round = 0; round < kServeRounds; ++round) {
      const auto base = static_cast<std::uint64_t>(100 * round);
      steps.push_back(run_step(*s, opt.seed, base, "light",
                               kLightShare * kNominalRps,
                               kLightTimeShare * opt.seconds));
      if (steps.back().valid()) {
        light_p50.push_back(steps.back().p(0.5));
        light_p90.push_back(steps.back().p(0.9));
      }
      light_last = steps.size() - 1;
      for (int b = 0; b < kServeBurstsPerRound; ++b) {
        steps.push_back(
            run_burst(*s, opt.seed, base + 2 + static_cast<std::uint64_t>(b)));
        burst_rps.push_back(steps.back().served_rps());
      }
      steps.push_back(run_step(*s, opt.seed, base + 1, "busy",
                               kBusyShare * kNominalRps,
                               kBusyTimeShare * opt.seconds));
      if (steps.back().valid()) busy_p95.push_back(steps.back().p(0.95));
    }
    // Ladder above busy, stopping at the first step that misses the SLO.
    // The last busy round is the rung below it.
    const std::size_t busy_last = steps.size() - 1;
    std::size_t last_ok = light_last;
    std::size_t first_miss = 0;
    if (steps[busy_last].meets_slo()) {
      last_ok = busy_last;
      std::uint64_t step = 100 * kServeRounds;  // after every round's ids
      for (double share : kLadderShares) {
        char name[16];
        std::snprintf(name, sizeof name, "x%.2f", share);
        steps.push_back(run_step(*s, opt.seed, step++, name,
                                 share * kNominalRps,
                                 kLadderTimeShare * opt.seconds));
        if (!steps.back().meets_slo()) {
          first_miss = steps.size() - 1;
          break;
        }
        last_ok = steps.size() - 1;
      }
    } else {
      first_miss = busy_last;
    }
    // The highest rate that meets the SLO, interpolated on the p95 between
    // the last step that meets it and the first that does not.
    if (first_miss == 0) {
      knee = steps[last_ok].rate;
      knee_capped = true;
    } else {
      const StepResult& a = steps[last_ok];
      const StepResult& b = steps[first_miss];
      const double pa = a.p(kSloQuantile);
      const double pb = b.p(kSloQuantile);
      const double w = pb > kSloMs ? (kSloMs - pa) / (pb - pa) : 0.0;
      knee = a.rate + (b.rate - a.rate) * std::clamp(w, 0.0, 1.0);
    }
  } else {
    // Traced run: the busy step untraced, then traced; the difference of
    // their mean execution time is the tracing overhead.
    steps.push_back(run_step(*s, opt.seed, 1, "busy", kBusyShare * kNominalRps,
                             0.5 * opt.seconds));
    for (auto& e : s->execs) e->reset();
    tracer().set_enabled(true);
    steps.push_back(run_step(*s, opt.seed, 1, "busy_traced",
                             kBusyShare * kNominalRps, 0.5 * opt.seconds));
    tracer().set_enabled(false);
    traced_step = 1;
    overhead_pct =
        (mean(steps[1].exec_ms) / mean(steps[0].exec_ms) - 1.0) * 100.0;
  }

  // Counters of both workers: since the traced step began in the traced
  // run, since set-up otherwise.
  s->engine->shutdown();
  odq::core::OdqLayerStats traced_stats;
  std::int64_t traced_conv_ns = 0;
  std::int64_t fallbacks = 0;
  std::vector<odq::core::OdqLayerStats> traced_convs;
  for (const auto& e : s->execs) {
    traced_stats.merge(e->inner().total_stats());
    traced_conv_ns += e->conv_ns();
    const auto layers = static_cast<int>(e->inner().num_layers_seen());
    traced_convs.resize(std::max(traced_convs.size(),
                                 static_cast<std::size_t>(layers)));
    for (int id = 0; id < layers; ++id) {
      traced_convs[static_cast<std::size_t>(id)].merge(
          e->inner().layer_stats(id));
      fallbacks += e->inner().fallback_count(id);
    }
  }

  // ---- correctness, after timing ------------------------------------------
  // A refusal on a Poisson step is the open loop outrunning the engine: it
  // counts as failed and as an SLO miss. An engine error, or a refusal in a
  // burst (which the queue holds whole), is a fault and fails the run.
  std::int64_t failed = 0, engine_errors = 0, burst_refusals = 0;
  for (const StepResult& r : steps) {
    res.attempted += static_cast<std::int64_t>(r.sent);
    failed += static_cast<std::int64_t>(r.refused + r.errors);
    engine_errors += static_cast<std::int64_t>(r.errors);
    if (r.name == "burst") {
      burst_refusals += static_cast<std::int64_t>(r.refused);
    }
  }
  // A seeded sample of served requests, re-run through a sequential
  // ModelSession and compared bit for bit.
  auto check_exec = std::make_shared<TimedConv>(threshold);
  odq::serve::ModelSession oracle(build_resnet20(kServeWidth, opt.seed),
                                  check_exec, "odq");
  std::vector<const std::pair<std::uint64_t, Tensor>*> all;
  for (const StepResult& r : steps) {
    for (const auto& o : r.outputs) all.push_back(&o);
  }
  odq::util::Rng pick(opt.seed ^ 0x5EEDULL);
  std::int64_t verified = 0, mismatched = 0;
  for (int k = 0; k < kServeVerifySamples && !all.empty(); ++k) {
    const auto& [id, out] = *all[pick.next_u64() % all.size()];
    const Tensor expect =
        oracle.run(odq::data::make_request_input(opt.seed, id, kChw));
    ++verified;
    if (!bitwise_equal(expect, out)) ++mismatched;
  }
  res.attempted += verified;
  const odq::core::OdqLayerStats exact = check_exec->inner().total_stats();

  odq::nn::Model check_model = build_resnet20(kServeWidth, opt.seed);
  const Tensor check_image =
      odq::data::make_request_input(opt.seed, request_id(kCalibStep, 0), kChw);
  std::int64_t conv_mismatches = 0;
  res.attempted += check_convs_against_reference(
      check_model, check_image, threshold, nullptr, conv_mismatches);
  const SimJoin sim = simulate_masks(
      check_model, requests(opt.seed, kCalibStep, kServeSimSamples),
      threshold, nullptr);

  // A fallback is the executor's designed answer to a degenerate input (no
  // positive activation in a layer): it serves that conv through static
  // INT8, so it is reported but is not a failure.
  res.failed = failed + mismatched + conv_mismatches;
  res.correct = mismatched == 0 && conv_mismatches == 0 &&
                engine_errors == 0 && burst_refusals == 0 &&
                verified == kServeVerifySamples;

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "threshold = %.6g (target sensitive share %.2f); SLO: %s <= "
                "%.1f ms from due time, no refusals, queue depth at step end "
                "<= %zu, generator lag p95 <= %.1f ms",
                threshold, kServeFraction,
                quantile_label(kSloQuantile).c_str(), kSloMs,
                kBacklogEndDepth, kGenLagBoundMs);
  res.report.push_back(buf);
  for (const StepResult& r : steps) {
    if (r.name != "burst") res.report.push_back(step_line(r));
  }
  std::snprintf(buf, sizeof buf,
                "core.sensitive_fraction = %.6f; core.predictor_macs = %.0f, "
                "core.executor_macs = %.0f per request (exact, %lld verified "
                "requests)",
                exact.sensitive_fraction(),
                static_cast<double>(exact.predictor_macs) /
                    static_cast<double>(std::max<std::int64_t>(verified, 1)),
                static_cast<double>(exact.executor_macs) /
                    static_cast<double>(std::max<std::int64_t>(verified, 1)),
                static_cast<long long>(verified));
  res.report.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "error_rate = %.6g (%lld failed of %lld attempted: %lld "
                "refused or errored, of which %lld engine errors and %lld "
                "burst refusals; %lld of %lld verified mismatched (%d to "
                "verify), %lld conv mismatches; %lld conv runs served by the "
                "degenerate-input fallback)",
                res.attempted > 0 ? static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)
                                  : 0.0,
                static_cast<long long>(res.failed),
                static_cast<long long>(res.attempted),
                static_cast<long long>(failed),
                static_cast<long long>(engine_errors),
                static_cast<long long>(burst_refusals),
                static_cast<long long>(mismatched),
                static_cast<long long>(verified), kServeVerifySamples,
                static_cast<long long>(conv_mismatches),
                static_cast<long long>(fallbacks));
  res.report.push_back(buf);

  std::sort(setup_s.begin(), setup_s.end());
  const double setup_median = setup_s[setup_s.size() / 2];
  if (!opt.trace) {
    std::vector<double> light_all, busy_all;
    for (const StepResult& r : steps) {
      if (!r.valid()) {
        // The generator fell behind its schedule, so the step measured less
        // load than it names.
        res.report.push_back("step " + r.name +
                             " is invalid (generator late): its latency is "
                             "not reported");
        continue;
      }
      auto& dst = r.name == "light" ? light_all : busy_all;
      if (r.name == "light" || r.name == "busy") {
        dst.insert(dst.end(), r.latency_ms.begin(), r.latency_ms.end());
      }
    }
    const double lq = tail_quantile(light_all.size());
    const double bq = tail_quantile(busy_all.size());
    std::snprintf(
        buf, sizeof buf,
        "p50_ms.light = %.3f ms, p90_ms.light = %.3f ms (medians of %zu "
        "valid rounds); pooled over valid rounds: %s_ms.light = %.3f ms (n=%zu, %zu "
        "beyond), p50_ms.busy = %.3f ms, %s_ms.busy = %.3f ms (n=%zu, %zu "
        "beyond; median round p95 %.3f)",
        quantile(light_p50, 0.5), quantile(light_p90, 0.5), light_p50.size(),
        quantile_label(lq).c_str(),
        quantile(light_all, lq), light_all.size(),
        samples_beyond(light_all.size(), lq), quantile(busy_all, 0.5),
        quantile_label(bq).c_str(), quantile(busy_all, bq), busy_all.size(),
        samples_beyond(busy_all.size(), bq), quantile(busy_p95, 0.5));
    res.report.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "saturated throughput = %.3f req/s (median of %d bursts of "
                  "%zu requests; min %.3f, max %.3f)",
                  quantile(burst_rps, 0.5), kServeRounds * kServeBurstsPerRound,
                  kServeQueueCapacity,
                  quantile(burst_rps, 0.0), quantile(burst_rps, 1.0));
    res.report.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "setup_s = median of %d set-ups (min %.4f s, max %.4f s)",
                  kSetupRepeats, setup_s.front(), setup_s.back());
    res.report.push_back(buf);
    std::snprintf(buf, sizeof buf, "max_rps_within_slo = %.3f req/s%s", knee,
                  knee_capped ? " (every ladder step met the SLO)" : "");
    res.report.push_back(buf);
    res.end_to_end = {
        {"setup_s", "s", setup_median},
        {"images_per_s", "1/s", quantile(burst_rps, 0.5)},
        {"sim_speedup_vs_int8", "x", sim.speedup_vs_int8()},
        {"peak_rss_mb", "MiB", peak_rss_mb()},
    };
    return res;
  }

  // ---- per-layer attribution from the traced step, per request -----------
  const StepResult& t = steps[traced_step];
  const std::vector<Span> spans = tracer().spans();
  const auto self = self_time_by_name(spans);
  const auto total = total_time_by_name(spans);
  const auto requests = static_cast<std::int64_t>(t.exec_ms.size());
  const double ns_to_ms = 1e-6 / static_cast<double>(requests);
  const PhaseSplit ph = split_phases(
      static_cast<double>(traced_conv_ns) / 1e9, traced_stats.pack_seconds,
      traced_stats.gemm_seconds, traced_stats.sparse_epilogue_seconds,
      requests);
  res.per_layer = {
      {"nn.forward_ms", "ms", total.at("nn.forward") * ns_to_ms},
      {"nn.nonconv_ms", "ms", self.at("nn.forward") * ns_to_ms},
      {"serve.queue_wait_ms.p50", "ms", quantile(t.queue_wait_ms, 0.5)},
      {"serve.queue_wait_ms.p99", "ms", quantile(t.queue_wait_ms, 0.99)},
      {"serve.exec_ms.p50", "ms", quantile(t.exec_ms, 0.5)},
      {"serve.batch_size_mean", "requests", mean(t.batch_size)},
      {"bench.gen_lag_ms.p99", "ms", quantile(t.lag_ms, 0.99)},
      {"bench.unattributed_ms", "ms", self.at("bench.request") * ns_to_ms},
      {"bench.trace_overhead_pct", "%", overhead_pct},
  };
  for (Metric& m : model_layer_metrics(ph, traced_stats, exact,
                                       static_cast<double>(verified), sim)) {
    res.per_layer.push_back(std::move(m));
  }
  for (std::string& line : join_report(traced_convs, traced_stats, sim)) {
    res.report.push_back(std::move(line));
  }
  return res;
}

}  // namespace perfbench
