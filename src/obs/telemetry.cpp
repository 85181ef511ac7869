#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace odq::obs {

namespace {

std::atomic<int> g_telemetry_enabled{-1};  // -1: read ODQ_TELEMETRY first

bool env_value_is_path(const std::string& v) {
  return v.find('/') != std::string::npos ||
         (v.size() > 5 && v.compare(v.size() - 5, 5, ".json") == 0);
}

std::string& env_path_storage() {
  static std::string* p = new std::string;  // leaked: read during exit
  return *p;
}

}  // namespace

bool telemetry_enabled() {
  int v = g_telemetry_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("ODQ_TELEMETRY");
    const std::string val = env != nullptr ? env : "";
    v = (!val.empty() && val != "0") ? 1 : 0;
    if (v != 0 && env_value_is_path(val)) env_path_storage() = val;
    g_telemetry_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_telemetry_enabled(bool on) {
  g_telemetry_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t fraction_bp(double f) {
  return static_cast<std::uint64_t>(
      std::llround(std::clamp(f, 0.0, 1.0) * 10000.0));
}

std::string telemetry_env_path() {
  telemetry_enabled();  // force the ODQ_TELEMETRY probe
  return env_path_storage();
}

// -- WindowedSeries -------------------------------------------------------

void WindowedSeries::advance(std::uint64_t now_us) {
  const std::int64_t e = static_cast<std::int64_t>(now_us / 1000000);
  LogHistogram cum = live_.merged();

  std::lock_guard<std::mutex> lock(mutex_);
  LogHistogram delta = cum;
  delta.subtract(last_cum_);
  last_cum_ = std::move(cum);

  const std::int64_t target = std::max(e, cur_epoch_);
  cur_epoch_ = target;
  if (delta.empty()) return;
  Slot& s = ring_[static_cast<std::size_t>(target) % kTelemetryRingSlots];
  if (s.epoch != target) {
    s.epoch = target;
    s.data = LogHistogram{};
  }
  s.data.merge(delta);
}

LogHistogram WindowedSeries::window(int seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LogHistogram out;
  if (cur_epoch_ < 0) return out;
  for (const Slot& s : ring_) {
    if (s.epoch > cur_epoch_ - seconds && s.epoch <= cur_epoch_) {
      out.merge(s.data);
    }
  }
  return out;
}

void WindowedSeries::reset() {
  live_.reset();
  std::lock_guard<std::mutex> lock(mutex_);
  last_cum_ = LogHistogram{};
  cur_epoch_ = -1;
  for (Slot& s : ring_) {
    s.epoch = -1;
    s.data = LogHistogram{};
  }
}

// -- WindowedCounter ------------------------------------------------------

void WindowedCounter::advance(std::uint64_t now_us) {
  const std::int64_t e = static_cast<std::int64_t>(now_us / 1000000);
  const std::int64_t cum = total_.load(std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t delta = cum - last_cum_;
  last_cum_ = cum;

  const std::int64_t target = std::max(e, cur_epoch_);
  cur_epoch_ = target;
  if (delta == 0) return;
  Slot& s = ring_[static_cast<std::size_t>(target) % kTelemetryRingSlots];
  if (s.epoch != target) {
    s.epoch = target;
    s.value = 0;
  }
  s.value += delta;
}

std::int64_t WindowedCounter::window(int seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t out = 0;
  if (cur_epoch_ < 0) return out;
  for (const Slot& s : ring_) {
    if (s.epoch > cur_epoch_ - seconds && s.epoch <= cur_epoch_) {
      out += s.value;
    }
  }
  return out;
}

void WindowedCounter::reset() {
  total_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  last_cum_ = 0;
  cur_epoch_ = -1;
  for (Slot& s : ring_) {
    s.epoch = -1;
    s.value = 0;
  }
}

// -- Registry -------------------------------------------------------------

namespace {

struct TelemetryRegistry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<WindowedSeries>> series;
  std::map<std::string, std::unique_ptr<WindowedCounter>> counters;
};

// Leaked on purpose: worker threads may record during static destruction.
TelemetryRegistry& telemetry_registry() {
  static TelemetryRegistry* r = new TelemetryRegistry;
  return *r;
}

}  // namespace

WindowedSeries& telemetry_series(const std::string& name) {
  TelemetryRegistry& r = telemetry_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.series.find(name);
  if (it == r.series.end()) {
    if (r.counters.count(name) > 0) {
      throw std::invalid_argument("telemetry '" + name + "' is a counter");
    }
    it = r.series.emplace(name, std::make_unique<WindowedSeries>(name)).first;
  }
  return *it->second;
}

WindowedCounter& telemetry_counter(const std::string& name) {
  TelemetryRegistry& r = telemetry_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    if (r.series.count(name) > 0) {
      throw std::invalid_argument("telemetry '" + name + "' is a series");
    }
    it = r.counters.emplace(name, std::make_unique<WindowedCounter>(name))
             .first;
  }
  return *it->second;
}

void telemetry_reset() {
  TelemetryRegistry& r = telemetry_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [_, s] : r.series) s->reset();
  for (auto& [_, c] : r.counters) c->reset();
}

// -- Snapshot / exposition ------------------------------------------------

namespace {

TelemetryWindowStats window_stats(const LogHistogram& h) {
  TelemetryWindowStats s;
  s.count = h.count();
  s.mean = h.mean();
  s.min = h.min();
  s.max = h.max();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.p999 = h.quantile(0.999);
  return s;
}

}  // namespace

TelemetrySnapshot telemetry_snapshot(std::uint64_t now_us) {
  // Collect stable handles under the registry lock, then advance/read each
  // object under its own lock (registered objects are never deleted).
  std::vector<WindowedSeries*> series;
  std::vector<WindowedCounter*> counters;
  {
    TelemetryRegistry& r = telemetry_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    series.reserve(r.series.size());
    counters.reserve(r.counters.size());
    for (auto& [_, s] : r.series) series.push_back(s.get());
    for (auto& [_, c] : r.counters) counters.push_back(c.get());
  }

  TelemetrySnapshot snap;
  snap.generated_us = now_us;
  snap.trace_dropped_events = trace_dropped_events();
  for (WindowedSeries* s : series) {
    s->advance(now_us);
    TelemetrySeriesSnapshot out;
    out.name = s->name();
    out.total = window_stats(s->total());
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      out.windows[i] = window_stats(s->window(kTelemetryWindowsS[i]));
    }
    snap.series.push_back(std::move(out));
  }
  for (WindowedCounter* c : counters) {
    c->advance(now_us);
    TelemetryCounterSnapshot out;
    out.name = c->name();
    out.total = c->total();
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      out.windows[i] = c->window(kTelemetryWindowsS[i]);
    }
    snap.counters.push_back(std::move(out));
  }
  // std::map iteration is already name-sorted; keep the invariant explicit.
  std::sort(snap.series.begin(), snap.series.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

namespace {

std::string window_label(int seconds) {
  return std::to_string(seconds) + "s";
}

void write_window_stats(util::JsonWriter& w, const TelemetryWindowStats& s) {
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(s.count));
  w.kv("mean", s.mean);
  w.kv("min", static_cast<std::uint64_t>(s.min));
  w.kv("max", static_cast<std::uint64_t>(s.max));
  w.kv("p50", static_cast<std::uint64_t>(s.p50));
  w.kv("p95", static_cast<std::uint64_t>(s.p95));
  w.kv("p99", static_cast<std::uint64_t>(s.p99));
  w.kv("p999", static_cast<std::uint64_t>(s.p999));
  w.end_object();
}

}  // namespace

void telemetry_to_json(const TelemetrySnapshot& snap, util::JsonWriter& w) {
  w.begin_object();
  w.kv("bench", "odq_telemetry");
  w.kv("schema_version", kTelemetrySchemaVersion);
  w.kv("generated_us", static_cast<std::uint64_t>(snap.generated_us));
  w.kv("flush_seq", static_cast<std::uint64_t>(snap.flush_seq));
  w.kv("trace_dropped_events",
       static_cast<std::uint64_t>(snap.trace_dropped_events));
  w.key("windows_s");
  w.begin_array();
  for (int s : kTelemetryWindowsS) w.value(s);
  w.end_array();
  w.key("series");
  w.begin_object();
  for (const TelemetrySeriesSnapshot& s : snap.series) {
    w.key(s.name);
    w.begin_object();
    w.key("total");
    write_window_stats(w, s.total);
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      w.key(window_label(kTelemetryWindowsS[i]));
      write_window_stats(w, s.windows[i]);
    }
    w.end_object();
  }
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (const TelemetryCounterSnapshot& c : snap.counters) {
    w.key(c.name);
    w.begin_object();
    w.kv("total", c.total);
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      w.kv(window_label(kTelemetryWindowsS[i]), c.windows[i]);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

namespace {

// "serve.latency_us" -> "odq_serve_latency_us": Prometheus metric names
// allow [a-zA-Z0-9_:]; everything else becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "odq_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::string telemetry_to_prometheus(const TelemetrySnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const TelemetrySeriesSnapshot& s : snap.series) {
    const std::string m = prom_name(s.name);
    out += "# TYPE " + m + " summary\n";
    struct QLine {
      const char* q;
      std::uint64_t TelemetryWindowStats::* field;
    };
    static constexpr QLine kQ[] = {
        {"0.5", &TelemetryWindowStats::p50},
        {"0.95", &TelemetryWindowStats::p95},
        {"0.99", &TelemetryWindowStats::p99},
        {"0.999", &TelemetryWindowStats::p999},
    };
    auto emit = [&](const std::string& window,
                    const TelemetryWindowStats& ws) {
      for (const QLine& q : kQ) {
        out += m + "{window=\"" + window + "\",quantile=\"" + q.q + "\"} ";
        append_u64(out, ws.*(q.field));
        out += '\n';
      }
      out += m + "_count{window=\"" + window + "\"} ";
      append_u64(out, ws.count);
      out += '\n';
      out += m + "_sum{window=\"" + window + "\"} ";
      append_u64(out,
                 static_cast<std::uint64_t>(ws.mean * double(ws.count) + 0.5));
      out += '\n';
    };
    emit("total", s.total);
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      emit(window_label(kTelemetryWindowsS[i]), s.windows[i]);
    }
  }
  for (const TelemetryCounterSnapshot& c : snap.counters) {
    const std::string m = prom_name(c.name) + "_total";
    out += "# TYPE " + m + " counter\n";
    out += m + ' ' + std::to_string(c.total) + '\n';
    for (std::size_t i = 0; i < kTelemetryWindowsS.size(); ++i) {
      out += prom_name(c.name) + "{window=\"" +
             window_label(kTelemetryWindowsS[i]) + "\"} " +
             std::to_string(c.windows[i]) + '\n';
    }
  }
  out += "# TYPE odq_trace_dropped_events_total counter\n";
  out += "odq_trace_dropped_events_total " +
         std::to_string(snap.trace_dropped_events) + '\n';
  return out;
}

// -- Exporter -------------------------------------------------------------

namespace {

// tmp + rename, same valid-or-absent contract as write_chrome_trace and the
// v3 checkpoint writer. Throws on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("telemetry export: cannot open " + tmp);
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (n != content.size() || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("telemetry export: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("telemetry export: cannot rename to " + path);
  }
}

std::uint64_t steady_now_us() {
  using clock_type = std::chrono::steady_clock;
  static const clock_type::time_point epoch = clock_type::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock_type::now() -
                                                            epoch)
          .count());
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryExporterConfig cfg)
    : cfg_(std::move(cfg)) {
  if (!cfg_.now_us) cfg_.now_us = steady_now_us;
}

TelemetryExporter::~TelemetryExporter() { stop(); }

TelemetrySnapshot TelemetryExporter::flush_once() {
  TelemetrySnapshot snap = telemetry_snapshot(cfg_.now_us());
  snap.flush_seq = flush_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!cfg_.json_path.empty()) {
    util::JsonWriter w;
    telemetry_to_json(snap, w);
    write_file_atomic(cfg_.json_path, w.take());
  }
  if (!cfg_.prom_path.empty()) {
    write_file_atomic(cfg_.prom_path, telemetry_to_prometheus(snap));
  }
  return snap;
}

void TelemetryExporter::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
  }
  // Final drain: everything recorded before stop() was called is advanced
  // into the ring and on disk after this flush.
  try {
    flush_once();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odq telemetry flush: %s\n", e.what());
  }
}

void TelemetryExporter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    lock.unlock();
    try {
      flush_once();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "odq telemetry flush: %s\n", e.what());
    }
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(cfg_.flush_interval_ms),
                 [this] { return stopping_; });
  }
}

}  // namespace odq::obs
