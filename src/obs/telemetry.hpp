// The observability plane: every named counter and sample series in the
// process, with rolling time windows, a snapshot/exposition layer, and a
// background exporter.
//
// One registry, one switch, one document. Counters (WindowedCounter) count
// events and units of work; series (WindowedSeries) record integer samples
// into the shared LogHistogram bucket layout (obs/histogram.hpp). Times
// are recorded in microseconds (names end in "_us") and fractions in basis
// points (fraction_bp, 0..10000). Both
// kinds accumulate cumulatively since creation/reset; the 1s/10s/60s
// windows are a view over that cumulative state (see "Time model").
// Recording costs one relaxed atomic load when the plane is off, and
// lock-free per-thread shards (series) or one relaxed atomic add
// (counters) when on. docs/observability.md lists every registered name.
//
// Time model — no wall-clock reads in this library:
//
//  * Recording (`WindowedSeries::record`, `WindowedCounter::add`) is
//    clock-free: samples land in a cumulative lock-free recorder.
//  * `advance(now_us)` folds the cumulative delta since the previous
//    advance into the ring slot for epoch now_us / 1e6 (1-second epochs,
//    kTelemetryRingSlots slots). The *caller* supplies the monotonic
//    clock — the TelemetryExporter injects one via its config, and tests
//    drive a manual clock through epoch skips and jumps.
//  * `window(seconds)` merges the ring slots whose epoch tag lies in
//    (current_epoch - seconds, current_epoch]. Stale slots (tags older
//    than the window, e.g. after a clock jump past the whole ring) are
//    excluded by the tag check — no eager clearing needed.
//
// Exposition: telemetry_snapshot() advances every registered object and
// returns a value-type snapshot; telemetry_to_json() renders it as a
// bench-JSON-compatible document and telemetry_to_prometheus() as
// Prometheus text exposition format. The TelemetryExporter writes both
// atomically (tmp + rename, the checkpoint idiom) on a background flusher
// thread with a final drain flush on stop(), so readers tailing the file
// (tools/odq_top) always see a complete document or none.
//
// Enablement: ODQ_TELEMETRY (any non-empty value except "0") or
// set_telemetry_enabled(true). When the value names a file (contains '/'
// or ends in ".json") it doubles as the default snapshot path, which
// telemetry_env_path() reports for tools.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"

namespace odq::util {
class JsonWriter;
}  // namespace odq::util

namespace odq::obs {

// Global telemetry switch. Initialized from ODQ_TELEMETRY on first query.
bool telemetry_enabled();
void set_telemetry_enabled(bool on);

// A fraction in [0, 1] as integer basis points (clamped, rounded), the
// encoding every fraction-valued series uses.
std::uint64_t fraction_bp(double f);

// When ODQ_TELEMETRY names a file (contains '/' or ends in ".json"),
// returns that path; "" otherwise. Tools use it as the default snapshot
// destination.
std::string telemetry_env_path();

// Reporting windows, in seconds, smallest first. The ring must span the
// largest window plus slack for the in-progress epoch.
inline constexpr std::array<int, 3> kTelemetryWindowsS = {1, 10, 60};
inline constexpr std::size_t kTelemetryRingSlots = 64;

// Windowed sample series (latency, batch size, queue depth...). Hot path
// is record(); advance()/window()/total() are snapshot-side and take the
// series mutex (never contended by recorders).
class WindowedSeries {
 public:
  explicit WindowedSeries(std::string name) : name_(std::move(name)) {}
  WindowedSeries(const WindowedSeries&) = delete;
  WindowedSeries& operator=(const WindowedSeries&) = delete;

  void record(std::uint64_t v) {
    if (!telemetry_enabled()) return;
    live_.record(v);
  }

  const std::string& name() const { return name_; }

  // Fold samples recorded since the previous advance into the ring slot
  // for epoch now_us / 1e6. A now_us older than the current epoch folds
  // into the current slot (monotonic clocks shouldn't go back; be safe).
  void advance(std::uint64_t now_us);

  // Cumulative histogram since creation/reset (all shards merged).
  LogHistogram total() const { return live_.merged(); }

  // Merged histogram over the last `seconds` epochs ending at the epoch
  // of the latest advance(). Samples recorded after that advance are not
  // yet visible (they fold in on the next advance).
  LogHistogram window(int seconds) const;

  void reset();

 private:
  struct Slot {
    std::int64_t epoch = -1;
    LogHistogram data;
  };

  std::string name_;
  ShardedLogHistogram live_;

  mutable std::mutex mutex_;  // guards everything below
  LogHistogram last_cum_;
  std::int64_t cur_epoch_ = -1;
  std::array<Slot, kTelemetryRingSlots> ring_;
};

// Windowed monotonic counter (requests, errors, batches...).
class WindowedCounter {
 public:
  explicit WindowedCounter(std::string name) : name_(std::move(name)) {}
  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  void add(std::int64_t delta) {
    if (!telemetry_enabled()) return;
    total_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  const std::string& name() const { return name_; }

  void advance(std::uint64_t now_us);

  std::int64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }
  std::int64_t window(int seconds) const;

  void reset();

 private:
  struct Slot {
    std::int64_t epoch = -1;
    std::int64_t value = 0;
  };

  std::string name_;
  std::atomic<std::int64_t> total_{0};

  mutable std::mutex mutex_;  // guards everything below
  std::int64_t last_cum_ = 0;
  std::int64_t cur_epoch_ = -1;
  std::array<Slot, kTelemetryRingSlots> ring_;
};

// Registry lookups: create-on-first-use, same object for the same name,
// process-lifetime handles. Series and counters live in one namespace;
// mixing kinds under a name throws std::invalid_argument.
WindowedSeries& telemetry_series(const std::string& name);
WindowedCounter& telemetry_counter(const std::string& name);

// Zero every registered series/counter (handles stay valid). Test helper.
void telemetry_reset();

// -- Snapshot / exposition ------------------------------------------------

struct TelemetryWindowStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t min = 0, max = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0;
};

struct TelemetrySeriesSnapshot {
  std::string name;
  TelemetryWindowStats total;
  // Indexed like kTelemetryWindowsS.
  std::array<TelemetryWindowStats, kTelemetryWindowsS.size()> windows;
};

struct TelemetryCounterSnapshot {
  std::string name;
  std::int64_t total = 0;
  std::array<std::int64_t, kTelemetryWindowsS.size()> windows{};
};

struct TelemetrySnapshot {
  std::uint64_t generated_us = 0;
  std::uint64_t flush_seq = 0;
  std::uint64_t trace_dropped_events = 0;
  std::vector<TelemetrySeriesSnapshot> series;    // sorted by name
  std::vector<TelemetryCounterSnapshot> counters;  // sorted by name
};

// Advance every registered object to now_us and snapshot it. Deterministic
// once recorders have quiesced.
TelemetrySnapshot telemetry_snapshot(std::uint64_t now_us);

// Bench-JSON-compatible document ({"bench":"odq_telemetry",...}).
// Bumping the layout requires bumping kTelemetrySchemaVersion (gated by
// the telemetry row in tools/testdata/serve_baseline.json).
inline constexpr int kTelemetrySchemaVersion = 1;
void telemetry_to_json(const TelemetrySnapshot& snap, util::JsonWriter& w);

// Prometheus text exposition format (summary-style quantile lines per
// window; metric names get an odq_ prefix and dots become underscores).
std::string telemetry_to_prometheus(const TelemetrySnapshot& snap);

// -- Exporter -------------------------------------------------------------

struct TelemetryExporterConfig {
  std::string json_path;  // "" skips the JSON snapshot file
  std::string prom_path;  // "" skips the Prometheus file
  std::uint64_t flush_interval_ms = 250;
  // Monotonic microsecond clock driving the epoch ring. Defaults to a
  // steady clock anchored at the exporter's construction.
  std::function<std::uint64_t()> now_us;
};

// Background flusher: every flush_interval_ms, advance the registry and
// atomically rewrite the configured files. stop() performs a final drain
// flush (so samples recorded up to shutdown are on disk) and joins;
// idempotent, and the destructor calls it.
class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryExporterConfig cfg);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  void start();
  void stop();

  // One advance-and-write cycle; returns the snapshot it wrote. Usable
  // without start() for manual-clock tests and one-shot tools.
  TelemetrySnapshot flush_once();

  std::uint64_t flush_count() const {
    return flush_seq_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  TelemetryExporterConfig cfg_;
  std::atomic<std::uint64_t> flush_seq_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace odq::obs
