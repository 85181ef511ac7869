// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around each call into a layer (name, start, end,
// parent span, shared request id), kept in memory, and written as Chrome
// Trace Event JSON when the benchmark ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t req = 0;     // shared by every span of one batch / request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t tid = 0;
};

// Nanoseconds on std::chrono::steady_clock.
std::int64_t now_ns();

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& s);
  std::vector<Span> spans() const;

  // Chrome Trace Event JSON; false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

// Scoped span on the calling thread: its parent is the innermost open
// ScopedSpan of this thread (or `parent` when given), its request id is the
// thread's current request. Does nothing while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0,
                      std::uint64_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_req_ = 0;
};

// Self time of each span (duration minus the union of its children's
// intervals, clipped to the span), summed per span name, in nanoseconds.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

// Total duration per span name, in nanoseconds.
std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
