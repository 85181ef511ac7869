#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace odq::util {

namespace {
thread_local bool t_in_worker = false;

// Observability handles, resolved once. Recording is a no-op (one relaxed
// load inside the metric) while ODQ_TELEMETRY is off.
obs::WindowedCounter& tasks_counter() {
  static obs::WindowedCounter& c = obs::telemetry_counter("threadpool.tasks");
  return c;
}
obs::WindowedCounter& busy_us_counter() {
  static obs::WindowedCounter& c =
      obs::telemetry_counter("threadpool.worker_busy_us");
  return c;
}
obs::WindowedSeries& queue_wait_series() {
  static obs::WindowedSeries& s =
      obs::telemetry_series("threadpool.queue_wait_us");
  return s;
}

bool observing() { return obs::telemetry_enabled() || obs::trace_enabled(); }

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const double enqueue_us = observing() ? obs::trace_now_us() : 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(Task{std::move(task), enqueue_us});
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::in_worker() { return t_in_worker; }

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (observing()) {
      const double start_us = obs::trace_now_us();
      if (task.enqueue_us > 0.0) {
        queue_wait_series().record(static_cast<std::uint64_t>(
            std::max(0.0, start_us - task.enqueue_us)));
      }
      task.fn();
      const double end_us = obs::trace_now_us();
      tasks_counter().increment();
      busy_us_counter().add(static_cast<std::int64_t>(end_us - start_us));
      obs::trace_record("pool.task", start_us, end_us - start_us);
    } else {
      task.fn();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ODQ_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return static_cast<std::size_t>(0);
  }());
  return pool;
}

void parallel_for_dispatch(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain) {
  // The template fast path already handled n <= 0, nested calls, single
  // worker, and n <= grain — this only runs when work really fans out.
  obs::TraceSpan span("pool.parallel_for");
  span.arg("n", n);
  ThreadPool& pool = ThreadPool::global();
  const auto workers = static_cast<std::int64_t>(pool.size());
  const std::int64_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const std::int64_t step = (n + chunks - 1) / chunks;
  for (std::int64_t begin = 0; begin < n; begin += step) {
    const std::int64_t end = std::min(begin + step, n);
    pool.submit([&body, begin, end] { body(begin, end); });
  }
  pool.wait_idle();
}

}  // namespace odq::util
