#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_req = 0;

std::uint64_t thread_tag() {
  return static_cast<std::uint64_t>(
             std::hash<std::thread::id>{}(std::this_thread::get_id())) %
         100000;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 =
      all.empty() ? 0
                  : std::min_element(all.begin(), all.end(),
                                     [](const Span& a, const Span& b) {
                                       return a.start_ns < b.start_ns;
                                     })->start_ns;
  bool ok = std::fprintf(f, "{\"traceEvents\": [\n") > 0;
  for (std::size_t i = 0; i < all.size() && ok; ++i) {
    const Span& s = all[i];
    ok = std::fprintf(
             f,
             "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
             "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
             "\"parent\": %llu, \"req\": %llu}}\n",
             i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.tid),
             static_cast<double>(s.start_ns - t0) / 1e3,
             static_cast<double>(s.end_ns - s.start_ns) / 1e3,
             static_cast<unsigned long long>(s.id),
             static_cast<unsigned long long>(s.parent),
             static_cast<unsigned long long>(s.req)) > 0;
  }
  ok = ok && std::fprintf(f, "]}\n") > 0;
  return std::fclose(f) == 0 && ok;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::uint64_t req) {
  Tracer& tr = tracer();
  if (!tr.enabled()) return;
  active_ = true;
  saved_parent_ = t_current_span;
  saved_req_ = t_current_req;
  span_.name = name;
  span_.id = tr.new_id();
  span_.parent = parent != 0 ? parent : t_current_span;
  span_.req = req != 0 ? req : t_current_req;
  span_.tid = thread_tag();
  t_current_span = span_.id;
  t_current_req = span_.req;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  tracer().record(span_);
  t_current_span = saved_parent_;
  t_current_req = saved_req_;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns);
  }
  return out;
}

}  // namespace perfbench
