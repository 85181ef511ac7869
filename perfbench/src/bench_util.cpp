#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q * n - 1e-9)));
  return values[std::min(rank, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  return rank >= n ? 0 : n - rank;
}

double tail_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

std::string quantile_label(double q) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

std::vector<double> poisson_schedule(std::uint64_t seed, std::uint64_t step,
                                     double rate_per_s, double duration_s) {
  std::vector<double> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  odq::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + step + 1);
  double t = 0.0;
  for (;;) {
    // 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

namespace {

bool in_charset(char c, const char* extra) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  for (const char* p = extra; *p != '\0'; ++p) {
    if (c == *p) return true;
  }
  return false;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!in_charset(name[0], "")) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return in_charset(c, "_.-"); });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return in_charset(c, "_/%.-"); });
}

PhaseSplit split_phases(double conv_seconds_total, double pack_seconds_total,
                        double predictor_seconds_total,
                        double epilogue_seconds_total, std::int64_t batches) {
  if (batches <= 0) throw std::invalid_argument("split_phases: no batches");
  const double phases =
      pack_seconds_total + predictor_seconds_total + epilogue_seconds_total;
  if (phases > conv_seconds_total * (1.0 + 1e-9)) {
    throw std::logic_error(
        "split_phases: phase time exceeds the conv time that contains it");
  }
  const double per_batch_ms = 1e3 / static_cast<double>(batches);
  PhaseSplit s;
  s.conv_ms = conv_seconds_total * per_batch_ms;
  s.pack_ms = pack_seconds_total * per_batch_ms;
  s.predictor_ms = predictor_seconds_total * per_batch_ms;
  s.epilogue_ms = epilogue_seconds_total * per_batch_ms;
  s.other_ms = std::max(0.0, s.conv_ms - s.pack_ms - s.predictor_ms -
                                 s.epilogue_ms);
  return s;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !std::isfinite(m.value)) {
      throw std::logic_error("result_json: bad metric " + m.name);
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
