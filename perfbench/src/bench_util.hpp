// Pure helpers of the perfbench program: the percentile rule, the seeded
// Poisson arrival schedule, the metric-name charset, per-batch
// normalisation of the ODQ phase counters, and the result printer.
// Everything here is deterministic and covered by tests/test_bench_util.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank quantile (q in (0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);

// The percentile rule: the highest of {99.9, 99, 95, 90, 75, 50} that has
// at least ten samples strictly beyond its nearest rank. Returns 0 when even
// the median has fewer than ten samples beyond it (n < 20).
double tail_quantile(std::size_t n);

// "p95" for 0.95, "p99.9" for 0.999.
std::string quantile_label(double q);

// Samples strictly beyond the nearest rank of quantile q in n samples.
std::size_t samples_beyond(std::size_t n, double q);

// Arrival offsets in seconds from a step's start, exponential inter-arrival
// gaps at `rate_per_s`, covering [0, duration_s). A pure function of its
// arguments: the same (seed, step) always gives the same schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, std::uint64_t step,
                                     double rate_per_s, double duration_s);

// Metric names: start with a letter or digit, at most 64 characters drawn
// from letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);
// Units: 1 to 16 characters drawn from letters, digits, '_', '/', '%', '.'
// and '-'.
bool valid_unit(const std::string& unit);

// ODQ phase counters turned into per-batch milliseconds. `conv_ms` is the
// bench-side conv time (decorator) of the same batches; `other_ms` is conv
// time the three phases do not cover (quantize, dequantize, scan).
struct PhaseSplit {
  double conv_ms = 0.0;
  double pack_ms = 0.0;
  double predictor_ms = 0.0;
  double epilogue_ms = 0.0;
  double other_ms = 0.0;
};

// Normalises additive phase seconds accumulated over `batches` batches.
// Throws std::logic_error when the phases exceed the conv time they are
// part of — the symptom of mixing per-iteration and total units.
PhaseSplit split_phases(double conv_seconds_total, double pack_seconds_total,
                        double predictor_seconds_total,
                        double epilogue_seconds_total, std::int64_t batches);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
