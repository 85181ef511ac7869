// Workload definitions of the perfbench program. Every constant that fixes
// what a workload does is frozen here; README.md explains each choice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

// ---- offline_sparse / offline_dense --------------------------------------
// ResNet-20 at the paper's width, closed loop with one caller.
inline constexpr std::int64_t kOfflineWidth = 16;
// The timed loop runs one batch over and over, because the threshold is
// calibrated on exactly what is timed: per-tensor activation scales differ
// between batches, and cycling four batches let the timed share stray to
// 0.138 for a 0.10 target.
inline constexpr std::int64_t kOfflineBatch = 16;
// Share of conv outputs that should be sensitive. The threshold that gives
// it is found per seed at set-up (see calibrate_threshold), because a
// Kaiming-initialised model's predictor magnitudes scale with its init seed:
// one absolute threshold gave 0.49 to 0.91 across four seeds.
inline constexpr double kSparseFraction = 0.10;
inline constexpr double kDenseFraction = 0.90;

// ---- serve_poisson --------------------------------------------------------
inline constexpr std::int64_t kServeWidth = 8;
inline constexpr double kServeFraction = 0.25;
inline constexpr int kServeWorkers = 2;
inline constexpr std::size_t kServeMaxBatch = 8;
inline constexpr std::int64_t kServeFlushUs = 2000;
inline constexpr std::size_t kServeQueueCapacity = 64;
// Saturated throughput of this engine configuration under open-loop
// single-sample arrivals, measured once on the commit that introduced the
// benchmark (about 170 req/s, 4-core x86-64, AVX2). The rates below are
// fixed shares of it, so they are absolute and do not follow later
// speed-ups.
inline constexpr double kNominalRps = 170.0;
inline constexpr double kLightShare = 0.3;
inline constexpr double kBusyShare = 0.7;
// Ladder above busy; it stops at the first step that misses the SLO.
inline constexpr double kLadderShares[] = {0.8, 0.9,  1.0, 1.1,
                                           1.25, 1.5, 2.0};
// Rounds of light, bursts, busy. Light and busy each report their median
// round, and the bursts are spread over the rounds, so a noisy stretch of
// the host spoils one round, not the figure.
inline constexpr int kServeRounds = 5;
// Bursts of kServeQueueCapacity requests per round; they measure the
// saturated throughput, the gated figure, so they get about half of the
// run (one burst takes about 0.4 s).
inline constexpr int kServeBurstsPerRound = 5;
// Length of each Poisson step, as a share of --seconds. With 5 rounds and a
// ladder of three or four steps this is the other half of the run.
inline constexpr double kLightTimeShare = 0.04;
inline constexpr double kBusyTimeShare = 0.03;
inline constexpr double kLadderTimeShare = 0.03;
// Single requests whose masks feed the accelerator simulator.
inline constexpr int kServeSimSamples = 4;
// Latency limit on each step's p95, timed from each request's due time.
inline constexpr double kSloMs = 100.0;
inline constexpr double kSloQuantile = 0.95;
// A step whose generator ran later than this at p95 is invalid.
inline constexpr double kGenLagBoundMs = 10.0;
// Queue depth that ends a ladder step early as an unbounded backlog, so the
// probe never fills the queue and has requests refused.
inline constexpr std::size_t kBacklogAbortDepth = 48;
// A step that ends with more queued requests than this has a growing
// backlog.
inline constexpr std::size_t kBacklogEndDepth = 2 * kServeMaxBatch;
// Served requests re-run sequentially after timing and compared bit for bit.
inline constexpr int kServeVerifySamples = 48;

// Set-up is repeated and its median reported, so work moved into set-up
// shows and one slow repetition does not.
inline constexpr int kSetupRepeats = 9;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON written at exit (traced run)
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;  // untraced run
  std::vector<Metric> per_layer;   // traced run
  // Human-readable report lines, printed before the result line.
  std::vector<std::string> report;
};

RunResult run_offline(const RunOptions& opt, double target_fraction);
RunResult run_serve(const RunOptions& opt);

}  // namespace perfbench
