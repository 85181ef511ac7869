// odq_perfbench — the repository benchmark.
//
//   odq_perfbench --workload <offline_sparse|offline_dense|serve_poisson>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>] [--git-sha <sha>]
//
// Prints a report, every metric by name with its unit, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (untraced run); with
// --trace 1 they are the per-layer ones from a traced run, whose spans are
// written to --trace-out. Exits 1 when any output check fails, 2 on bad
// usage or an unclean environment. README.md documents every metric.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

const char* const kRefusedEnv[] = {"ODQ_METRICS", "ODQ_TRACE", "ODQ_TELEMETRY",
                                   "ODQ_FIDELITY", "ODQ_FAULT"};

int usage(const char* msg) {
  std::fprintf(stderr,
               "odq_perfbench: %s\nusage: odq_perfbench --workload "
               "<offline_sparse|offline_dense|serve_poisson> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--git-sha <sha>]\n",
               msg);
  return 2;
}

// CPU ticks of the whole machine and the share the hypervisor took away
// (steal), from the first line of /proc/stat; zeros where it is missing.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

int run(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string git_sha = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 600.0;
    } else if (a == "--trace") {
      trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || trace < 0) {
    return usage("--seed, --seconds and --trace are required");
  }
  opt.trace = trace == 1;

  // Run hygiene: the library's own observability and fault switches change
  // what is timed.
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "odq_perfbench: refusing to time with %s set\n",
                   name);
      return 2;
    }
  }
  // The global pool is sized from ODQ_THREADS on first use; pin it to the
  // CPUs this process may run on.
  const int cpus = cpus_available();
  setenv("ODQ_THREADS", std::to_string(cpus).c_str(), 1);
  const std::size_t pool = odq::util::ThreadPool::global().size();
  const char* backend =
      odq::simd::backend_name(odq::simd::active_backend());

  const CpuTicks before = read_cpu_ticks();
  perfbench::RunResult res;
  if (opt.workload == "offline_sparse") {
    res = perfbench::run_offline(opt, perfbench::kSparseFraction);
  } else if (opt.workload == "offline_dense") {
    res = perfbench::run_offline(opt, perfbench::kDenseFraction);
  } else if (opt.workload == "serve_poisson") {
    res = perfbench::run_serve(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  const CpuTicks after = read_cpu_ticks();
  const double steal =
      after.total > before.total
          ? static_cast<double>(after.steal - before.steal) /
                static_cast<double>(after.total - before.total)
          : 0.0;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace);
  std::printf(
      "provenance: simd_backend=%s pool_threads=%zu cpus=%d git_sha=%s "
      "build_type=%s host_steal_share=%.4f (results from different simd "
      "backends are not comparable; a steal share above a few percent means "
      "the host took CPU time away during the run)\n",
      backend, pool, cpus, git_sha.c_str(), PERFBENCH_BUILD_TYPE, steal);
  for (const std::string& line : res.report) std::printf("%s\n", line.c_str());

  const std::vector<Metric>& metrics =
      opt.trace ? res.per_layer : res.end_to_end;
  if (opt.trace) {
    if (!opt.trace_out.empty() &&
        !perfbench::tracer().write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "odq_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
    std::printf("trace: %zu spans written to %s\n",
                perfbench::tracer().spans().size(), opt.trace_out.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::result_json(res.correct, res.attempted,
                                             res.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odq_perfbench: %s\n", e.what());
    return 3;
  }
}
