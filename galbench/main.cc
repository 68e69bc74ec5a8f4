// galbench: runs one benchmark workload for a fixed time and prints its
// metrics as the last line of stdout, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// (run.py attaches the units BENCHMARK.json declares).
//
//   galbench --workload traverse|mine|ooc|gnn --seed N --seconds S
//            --trace 0|1 [--size full|tiny] [--tmpdir DIR]
//
// --trace 0 reports the end-to-end metrics (setup_s, run_s, peak_rss_mb);
// --trace 1 interleaves traced and untraced passes and reports the
// per-layer metrics of the layers the workload uses (run.py reports the
// layers it bypasses as 0), each job's share of the pass time and the
// tracing overhead. Every
// job of every pass is checked against the workload's oracle; a mismatch
// or a non-OK Status is a failed job.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/simd.h"
#include "common/timer.h"

extern char** environ;

namespace galbench {
namespace {

// One host thread. The simulated cluster keeps its 4 workers, so partitions,
// wire traffic and modeled time are those of a 4-worker job. On a shared
// 4-vCPU host, 2 or 4 host threads made pass times swing with the host's
// load (cross-seed run_s spreads of 0.12-0.78 against 0.03-0.08 at one
// thread): every barrier, kernel dispatch and contended lock waits for the
// slowest descheduled vCPU.
constexpr uint32_t kHostThreads = 1;
// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS of
// set-up time has accumulated (at most kMaxSetupReps), so short set-ups
// get enough repetitions for a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 40;
constexpr double kSetupBudgetS = 2.0;
constexpr int kMinPasses = 3;

uint32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Clears every inherited GAL_* knob (fault schedules, OOC budgets,
/// compression, frontier mode, SIMD kill switch, cluster width, ...) so a
/// stray shell variable cannot change the workload, then pins the two
/// host-thread knobs. Must run before any library config is constructed:
/// several config defaults read the environment.
void MakeEnvironmentHermetic(uint32_t threads) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "GAL_", 4) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  const std::string value = std::to_string(threads);
  setenv("GAL_TASK_THREADS", value.c_str(), 1);
  setenv("GAL_KERNEL_THREADS", value.c_str(), 1);
}

/// Returns freed heap to the system and restarts the process's peak-RSS
/// mark (Linux VmHWM) at the resulting RSS, so the next peak counts live
/// data and what the next code allocates, not what earlier code freed.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last ResetPeakRss (since process start where
/// that reset is unavailable), in MB.
double PeakRssMb() {
  long kib = -1;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
  }
  if (kib < 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = usage.ru_maxrss;
  }
  return static_cast<double>(kib) * 1024.0 / 1e6;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  Size size = Size::kFull;
  std::string tmpdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--tmpdir") {
      args->tmpdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && args->trace >= 0 &&
         !args->workload.empty();
}

int Run(const Args& args, uint32_t threads, uint32_t nproc) {
  std::unique_ptr<Workload> workload = MakeWorkload(
      args.workload, args.seed, args.size, threads, args.tmpdir);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up runs several times; its median is setup_s.
  std::vector<double> setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < kMinSetupReps ||
         (setup_total < kSetupBudgetS && setup_times.size() < kMaxSetupReps)) {
    gal::Timer t;
    workload->Setup();
    setup_times.push_back(t.ElapsedSeconds());
    setup_total += setup_times.back();
  }

  // One warm-up pass (checked, not counted in run_s) measures the peak
  // resident set. Then passes run until the time is up. A traced run
  // alternates untraced and traced passes so the two run_s medians come
  // from the same stretch of time.
  std::vector<PassResult> passes;
  gal::Timer window;
  ResetPeakRss();
  passes.push_back(workload->Pass(false));
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> untraced_run, traced_run;
  std::vector<Metrics> traced_layers;
  for (size_t i = 0; window.ElapsedSeconds() < args.seconds ||
                     untraced_run.size() < kMinPasses ||
                     (args.trace && traced_run.size() < kMinPasses);
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const double cpu_start = CpuSeconds();
    PassResult pass = workload->Pass(traced);
    const double cpu_s = CpuSeconds() - cpu_start;
    (traced ? traced_run : untraced_run).push_back(pass.RunSeconds());
    // Per-pass log: host CPU time well below run_s means the host kept the
    // process waiting.
    std::fprintf(stderr, "pass %zu%s run_s=%.4f cpu_s=%.4f", i,
                 traced ? " traced" : "", pass.RunSeconds(), cpu_s);
    for (const JobOutcome& j : pass.jobs) {
      std::fprintf(stderr, " %s=%.4f", j.name.c_str(), j.seconds);
    }
    std::fprintf(stderr, "\n");
    pass.traced = traced;
    if (traced) {
      Metrics& m = pass.layer;
      for (const Span& s : pass.spans) {
        m["modeled_s"] += s.compute_s + s.comm_s;
        m["wire_mb"] += static_cast<double>(s.cross_bytes) / 1e6;
      }
      FinishLayerMetrics(m, pass.RunSeconds());
      traced_layers.push_back(m);
    }
    passes.push_back(std::move(pass));
  }

  Metrics metrics;
  if (args.trace) {
    std::map<std::string, std::vector<double>> layer_values;
    for (const Metrics& m : traced_layers) {
      for (const auto& [name, value] : m) layer_values[name].push_back(value);
    }
    for (const auto& [name, values] : layer_values) {
      metrics[name] = Median(values);
    }
    // Each job's share of the pass time, from the untraced passes.
    if (passes.front().jobs.size() > 1) {
      std::map<std::string, std::vector<double>> shares;
      for (size_t p = 1; p < passes.size(); ++p) {
        if (passes[p].traced) continue;
        for (const JobOutcome& j : passes[p].jobs) {
          shares[j.name].push_back(j.seconds / passes[p].RunSeconds());
        }
      }
      for (const auto& [job, values] : shares) {
        metrics[job + ".share"] = Median(values);
      }
    }
    metrics["trace.overhead_s"] = Median(traced_run) - Median(untraced_run);
    for (const auto& [name, value] : workload->Probes()) metrics[name] = value;
    // Traced and untraced passes alternate, so one of the last two is traced.
    const PassResult& last_traced =
        passes.back().traced ? passes.back() : passes[passes.size() - 2];
    for (const Span& s : last_traced.spans) {
      std::fprintf(stderr,
                   "span %s start_s=%.6f end_s=%.6f cross_bytes=%llu "
                   "rounds=%llu\n",
                   s.name.c_str(), s.start_s, s.end_s,
                   static_cast<unsigned long long>(s.cross_bytes),
                   static_cast<unsigned long long>(s.clock_rounds));
    }
  } else {
    metrics["setup_s"] = Median(setup_times);
    metrics["run_s"] = Median(untraced_run);
    metrics["peak_rss_mb"] = peak_rss_mb;
  }

  gal::Timer oracle_timer;
  const std::map<std::string, uint64_t> expected = workload->Oracle();
  std::fprintf(stderr, "oracle_s=%.3f\n", oracle_timer.ElapsedSeconds());
  uint64_t attempted = 0, failed = 0;
  for (const PassResult& pass : passes) {
    for (const JobOutcome& job : pass.jobs) {
      ++attempted;
      auto it = expected.find(job.name);
      if (!job.status_ok || it == expected.end() || it->second != job.digest) {
        ++failed;
        std::fprintf(stderr, "job %s failed: status_ok=%d digest=%016llx\n",
                     job.name.c_str(), job.status_ok,
                     static_cast<unsigned long long>(job.digest));
      }
    }
  }

  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"threads\": %u, \"nproc\": %u, \"simd_isa\": \"%s\", "
      "\"setup_reps\": %zu, \"passes\": %zu}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.size == Size::kTiny ? "tiny" : "full", threads, nproc,
      gal::simd::ActiveIsa(), setup_times.size(), passes.size());
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + Number(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace galbench

int main(int argc, char** argv) {
  const uint32_t nproc = galbench::Nproc();
  const uint32_t threads = galbench::kHostThreads;
  galbench::MakeEnvironmentHermetic(threads);
  galbench::Args args;
  if (!galbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: galbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--tmpdir DIR]\n");
    return 2;
  }
  return galbench::Run(args, threads, nproc);
}
