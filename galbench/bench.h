#ifndef GALBENCH_BENCH_H_
#define GALBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace galbench {

/// Input sizes: kFull is the measured configuration; kTiny runs every job
/// on small inputs for the smoke test.
enum class Size { kFull, kTiny };

/// Named metric values (per-layer metrics of a traced pass, probes).
using Metrics = std::map<std::string, double>;

/// Per-layer metrics of a pass are sums, so the parts of a composite
/// workload add up. A ratio is recorded as its numerator under
/// "<name>/num" and its denominator under "<name>/den"; a share of the pass
/// time records only the numerator. FinishLayerMetrics divides them out.
inline void AddRatio(Metrics& m, const std::string& name, double num,
                     double den) {
  m[name + "/num"] += num;
  m[name + "/den"] += den;
}
inline void AddShareOfPass(Metrics& m, const std::string& name,
                           double seconds) {
  m[name + "/num"] += seconds;
}
inline void FinishLayerMetrics(Metrics& m, double pass_seconds) {
  Metrics out;
  for (const auto& [key, value] : m) {
    const size_t slash = key.find('/');
    if (slash == std::string::npos) {
      out[key] += value;
    } else if (key.compare(slash, std::string::npos, "/num") == 0) {
      const std::string name = key.substr(0, slash);
      auto den = m.find(name + "/den");
      const double d = den == m.end() ? pass_seconds : den->second;
      out[name] = d == 0.0 ? 0.0 : value / d;
    }
  }
  m = std::move(out);
}

/// Median of `v`; 0 when empty.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One job of one pass: host seconds of the timed public call(s), whether
/// every Status the job returned was OK, and a digest of its output that
/// the workload's oracle must reproduce exactly.
struct JobOutcome {
  std::string name;
  double seconds = 0.0;
  bool status_ok = true;
  uint64_t digest = 0;
};

/// One traced layer call: host interval relative to the start of the pass,
/// plus the simulated-cluster ledger and clock deltas it caused (zero for
/// calls that run on no cluster).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t cross_bytes = 0;
  uint64_t cross_messages = 0;
  uint64_t clock_rounds = 0;
  double compute_s = 0.0;  // Σ slowest-worker compute of those rounds
  double comm_s = 0.0;     // Σ cost-model transfer time of those rounds
};

struct PassResult {
  std::vector<JobOutcome> jobs;
  bool traced = false;
  /// Filled by traced passes only: the per-layer metrics and the spans
  /// they were derived from.
  Metrics layer;
  std::vector<Span> spans;

  double RunSeconds() const {
    double s = 0.0;
    for (const JobOutcome& j : jobs) s += j.seconds;
    return s;
  }
};

/// A workload: inputs generated from the seed, a pass over its jobs through
/// the public API of src/, and an oracle computed by an independent path.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's graph, store or dataset; replaces any earlier
  /// state. Timed by the caller as setup_s.
  virtual void Setup() = 0;
  /// Runs every job once. A traced pass also records a span around each
  /// layer call and fills PassResult::layer.
  virtual PassResult Pass(bool traced) = 0;
  /// Expected digest per job, from the reference path.
  virtual std::map<std::string, uint64_t> Oracle() = 0;
  /// Timed probes of the graph layer: build, full neighbor scan,
  /// adjacency bytes per edge.
  virtual Metrics Probes() = 0;
};

/// nullptr for an unknown name. `tmpdir` is where on-disk state may go.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size, uint32_t threads,
                                       const std::string& tmpdir);

}  // namespace galbench

#endif  // GALBENCH_BENCH_H_
