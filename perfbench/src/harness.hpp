// Shared machinery of the end-to-end benchmark: argument parsing, the
// measured-round loop, output checks with operation accounting, the
// per-layer readers of the program's obs registry, and the one-line JSON
// result every run ends with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host time as this benchmark measures it: the CPU time of the whole
/// process, user plus system, summed over its threads.  On a shared host
/// the wall time of identical work moves with other tenants' load (up to 2x
/// here); the CPU time it consumes moves far less.  Wall time still bounds
/// how long a run measures.
[[nodiscard]] double cpu_seconds();

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> xs);

/// Nearest-rank percentile, q in (0, 1] (same rule as serve::percentile).
[[nodiscard]] double nearest_rank(std::vector<double> xs, double q);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

struct Args {
  std::string workload;
  /// Scene seed (--seed): every workload's scene is generated from it.
  std::uint64_t seed = 0;
  /// Arrival-trace seed of the serving workloads (--trace-seed).
  std::uint64_t trace_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Perfetto span file.
  std::string trace_dir = ".bench_build";
};

/// Parses --workload/--seed/--trace-seed/--seconds/--trace/--trace-dir;
/// throws hprs::Error on anything malformed.  `default_seed` applies to
/// either seed when it is absent.
[[nodiscard]] Args parse_args(int argc, char** argv,
                              std::uint64_t default_seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Accumulates the outcome of one run: operations attempted and failed, the
/// output checks, and the metrics to print.
class Report {
 public:
  /// Records one output check.  A failed check marks `ops` operations as
  /// failed and the run as incorrect, and is printed to stderr.
  void check(bool ok, const std::string& what, std::size_t ops = 1);
  /// Counts operations (analyses) the measured phase attempted / lost.
  void attempted(std::size_t n) { attempted_ += n; }
  void failed(std::size_t n) { failed_ += n; }
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const { return checks_failed_ == 0; }
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checks_failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Runs `round` (which returns nothing; it stores its own outputs) at least
/// once, and again while another round of median wall length still fits in
/// `seconds` of wall time.  Prints each round's wall and CPU seconds and
/// returns the CPU seconds of every round.
template <class Round>
std::vector<double> measure_rounds(double seconds, Round&& round) {
  std::vector<double> cpu;
  std::vector<double> wall;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point w0 = Clock::now();
    const double c0 = cpu_seconds();
    round();
    cpu.push_back(cpu_seconds() - c0);
    wall.push_back(seconds_since(w0));
    std::printf("round %zu: wall %.3f s, cpu %.3f s\n", cpu.size(),
                wall.back(), cpu.back());
  } while (seconds_since(start) + median(wall) <= seconds);
  std::fflush(stdout);
  return cpu;
}

/// Set-ups per run; setup_s is their median.  Nine keep one slow set-up
/// (a cold page cache, a busy neighbour) out of the reported figure.
constexpr int kSetupReps = 9;

/// Runs `fn` `reps` times and returns the median CPU seconds.
template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = cpu_seconds();
    fn();
    times.push_back(cpu_seconds() - t0);
  }
  return median(times);
}

/// Benchmark-side span around one call into a layer.  While the traced run
/// has the program's HostProfiler and Metrics switched on, it records a
/// host span (and a metrics timer) named "bench.<layer>.<call>"; otherwise
/// it costs one atomic load.
class Span {
 public:
  explicit Span(const std::string& name) : timer_("bench." + name) {}

 private:
  hprs::obs::ScopedHostTimer timer_;
};

/// Switches the program's metrics registry and host profiler on (cleared)
/// for one traced round and off again afterwards.
class TracedScope {
 public:
  TracedScope();
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
};

/// Lookups in a metrics snapshot; absent names read as 0.
[[nodiscard]] std::uint64_t counter(const hprs::obs::Metrics::Snapshot& snap,
                                    const std::string& name);
/// A timer's accumulated seconds or a gauge's level.
[[nodiscard]] double level(const hprs::obs::Metrics::Snapshot& snap,
                           const std::string& name);
/// Sum of every counter whose name starts with `prefix`.
[[nodiscard]] std::uint64_t counter_sum(
    const hprs::obs::Metrics::Snapshot& snap, const std::string& prefix);

}  // namespace perfbench
