#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace perfbench {

double median(std::vector<double> xs) {
  HPRS_REQUIRE(!xs.empty(), "median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double nearest_rank(std::vector<double> xs, double q) {
  HPRS_REQUIRE(!xs.empty(), "percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Args parse_args(int argc, char** argv, std::uint64_t default_seed) {
  const hprs::CliArgs cli(argc, argv, {"workload", "seed", "trace-seed",
                                       "seconds", "trace", "trace-dir"});
  Args args;
  args.workload = cli.get("workload", "");
  HPRS_REQUIRE(!args.workload.empty(), "--workload <name> is required");
  const auto seed_arg = [&](const char* name) {
    const std::int64_t v =
        cli.get_int(name, static_cast<std::int64_t>(default_seed));
    HPRS_REQUIRE(v >= 0, std::string("--") + name + " must be non-negative");
    return static_cast<std::uint64_t>(v);
  };
  args.seed = seed_arg("seed");
  args.trace_seed = seed_arg("trace-seed");
  args.seconds = cli.get_double("seconds", args.seconds);
  HPRS_REQUIRE(args.seconds > 0.0 && args.seconds <= 3600.0,
               "--seconds must lie in (0, 3600]");
  const std::int64_t trace = cli.get_int("trace", 0);
  HPRS_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");
  args.trace = trace == 1;
  args.trace_dir = cli.get("trace-dir", args.trace_dir);
  return args;
}

void Report::check(bool ok, const std::string& what, std::size_t ops) {
  if (ok) return;
  ++checks_failed_;
  failed_ += ops;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_
     << ", \"failed\": " << std::min(failed_, attempted_)
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; JSON has no NaN/inf, so those print as null
    // (a reader of the result fails loudly rather than comparing garbage).
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    os << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

TracedScope::TracedScope() {
  hprs::obs::Metrics::instance().reset();
  hprs::obs::Metrics::instance().set_enabled(true);
  hprs::obs::HostProfiler::instance().clear();
  hprs::obs::HostProfiler::instance().set_enabled(true);
}

TracedScope::~TracedScope() {
  hprs::obs::Metrics::instance().set_enabled(false);
  hprs::obs::HostProfiler::instance().set_enabled(false);
}

namespace {

const hprs::obs::MetricValue* find(const hprs::obs::Metrics::Snapshot& snap,
                                   const std::string& name) {
  const auto it = std::lower_bound(
      snap.begin(), snap.end(), name,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  return it != snap.end() && it->first == name ? &it->second : nullptr;
}

}  // namespace

std::uint64_t counter(const hprs::obs::Metrics::Snapshot& snap,
                      const std::string& name) {
  const auto* v = find(snap, name);
  return v != nullptr ? v->count : 0;
}

double level(const hprs::obs::Metrics::Snapshot& snap,
             const std::string& name) {
  const auto* v = find(snap, name);
  return v != nullptr ? v->value : 0.0;
}

std::uint64_t counter_sum(const hprs::obs::Metrics::Snapshot& snap,
                          const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : snap) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += value.count;
  }
  return sum;
}

}  // namespace perfbench
