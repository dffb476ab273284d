// hprs_perfbench: runs one named workload of the end-to-end benchmark in
// this process, checks the program's outputs, and prints the metrics.
//
//   hprs_perfbench --workload <paper_tables|serve_diurnal|detect_flood>
//                  [--seed N] [--trace-seed N] [--seconds S] [--trace 0|1]
//                  [--trace-dir DIR]
//
// Human-readable lines (run conditions, failed checks on stderr) come
// first; the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 prints the end-to-end
// metrics; --trace 1 adds one traced round and prints the per-layer metrics
// instead, writing the host spans to DIR/perfbench-<workload>.trace.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "linalg/thread_pool.hpp"
#include "workloads.hpp"

namespace {

/// Scene and trace seed used when --seed / --trace-seed is absent: the
/// scene's collection date, the program's own default.
constexpr std::uint64_t kDefaultSeed = 20010916;

/// Switches that select a non-default code path of the program.  Both sides
/// of a comparison must measure the same program, so the benchmark refuses
/// to run with any of them set.
constexpr const char* kRefusedEnv[] = {
    "HPRS_REFERENCE_KERNELS", "HPRS_THREAD_PER_RANK", "HPRS_TILE_STREAM",
    "HPRS_TILE_ROWS", "HPRS_MIXED_PRECISION"};

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures the "
                   "program's default paths only -- unset it\n",
                   name);
      return 2;
    }
  }
  try {
    const perfbench::Args args =
        perfbench::parse_args(argc, argv, kDefaultSeed);
    void (*run)(const perfbench::Args&, perfbench::Report&) = nullptr;
    if (args.workload == "paper_tables") run = perfbench::run_paper_tables;
    if (args.workload == "serve_diurnal") run = perfbench::run_serve_diurnal;
    if (args.workload == "detect_flood") run = perfbench::run_detect_flood;
    if (run == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    const char* kernel_env = std::getenv("HPRS_KERNEL_THREADS");
    std::printf("workload %s seed %llu trace-seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.trace_seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("hardware threads %u, HPRS_KERNEL_THREADS %s (effective %zu), "
                "executor bounded fibers on min(p, hardware threads) workers, "
                "host time = process CPU seconds\n",
                std::thread::hardware_concurrency(),
                kernel_env != nullptr ? kernel_env : "unset",
                hprs::linalg::kernel_threads());
    std::fflush(stdout);
    perfbench::Report report;
    run(args, report);
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
