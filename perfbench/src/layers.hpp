// Per-layer probes shared by the workloads: the linalg kernels and the
// Jacobi eigensolve timed on a workload's scene, solo core runs, and the
// vmpi numbers read back from the program's obs registry.
#pragma once

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "harness.hpp"
#include "hsi/cube.hpp"
#include "linalg/matrix.hpp"
#include "sched/job.hpp"
#include "simnet/platform.hpp"

namespace perfbench {

/// Host nanoseconds per pixel of the public kernels behind the analyses,
/// each timed over every pixel of `cube`:
///  - osp:  ATDCA's orthogonal-subspace score (dot_strip + norm_sq_strip +
///          Cholesky solve against an 8-row target matrix);
///  - fcls: UFCLS's fully constrained unmixing (dot_strip +
///          Unmixer::fcls_with_corr against the same 8 signatures);
///  - sad:  one MORPH window pass (MorphBlockEngine::iterate, radius 2),
///          whose work is the SAD plane cache;
///  - cov:  PCT's covariance update (syrk_tri_update on double strips).
struct KernelTimes {
  double osp_ns = 0.0;
  double fcls_ns = 0.0;
  double sad_ns = 0.0;
  double cov_ns = 0.0;
};
[[nodiscard]] KernelTimes time_kernels(const hprs::hsi::HsiCube& cube);

/// Mean-centred band covariance of `cube`, computed by plain loops that
/// share no code with the program's PCT.
[[nodiscard]] hprs::linalg::Matrix band_covariance(
    const hprs::hsi::HsiCube& cube);

/// Runs linalg::jacobi_eigen on `cov` and checks the decomposition
/// (residual |Cv - lambda v|, orthonormal vectors, descending values).
/// Returns the median host milliseconds of `reps` solves and the sweeps.
struct EigenProbe {
  double ms = 0.0;
  int sweeps = 0;
};
[[nodiscard]] EigenProbe probe_eigen(const hprs::linalg::Matrix& cov,
                                     Report& report, int reps);

/// The core::run_algorithm configuration equivalent to a scheduler job
/// (the same field mapping the scheduler applies).  PPI has no runner.
[[nodiscard]] hprs::core::RunnerConfig runner_config(
    const hprs::sched::JobSpec& spec);

/// Adds core.<alg>_ms: the median host milliseconds of one
/// core::run_algorithm of each algorithm, from `cell_ms[alg]`.
void add_core_metrics(Report& report,
                      const std::vector<std::vector<double>>& cell_ms);

/// Adds the linalg.* metrics: kernel ns per pixel, the eigen probe, the
/// eigensolve count and its share of `host_s`, and the scratch high water
/// read from `snap`.
void add_linalg_metrics(Report& report, const KernelTimes& kernels,
                        const EigenProbe& eigen, std::size_t eigen_calls,
                        double host_s,
                        const hprs::obs::Metrics::Snapshot& snap);

/// Adds the vmpi.* metrics read from a traced round's registry snapshot.
void add_vmpi_metrics(Report& report,
                      const hprs::obs::Metrics::Snapshot& snap);

/// Writes the traced round's host spans as a Chrome/Perfetto trace through
/// obs::chrome_trace_json to `<dir>/perfbench-<workload>.trace.json` and
/// prints the path; returns false on I/O failure.
bool write_span_file(const Args& args);

}  // namespace perfbench
