#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>

#include "core/morph_kernel.hpp"
#include "linalg/eigen.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/solve.hpp"
#include "linalg/vec.hpp"
#include "obs/chrome_trace.hpp"

namespace perfbench {

namespace {

namespace linalg = hprs::linalg;

constexpr std::size_t kStrip = 64;
constexpr std::size_t kProbeTargets = 8;

/// Times `pass` (one sweep over `pixels` pixels) until at least 0.2 s and
/// three passes have run; returns the median ns per pixel.
template <class Pass>
double ns_per_pixel(std::size_t pixels, Pass&& pass) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < 3 || seconds_since(start) < 0.2) {
    const double t0 = cpu_seconds();
    pass();
    times.push_back(cpu_seconds() - t0);
  }
  return median(times) * 1e9 / static_cast<double>(pixels);
}

/// kProbeTargets scene pixels spread evenly over the image, one per row.
linalg::Matrix probe_signatures(const hprs::hsi::HsiCube& cube) {
  linalg::Matrix u;
  const std::size_t n = cube.pixel_count();
  for (std::size_t k = 0; k < kProbeTargets; ++k) {
    const auto px = cube.pixel((2 * k + 1) * n / (2 * kProbeTargets));
    const std::vector<double> row(px.begin(), px.end());
    u.append_row(row);
  }
  return u;
}

/// Keeps a probe's result observable so the sweep is not optimized away.
volatile double g_sink = 0.0;

}  // namespace

KernelTimes time_kernels(const hprs::hsi::HsiCube& cube) {
  KernelTimes out;
  const std::size_t n = cube.pixel_count();
  const std::size_t bands = cube.bands();
  const float* pixels = cube.pixel(0).data();
  const linalg::Matrix u = probe_signatures(cube);
  const std::size_t t = u.rows();

  {
    const linalg::Cholesky gram(u.multiply(u.transposed()));
    std::vector<double> b(kStrip * t), xx(kStrip), z(t);
    out.osp_ns = ns_per_pixel(n, [&] {
      Span span("linalg.osp_sweep");
      double best = -1.0;
      for (std::size_t p0 = 0; p0 < n; p0 += kStrip) {
        const std::size_t m = std::min(kStrip, n - p0);
        const float* x = pixels + p0 * bands;
        linalg::dot_strip(u, x, m, b);
        linalg::norm_sq_strip(x, m, bands, xx);
        for (std::size_t p = 0; p < m; ++p) {
          const std::span<const double> bp(b.data() + p * t, t);
          gram.solve_into(bp, z);
          best = std::max(best, xx[p] - linalg::dot<double, double>(bp, z));
        }
      }
      g_sink = best;
    });
  }
  {
    const linalg::Unmixer unmixer(u);
    std::vector<double> corr(kStrip * t), xx(kStrip);
    out.fcls_ns = ns_per_pixel(n, [&] {
      Span span("linalg.fcls_sweep");
      double best = -1.0;
      for (std::size_t p0 = 0; p0 < n; p0 += kStrip) {
        const std::size_t m = std::min(kStrip, n - p0);
        const float* x = pixels + p0 * bands;
        linalg::dot_strip(u, x, m, corr);
        linalg::norm_sq_strip(x, m, bands, xx);
        for (std::size_t p = 0; p < m; ++p) {
          const auto r = unmixer.fcls_with_corr(
              std::span<const double>(corr.data() + p * t, t), xx[p]);
          best = std::max(best, r.error_sq);
        }
      }
      g_sink = best;
    });
  }
  {
    hprs::core::MorphBlockEngine engine(cube, /*kernel_radius=*/2);
    out.sad_ns = ns_per_pixel(n, [&] {
      Span span("linalg.sad_window_pass");
      engine.iterate(/*last=*/false);
      g_sink = engine.mei().front();
    });
  }
  {
    const std::vector<double> x(pixels, pixels + n * bands);
    std::vector<double> tri(bands * (bands + 1) / 2);
    out.cov_ns = ns_per_pixel(n, [&] {
      Span span("linalg.cov_syrk");
      std::fill(tri.begin(), tri.end(), 0.0);
      for (std::size_t p0 = 0; p0 < n; p0 += 4 * kStrip) {
        const std::size_t m = std::min(4 * kStrip, n - p0);
        linalg::syrk_tri_update(x.data() + p0 * bands, m, bands, tri.data());
      }
      g_sink = tri.front();
    });
  }
  return out;
}

linalg::Matrix band_covariance(const hprs::hsi::HsiCube& cube) {
  const std::size_t n = cube.pixel_count();
  const std::size_t bands = cube.bands();
  std::vector<double> mean(bands, 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    const auto px = cube.pixel(p);
    for (std::size_t b = 0; b < bands; ++b) mean[b] += px[b];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  linalg::Matrix cov(bands, bands);
  std::vector<double> d(bands);
  for (std::size_t p = 0; p < n; ++p) {
    const auto px = cube.pixel(p);
    for (std::size_t b = 0; b < bands; ++b) d[b] = px[b] - mean[b];
    for (std::size_t i = 0; i < bands; ++i) {
      for (std::size_t j = i; j < bands; ++j) cov(i, j) += d[i] * d[j];
    }
  }
  for (std::size_t i = 0; i < bands; ++i) {
    for (std::size_t j = i; j < bands; ++j) {
      cov(i, j) /= static_cast<double>(n);
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

EigenProbe probe_eigen(const linalg::Matrix& cov, Report& report, int reps) {
  linalg::EigenDecomposition eig;
  const double s = median_seconds(reps, [&] {
    Span span("linalg.jacobi_eigen");
    eig = linalg::jacobi_eigen(cov);
  });
  const std::size_t n = cov.rows();
  double frob = 0.0;
  for (double v : cov.data()) frob += v * v;
  frob = std::sqrt(frob);
  double residual = 0.0;
  double ortho = 0.0;
  bool descending = eig.values.size() == n;
  for (std::size_t k = 0; k < n && descending; ++k) {
    const auto v = eig.vectors.row(k);
    const std::vector<double> cv = cov.multiply(v);
    double r2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = cv[i] - eig.values[k] * v[i];
      r2 += e * e;
    }
    residual = std::max(residual, std::sqrt(r2));
    for (std::size_t l = k; l < n; ++l) {
      const double dot = linalg::dot<double, double>(v, eig.vectors.row(l));
      ortho = std::max(ortho, std::abs(dot - (k == l ? 1.0 : 0.0)));
    }
    if (k > 0 && eig.values[k] > eig.values[k - 1]) descending = false;
  }
  report.check(descending, "jacobi_eigen eigenvalues are not descending");
  report.check(residual <= 1e-9 * frob,
               "jacobi_eigen residual |Cv - lambda v| = " +
                   std::to_string(residual) + " exceeds 1e-9 |C|_F");
  report.check(ortho <= 1e-9, "jacobi_eigen vectors are not orthonormal (" +
                                  std::to_string(ortho) + ")");
  return EigenProbe{s * 1e3, eig.sweeps};
}

hprs::core::RunnerConfig runner_config(const hprs::sched::JobSpec& spec) {
  using hprs::core::Algorithm;
  using hprs::sched::JobAlgorithm;
  hprs::core::RunnerConfig cfg;
  switch (spec.algorithm) {
    case JobAlgorithm::kAtdca: cfg.algorithm = Algorithm::kAtdca; break;
    case JobAlgorithm::kUfcls: cfg.algorithm = Algorithm::kUfcls; break;
    case JobAlgorithm::kPct: cfg.algorithm = Algorithm::kPct; break;
    case JobAlgorithm::kMorph: cfg.algorithm = Algorithm::kMorph; break;
    case JobAlgorithm::kPpi:
      throw hprs::Error("PPI has no core::run_algorithm equivalent");
  }
  cfg.policy = spec.policy;
  cfg.targets = spec.targets;
  cfg.classes = spec.classes;
  cfg.morph_iterations = spec.iterations;
  cfg.kernel_radius = spec.kernel_radius;
  cfg.sad_threshold = spec.sad_threshold;
  cfg.memory_fraction = spec.memory_fraction;
  cfg.replication = spec.replication;
  cfg.charge_data_staging = spec.charge_data_staging;
  return cfg;
}

void add_core_metrics(Report& report,
                      const std::vector<std::vector<double>>& cell_ms) {
  static const char* const kNames[] = {"core.atdca_ms", "core.ufcls_ms",
                                       "core.pct_ms", "core.morph_ms"};
  for (std::size_t a = 0; a < 4; ++a) {
    report.metric(kNames[a], cell_ms[a].empty() ? 0.0 : median(cell_ms[a]),
                  "ms");
  }
}

void add_linalg_metrics(Report& report, const KernelTimes& kernels,
                        const EigenProbe& eigen, std::size_t eigen_calls,
                        double host_s,
                        const hprs::obs::Metrics::Snapshot& snap) {
  report.metric("linalg.eigen_calls", static_cast<double>(eigen_calls),
                "count");
  report.metric("linalg.eigen_ms", eigen.ms, "ms");
  report.metric("linalg.eigen_sweeps", eigen.sweeps, "count");
  report.metric("linalg.eigen_share",
                static_cast<double>(eigen_calls) * eigen.ms * 1e-3 / host_s,
                "ratio");
  report.metric("linalg.osp_ns_per_pixel", kernels.osp_ns, "ns");
  report.metric("linalg.fcls_ns_per_pixel", kernels.fcls_ns, "ns");
  report.metric("linalg.sad_ns_per_pixel", kernels.sad_ns, "ns");
  report.metric("linalg.cov_ns_per_pixel", kernels.cov_ns, "ns");
  report.metric("linalg.scratch_high_water_doubles",
                level(snap, "linalg.scratch_high_water_doubles"), "count");
}

void add_vmpi_metrics(Report& report,
                      const hprs::obs::Metrics::Snapshot& snap) {
  const double run_s = level(snap, "vmpi.engine.run");
  const double ranks_s = level(snap, "vmpi.engine.ranks");
  const std::uint64_t messages =
      counter(snap, "vmpi.p2p.messages") +
      counter_sum(snap, "vmpi.collectives.");
  report.metric("vmpi.engine_run_s", run_s, "s");
  report.metric("vmpi.engine_overhead_s", run_s - ranks_s, "s");
  report.metric("vmpi.host_us_per_message",
                messages > 0 ? run_s * 1e6 / static_cast<double>(messages)
                             : 0.0,
                "us");
  report.metric("vmpi.executor_parks",
                static_cast<double>(counter(snap, "vmpi.host.executor.parks")),
                "count");
  report.metric(
      "vmpi.wakeups_targeted",
      static_cast<double>(counter(snap, "vmpi.host.wakeups_targeted")),
      "count");
  report.metric("vmpi.messages", static_cast<double>(messages), "count");
  report.metric("vmpi.bytes_moved",
                static_cast<double>(counter(snap, "vmpi.bytes_sent")),
                "bytes");
  report.metric("vmpi.flops", static_cast<double>(counter(snap, "vmpi.flops")),
                "count");
}

bool write_span_file(const Args& args) {
  const std::string path =
      args.trace_dir + "/perfbench-" + args.workload + ".trace.json";
  std::ofstream out(path);
  out << hprs::obs::chrome_trace_json(
      hprs::vmpi::RunReport{}, hprs::obs::HostProfiler::instance().spans());
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("span file: %s\n", path.c_str());
  return true;
}

}  // namespace perfbench
