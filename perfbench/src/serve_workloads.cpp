// The two serving workloads, both through serve::run_service on the fully
// heterogeneous NOW (rank 0 dispatches, 15 workers):
//
//  serve_diurnal -- a diurnal trace of the three-tenant mix (survey,
//    tasking, adhoc) with bench_serve_traffic's request template, batching
//    and an adhoc in-flight rank cap on, arrivals compressed so the peaks
//    queue and batch.  The PCT Jacobi eigensolve dominates its host time
//    and batching serves a large share of the requests, so an eigensolve
//    speed-up, a memo or a result cache all show here.
//
//  detect_flood -- a steady open-loop flood of ATDCA, UFCLS and MORPH
//    requests on a smaller scene, arriving faster than the NOW serves them.
//    Every request has its own batch key and none is PCT: no eigensolve,
//    and every batching lookup misses.  The dispatcher, cost model, engine
//    and the OSP/FCLS/SAD sweeps do the work, so a memo or cache that costs
//    something on a miss shows here as a loss.
#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "hsi/scene.hpp"
#include "sched/cost_model.hpp"
#include "serve/batcher.hpp"
#include "serve/service.hpp"
#include "serve/tenant.hpp"
#include "serve/traffic.hpp"
#include "simnet/platform.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace hsi = hprs::hsi;
namespace sched = hprs::sched;
namespace serve = hprs::serve;

struct ServeWorkload {
  std::string name;
  std::size_t rows = 96;
  std::size_t cols = 96;
  serve::TraceConfig trace;
  serve::ServiceConfig service;
  /// Give every request its own batch key (no two requests batch).
  bool distinct_keys = false;
};

/// bench_serve_traffic's request template: test-scale parameters so a
/// request costs milliseconds of virtual time, gangs at most 6 wide.
void apply_request_template(serve::TenantProfile& tenant) {
  tenant.targets = 4;
  tenant.classes = 3;
  tenant.skewers = 32;
  tenant.max_ranks = std::min(tenant.max_ranks, 6);
  tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
}

ServeWorkload diurnal_workload(std::uint64_t seed) {
  ServeWorkload w;
  w.name = "serve_diurnal";
  w.trace.shape = serve::TrafficShape::kDiurnal;
  // Four day/night cycles of 75 s, 300 requests each: the arrival rate of
  // each peak is the same as 600 requests in two cycles over 150 s, and the
  // number of PCT gangs (the bulk of the host time) is large enough that it
  // moves by only a few percent from one scene seed to the next.
  w.trace.jobs = 1200;
  w.trace.duration_s = 300.0;
  w.trace.diurnal_cycles = 4.0;
  w.trace.seed = seed;
  w.trace.tenants = serve::default_tenant_mix();
  for (auto& tenant : w.trace.tenants) apply_request_template(tenant);
  w.service.batching = true;
  w.service.quotas["adhoc"].max_inflight_ranks = 48;
  return w;
}

ServeWorkload flood_workload(std::uint64_t seed) {
  ServeWorkload w;
  w.name = "detect_flood";
  w.rows = 48;
  w.cols = 48;
  w.trace.shape = serve::TrafficShape::kSteady;
  w.trace.jobs = 2000;
  w.trace.duration_s = 40.0;
  w.trace.seed = seed;
  serve::TenantProfile flood;
  flood.name = "flood";
  flood.algorithms = {sched::JobAlgorithm::kAtdca, sched::JobAlgorithm::kUfcls,
                      sched::JobAlgorithm::kMorph};
  flood.min_ranks = 1;
  flood.max_ranks = 4;
  apply_request_template(flood);
  w.trace.tenants = {flood};
  w.service.batching = true;
  w.distinct_keys = true;
  return w;
}

struct Inputs {
  hsi::Scene scene;
  std::vector<sched::JobSpec> trace;
  double scene_s = 0.0;
  double trace_s = 0.0;
};

Inputs make_inputs(const ServeWorkload& w, std::uint64_t seed) {
  Inputs in;
  hsi::SceneConfig cfg;
  cfg.rows = w.rows;
  cfg.cols = w.cols;
  cfg.seed = seed;
  double t0 = cpu_seconds();
  {
    Span span("hsi.generate_wtc_scene");
    in.scene = hsi::generate_wtc_scene(cfg);
  }
  in.scene_s = cpu_seconds() - t0;
  t0 = cpu_seconds();
  {
    Span span("serve.generate_trace");
    in.trace = serve::generate_trace(w.trace);
    if (w.distinct_keys) {
      for (sched::JobSpec& spec : in.trace) {
        spec.batch_key = serve::batch_key(spec, /*scene_uid=*/spec.id);
      }
    }
  }
  in.trace_s = cpu_seconds() - t0;
  return in;
}

bool same_result(const serve::ServiceResult& a, const serve::ServiceResult& b) {
  if (a.schedule.records.size() != b.schedule.records.size()) return false;
  for (std::size_t i = 0; i < a.schedule.records.size(); ++i) {
    const sched::JobRecord& ra = a.schedule.records[i];
    const sched::JobRecord& rb = b.schedule.records[i];
    const sched::JobOutput& oa = a.schedule.outputs[i];
    const sched::JobOutput& ob = b.schedule.outputs[i];
    if (ra.dispatch_s != rb.dispatch_s || ra.finish_s != rb.finish_s ||
        ra.members != rb.members || ra.batched_into != rb.batched_into ||
        oa.targets != ob.targets || oa.labels != ob.labels ||
        oa.scores != ob.scores) {
      return false;
    }
  }
  return a.schedule.makespan_s == b.schedule.makespan_s;
}

bool same_output(const sched::JobOutput& a, const sched::JobOutput& b) {
  return a.targets == b.targets && a.scores == b.scores &&
         a.labels == b.labels && a.label_count == b.label_count;
}

void check_schedule(const ServeWorkload& w,
                    const std::vector<sched::JobSpec>& trace,
                    const serve::ServiceResult& result, std::size_t rounds,
                    Report& report) {
  const auto& records = result.schedule.records;
  const auto& outputs = result.schedule.outputs;
  report.check(records.size() == trace.size() && outputs.size() == trace.size(),
               "service returned " + std::to_string(records.size()) +
                   " records for " + std::to_string(trace.size()) + " requests",
               rounds * trace.size());
  if (records.size() != trace.size() || outputs.size() != trace.size()) return;
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < trace.size(); ++i) index_of[trace[i].id] = i;
  // Busy intervals of every engine rank, to prove no rank serves two gangs
  // at once.
  std::map<int, std::vector<std::pair<double, double>>> busy;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sched::JobRecord& r = records[i];
    const std::string who = "request " + std::to_string(trace[i].id);
    if (!r.completed()) continue;
    report.check(r.arrival_s == trace[i].arrival_s &&
                     r.arrival_s <= r.dispatch_s && r.dispatch_s <= r.finish_s,
                 who + " violates arrival <= dispatch <= finish", rounds);
    if (r.batched_into != 0) {
      const auto leader = index_of.find(r.batched_into);
      report.check(leader != index_of.end() &&
                       same_output(outputs[i], outputs[leader->second]),
                   who + "'s output differs from its batch leader's", rounds);
      continue;
    }
    report.check(static_cast<int>(r.members.size()) == trace[i].ranks,
                 who + " ran on " + std::to_string(r.members.size()) +
                     " ranks, asked for " + std::to_string(trace[i].ranks),
                 rounds);
    for (int m : r.members) busy[m].emplace_back(r.dispatch_s, r.finish_s);
  }
  for (auto& [rank, spans] : busy) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      report.check(spans[k].first >= spans[k - 1].second,
                   "engine rank " + std::to_string(rank) +
                       " sits in two gangs that overlap in virtual time",
                   rounds);
    }
  }
  if (w.distinct_keys) {
    report.check(result.batches.riders == 0,
                 "requests with distinct batch keys were batched", rounds);
  }
}

/// Solo core::run_algorithm runs of a seeded sample of up to three
/// requests per algorithm in `algs`; ATDCA and UFCLS outputs are compared
/// with the service's output for that request.  Algorithms without a
/// request in the trace run the trace's first request re-targeted to them
/// (timed only).  Returns the host milliseconds of every solo run per
/// core::Algorithm.
std::vector<std::vector<double>> solo_sample(
    const std::vector<sched::JobSpec>& trace, const hsi::HsiCube& cube,
    const serve::ServiceResult& result,
    const std::vector<sched::JobAlgorithm>& algs, std::uint64_t seed,
    std::size_t rounds, Report& report) {
  std::vector<std::vector<double>> ms(4);
  const hprs::simnet::Platform platform = hprs::simnet::fully_heterogeneous();
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (const sched::JobAlgorithm alg : algs) {
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i].algorithm == alg && result.schedule.records[i].completed()) {
        pool.push_back(i);
      }
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(std::min<std::size_t>(pool.size(), 3));
    std::vector<sched::JobSpec> specs;
    for (std::size_t i : pool) specs.push_back(trace[i]);
    if (specs.empty()) {
      specs.push_back(trace.front());
      specs.back().algorithm = alg;
    }
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const hprs::core::RunnerConfig cfg = runner_config(specs[k]);
      Span span(std::string("core.run_algorithm.") +
                hprs::core::to_string(cfg.algorithm));
      const double t0 = cpu_seconds();
      const hprs::core::RunnerOutput solo =
          hprs::core::run_algorithm(platform, cube, cfg);
      ms[static_cast<std::size_t>(cfg.algorithm)].push_back(
          (cpu_seconds() - t0) * 1e3);
      // MORPH and PCT pick class representatives per partition, so their
      // outputs depend on the gang; the detectors' do not.
      if (k >= pool.size() || (alg != sched::JobAlgorithm::kAtdca &&
                               alg != sched::JobAlgorithm::kUfcls)) {
        continue;
      }
      const sched::JobOutput& served = result.schedule.outputs[pool[k]];
      report.check(solo.targets == served.targets &&
                       solo.labels == served.labels,
                   "request " + std::to_string(specs[k].id) + " (" +
                       sched::to_string(alg) +
                       ") differs from a solo core::run_algorithm run",
                   rounds);
    }
  }
  return ms;
}

/// Largest number of requests waiting (arrived, not yet dispatched) at any
/// virtual instant.
double queue_depth_max(const std::vector<sched::JobRecord>& records) {
  std::vector<std::pair<double, int>> events;
  for (const sched::JobRecord& r : records) {
    if (r.dispatch_s > r.arrival_s) {
      events.emplace_back(r.arrival_s, +1);
      events.emplace_back(r.dispatch_s, -1);
    }
  }
  std::sort(events.begin(), events.end());  // departures first at a tie
  int depth = 0;
  int deepest = 0;
  for (const auto& e : events) {
    depth += e.second;
    deepest = std::max(deepest, depth);
  }
  return deepest;
}

void run_serve(const ServeWorkload& w, const Args& args, Report& report) {
  const hprs::simnet::Platform platform = hprs::simnet::fully_heterogeneous();

  // -- set-up: scene + trace, kSetupReps times; the median is setup_s -----
  Inputs in;
  const double setup_s =
      median_seconds(kSetupReps, [&] { in = make_inputs(w, args.seed); });

  // -- measured phase --------------------------------------------------------
  serve::ServiceResult first;
  serve::ServiceResult last;
  std::size_t n_rounds = 0;
  bool repeatable = true;
  double rss_mb = 0.0;
  const std::vector<double> rounds = measure_rounds(args.seconds, [&] {
    last = serve::run_service(platform, in.scene.cube, in.trace, w.service);
    if (n_rounds++ == 0) {
      rss_mb = peak_rss_mb();
      first = last;
    } else {
      repeatable = repeatable && same_result(first, last);
    }
  });
  const std::size_t requests = in.trace.size();
  report.attempted(n_rounds * requests);
  const std::size_t refused =
      last.schedule.records.size() - last.schedule.completed();
  report.failed(n_rounds * refused);
  report.check(repeatable, "a later round's schedule or outputs differ from "
                           "the first round's",
               n_rounds * requests);
  check_schedule(w, in.trace, last, n_rounds, report);
  const std::vector<sched::JobAlgorithm> checked = {
      sched::JobAlgorithm::kAtdca, sched::JobAlgorithm::kUfcls};
  const double host_s = median(rounds);
  if (!args.trace) {
    (void)solo_sample(in.trace, in.scene.cube, last, checked, args.seed,
                      n_rounds, report);
    std::vector<double> response;
    for (const sched::JobRecord& r : last.schedule.records) {
      if (r.completed()) response.push_back(r.finish_s - r.arrival_s);
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("host_s", host_s, "s");
    report.metric("analyses_per_host_s",
                  static_cast<double>(last.schedule.completed()) / host_s,
                  "1/s");
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.metric("virt_response_p50_s",
                  response.empty() ? 0.0 : nearest_rank(response, 0.50), "s");
    report.metric("virt_response_p95_s",
                  response.empty() ? 0.0 : nearest_rank(response, 0.95), "s");
    report.metric("virt_makespan_s", last.schedule.makespan_s, "s");
    return;
  }

  // -- traced round ----------------------------------------------------------
  const TracedScope traced;
  const Inputs again = make_inputs(w, args.seed);
  const double t0 = cpu_seconds();
  serve::ServiceResult result;
  {
    Span span("serve.run_service");
    result = serve::run_service(platform, in.scene.cube, in.trace, w.service);
  }
  const double traced_s = cpu_seconds() - t0;
  const auto snap = hprs::obs::Metrics::instance().snapshot();

  std::vector<serve::RateRejection> rejected;
  const double admission_s = median_seconds(3, [&] {
    Span span("serve.admission");
    auto admitted =
        serve::apply_rate_limits(in.trace, w.service.quotas, rejected);
    serve::stamp_batch_keys(admitted, /*scene_uid=*/1);
  });
  const double estimate_s = median_seconds(3, [&] {
    Span span("sched.estimate_job");
    std::vector<int> members;
    for (const sched::JobSpec& spec : in.trace) {
      members.resize(static_cast<std::size_t>(spec.ranks));
      for (int r = 0; r < spec.ranks; ++r) members[r] = r + 1;
      (void)sched::estimate_job(platform, members, spec, in.scene.cube);
    }
  });
  const std::vector<sched::JobAlgorithm> all_algs = {
      sched::JobAlgorithm::kAtdca, sched::JobAlgorithm::kUfcls,
      sched::JobAlgorithm::kPct, sched::JobAlgorithm::kMorph};
  const auto cell_ms = solo_sample(in.trace, in.scene.cube, result, all_algs,
                                   args.seed, n_rounds, report);

  const std::size_t riders = result.batches.riders;
  const std::size_t completed = result.schedule.completed();
  std::size_t pct_gangs = 0;
  for (std::size_t i = 0; i < in.trace.size(); ++i) {
    const sched::JobRecord& r = result.schedule.records[i];
    pct_gangs += r.completed() && r.batched_into == 0 &&
                         in.trace[i].algorithm == sched::JobAlgorithm::kPct
                     ? 1
                     : 0;
  }
  const auto per_request = [&](double s) {
    return s * 1e6 / static_cast<double>(requests);
  };
  report.metric("hsi.scene_gen_s", again.scene_s, "s");
  report.metric("serve.trace_gen_s", again.trace_s, "s");
  report.metric("serve.admission_us_per_request", per_request(admission_s),
                "us");
  report.metric("serve.riders", static_cast<double>(riders), "count");
  report.metric("serve.batch_hit_ratio",
                static_cast<double>(riders) / static_cast<double>(requests),
                "ratio");
  report.metric("sched.gangs_run", static_cast<double>(completed - riders),
                "count");
  report.metric("sched.estimate_us", per_request(estimate_s), "us");
  report.metric("sched.queue_depth_max",
                queue_depth_max(result.schedule.records), "count");
  report.metric("sched.virt_utilization", result.schedule.utilization, "ratio");
  add_core_metrics(report, cell_ms);
  const hprs::linalg::Matrix cov = band_covariance(in.scene.cube);
  add_linalg_metrics(report, time_kernels(in.scene.cube),
                     probe_eigen(cov, report, 3), pct_gangs, traced_s, snap);
  add_vmpi_metrics(report, snap);
  report.metric("obs.trace_overhead_s", traced_s - host_s, "s");
  report.check(write_span_file(args), "span file could not be written");
}

}  // namespace

void run_serve_diurnal(const Args& args, Report& report) {
  run_serve(diurnal_workload(args.trace_seed), args, report);
}

void run_detect_flood(const Args& args, Report& report) {
  run_serve(flood_workload(args.trace_seed), args, report);
}

}  // namespace perfbench
