// bench_e2e: the end-to-end benchmark of catrsm. It drives the public API
// the way a user does — plan, upload, execute, download — and reports what
// a user waits on (throughput, latency, set-up time, memory) next to what
// the paper models (S, W, F and critical time of the "algorithm" phase).
//
//   bench_e2e --workload <name> --seed <s> [--seconds <t>] [--trace 0|1]
//             [--out <result.json>] [--spans <chrome-trace.json>]
//   bench_e2e --list-metrics
//
// One workload per process, so peak_rss_mb belongs to one workload. Every
// workload is a closed loop driven by one host thread; operands come from
// la:: generators keyed on --seed and are made outside every timed span.
// Every solution is checked (relative residual <= 1e-12) and every request
// of one shape must charge the same modeled cost; any failed check makes
// the run exit 1.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
// that reports the per-layer metrics (see layers.hpp) and writes the spans
// it recorded around each library call as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --out writes the same metrics
// plus timing summaries, the tuner's choices and a host fingerprint.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "la/kernel/kernel.hpp"
#include "layers.hpp"

namespace {

using namespace catrsm;
using namespace catrsm::bench;

#ifndef CATRSM_E2E_BUILD_TYPE
#define CATRSM_E2E_BUILD_TYPE "unknown"
#endif

constexpr int kColdStarts = 21;

/// Operand sets per shape; a streams tenant uses one per outstanding request.
constexpr int kOperandSets = 4;
static_assert(kOperandSets >= kTenantDepth);

/// A run ends within --seconds plus kOverheadS. Set-up, warm-up and the
/// samples after the served loops share the overhead: the loops stop
/// submitting kTailS before the end.
constexpr double kOverheadS = 8.0;
constexpr double kTailS = 3.0;

/// What a run reports besides its metrics.
struct RunInfo {
  std::string extra;   // JSON members appended to the --out object
  std::string config;  // the tuner's choice per shape
  int workers = 0;     // scheduler worker threads
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  double loops_end_ms = 0.0;  // no served loop submits after this (now_ms())
};

int usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload <name> --seed <s> "
               "[--seconds <t>] [--trace 0|1] [--out <file.json>] "
               "[--spans <file.json>]\n       bench_e2e --list-metrics\n";
  return 2;
}

/// Strict numeric parse: the whole string must be consumed.
template <class T>
bool parse_num(const std::string& s, T& out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

void list_metrics() {
  for (const auto& m : end_to_end_metrics())
    std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
  for (const auto& m : per_layer_metrics())
    std::cout << "per_layer " << m.name << " " << m.unit << "\n";
}

/// The scheduler sizes itself from hardware_concurrency, which can count
/// CPUs this process may not run on. Cap workers and kernel threads at the
/// affinity set unless the caller chose them.
bool cap_threads_to_affinity() {
  const int cpus = affinity_cpus();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus <= 0 || hw <= cpus) return false;
  const std::string v = std::to_string(cpus);
  setenv("CATRSM_SIM_WORKERS", v.c_str(), 0);
  setenv("CATRSM_KERNEL_THREADS", v.c_str(), 0);
  return true;
}

std::string config_json(const Deployment& d) {
  std::string out = "[";
  for (const Lane& lane : d.lanes) {
    const model::Config& c = lane.plan->config();
    if (out.size() > 1) out += ", ";
    out += "{\"op\": " + quoted(api::op_name(lane.shape->desc.op)) +
           ", \"n\": " + std::to_string(lane.shape->desc.n) +
           ", \"k\": " + std::to_string(lane.shape->desc.k) +
           ", \"algorithm\": " + quoted(model::algorithm_name(c.algorithm)) +
           ", \"p1\": " + std::to_string(c.p1) +
           ", \"p2\": " + std::to_string(c.p2) +
           ", \"pr\": " + std::to_string(c.pr) +
           ", \"pc\": " + std::to_string(c.pc) +
           ", \"nblocks\": " + std::to_string(c.nblocks) + "}";
  }
  return out + "]";
}

/// Mean of f(lane) over the lanes. A shape served by two lanes (two
/// tenants) counts twice, as it does in the mix.
template <class F>
double lane_mean(const Deployment& d, F&& f) {
  double sum = 0.0;
  for (std::size_t i = 0; i < d.lanes.size(); ++i) sum += f(i);
  return sum / static_cast<double>(d.lanes.size());
}

using Metrics = std::map<std::string, double>;

/// Set-up: kColdStarts cold starts, whose times go to `setup_s`; the last
/// one's deployment is served. A cold start is too short for the steal
/// counter's 10 ms ticks to tell stolen ones apart, so all are kept.
std::unique_ptr<Deployment> set_up(const Workload& w, std::vector<Operands>& ops,
                                   SpanLog* log, Checks& checks, long& next_r,
                                   std::vector<double>& setup_s,
                                   std::vector<double>& plan_ms,
                                   double& plan_misses) {
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kColdStarts; ++i) {
    d.reset();
    ColdStart cs;
    d = cold_start(w, ops, log, checks, next_r, cs);
    setup_s.push_back(cs.seconds);
    plan_ms.push_back(cs.plan_ms);
    plan_misses = cs.plan_misses;
  }
  return d;
}

std::string longs_json(const std::vector<long>& v) {
  std::string out = "[";
  for (const long x : v) out += (out.size() > 1 ? ", " : "") + std::to_string(x);
  return out + "]";
}

/// The untraced run: set-up, warm-up, the served loop, and one resident
/// probe request per shape for the algorithm-phase modeled costs.
void run_end_to_end(const Workload& w, std::vector<Operands>& ops,
                    const Args& args, Checks& checks, Metrics& m,
                    RunInfo& info) {
  long next_r = 0;
  std::vector<double> setup_s, plan_ms;
  double misses = 0.0;
  auto d = set_up(w, ops, nullptr, checks, next_r, setup_s, plan_ms, misses);
  info.config = config_json(*d);
  info.workers = d->ctxs.front()->scheduler().workers();

  CostGuard warm_guard(d->lanes.size());
  serve(w, *d, LoopBounds{0.05 * args.seconds, 3, args.loops_end_ms}, nullptr,
        checks, next_r, warm_guard);
  CostGuard guard(d->lanes.size());
  const LoopStats loop =
      serve(w, *d, LoopBounds{args.seconds, 200, args.loops_end_ms}, nullptr,
            checks, next_r, guard);
  // At least 100 kept requests, so ten lie beyond the p90.
  const LoopStats::Kept kept = loop.least_stolen_slices(100);

  std::vector<Served> probes(d->lanes.size());
  for (std::size_t i = 0; i < d->lanes.size(); ++i)
    serve_resident(d->lanes[i], 0, next_r++, nullptr, checks, probes[i]);

  const Summary lat = summarize(kept.latencies_ms);
  const Summary setup = summarize(setup_s);
  const double served = static_cast<double>(kept.latencies_ms.size());
  m["solves_per_s"] = served / (kept.busy_ms / 1e3);
  m["latency_p50_ms"] = lat.median;
  m["latency_p90_ms"] = lat.p90;
  m["cpu_ms_per_request"] = kept.cpu_ms / served;
  m["setup_s"] = setup.median;
  m["peak_rss_mb"] = peak_rss_mib();
  m["modeled_critical_us"] =
      lane_mean(*d, [&](std::size_t i) { return probes[i].stats.critical_time * 1e6; });
  m["modeled_msgs"] =
      lane_mean(*d, [&](std::size_t i) { return probes[i].cost.msgs; });
  m["modeled_words"] =
      lane_mean(*d, [&](std::size_t i) { return probes[i].cost.words; });
  m["modeled_flops"] =
      lane_mean(*d, [&](std::size_t i) { return probes[i].cost.flops; });
  if (!lat.p90_resolved)
    std::cerr << "bench_e2e: warning: latency p90 has fewer than 10 samples "
                 "beyond it (n = " << lat.n << ")\n";

  long steal = 0;
  std::string slices = "[";
  for (const auto& sl : loop.slices) {
    steal += sl.steal;
    slices += (slices.size() > 1 ? ", [" : "[") + num(sl.wall_ms) + ", " +
              std::to_string(sl.steal) + ", " + std::to_string(sl.count) + ", " +
              num(sl.busy_ms) + ", " + num(sl.cpu_ms) + "]";
  }
  info.extra += ", \"latency_ms\": " + summary_json(lat) +
           ", \"latency_ms_all_slices\": " + summary_json(summarize(loop.latencies_ms)) +
           ", \"slices\": {\"columns\": [\"wall_ms\", \"steal_ticks\", \"requests\", "
           "\"busy_ms\", \"cpu_ms\"], \"rows\": " + slices + "]}" +
           ", \"steal_ticks\": " + std::to_string(steal) +
           ", \"setup_s\": " + summary_json(setup) +
           ", \"requests\": " + std::to_string(loop.requests) +
           ", \"completions_per_lane\": " + longs_json(loop.completions) +
           ", \"max_residual\": " + num(checks.max_residual) +
           ", \"scheduler\": {\"workers\": " + std::to_string(info.workers) +
           ", \"fibers\": " +
           (d->ctxs.front()->scheduler().fibers() ? "true" : "false") +
           ", \"streams\": " +
           std::to_string(d->ctxs.front()->machine().max_streams()) + "}";
  std::cout << w.name << ": " << loop.latencies_ms.size() << " requests, "
            << kept.latencies_ms.size() << " in the least-stolen slices (" << steal
            << " steal ticks in the loop); latency p50 " << lat.median
            << " ms, p90 " << lat.p90 << " ms; setup " << setup.median
            << " s; cpu " << kept.cpu_ms / served << " ms/request; max residual "
            << checks.max_residual << "\n";
  if (w.streams)
    std::cout << w.name << ": completions per tenant "
              << longs_json(loop.completions) << "\n";
}

/// The traced run: an untraced and a traced loop of equal length (their
/// p50 ratio is the tracing overhead), then the per-layer samples.
void run_traced(const Workload& w, std::vector<Operands>& ops,
                const Args& args, Checks& checks, Metrics& m,
                RunInfo& info) {
  SpanLog log;
  long next_r = 0;
  std::vector<double> setup_s, plan_ms;
  double misses = 0.0;
  log.set_stage("setup");
  auto d = set_up(w, ops, &log, checks, next_r, setup_s, plan_ms, misses);
  info.config = config_json(*d);
  info.workers = d->ctxs.front()->scheduler().workers();
  m["model.plan_ms"] = median_of(plan_ms);
  m["api.plan_cache_misses"] = misses;

  const double window = 0.4 * args.seconds;
  CostGuard guard(d->lanes.size());
  serve(w, *d, LoopBounds{0.05 * args.seconds, 3, args.loops_end_ms}, nullptr,
        checks, next_r, guard);
  // The untraced loop gets at most half of the time left for both loops.
  const double plain_end = 0.5 * (now_ms() + args.loops_end_ms);
  const LoopStats plain = serve(w, *d, LoopBounds{window, 20, plain_end}, nullptr,
                                checks, next_r, guard);

  log.set_stage("loop");
  sim::RankScheduler& sched = d->ctxs.front()->scheduler();
  const double runs0 = static_cast<double>(sched.runs());
  std::vector<double> diag0;
  for (const Lane& lane : d->lanes)
    diag0.push_back(static_cast<double>(lane.plan->diag_inversions()));
  const LoopStats traced = serve(w, *d, LoopBounds{window, 20, args.loops_end_ms},
                                 &log, checks, next_r, guard);
  const double n_req = static_cast<double>(std::max<long>(1, traced.requests));
  double diag = 0.0;
  for (std::size_t i = 0; i < d->lanes.size(); ++i)
    diag += static_cast<double>(d->lanes[i].plan->diag_inversions()) - diag0[i];
  m["trace_overhead"] = median_of(traced.latencies_ms) / median_of(plain.latencies_ms);
  m["api.execute_ms"] = median_of(log.durations("api.execute", "loop"));
  m["api.diag_inversions_per_request"] = diag / n_req;
  m["sim.runs_per_request"] = (static_cast<double>(sched.runs()) - runs0) / n_req;
  m["api.output_collect_words"] =
      traced.collect_words /
      static_cast<double>(std::max<std::size_t>(1, traced.latencies_ms.size()));
  m["api.resident_bytes_peak"] = static_cast<double>(log.resident_peak);

  log.set_stage("sample");
  std::vector<LaneLayers> lanes;
  for (Lane& lane : d->lanes) lanes.push_back(measure_lane(lane, next_r, &log, checks));
  const auto mean = [&](auto field) {
    return lane_mean(*d, [&](std::size_t i) { return field(lanes[i]); });
  };
  m["api.upload_ms"] = mean([](const LaneLayers& l) { return l.upload_ms; });
  m["api.download_ms"] = mean([](const LaneLayers& l) { return l.download_ms; });
  m["api.driver_overhead_ms"] =
      mean([](const LaneLayers& l) { return l.driver_overhead_ms; });
  m["la.residual_ms"] = mean([](const LaneLayers& l) { return l.residual_ms; });
  m["sim.replay_ms"] = mean([](const LaneLayers& l) { return l.replay_ms; });
  m["sim.p2p_events_per_request"] =
      mean([](const LaneLayers& l) { return l.p2p_events; });
  m["sim.words_total_per_request"] =
      mean([](const LaneLayers& l) { return l.words_total; });
  m["coll.calls_per_request"] = mean([](const LaneLayers& l) { return l.coll_calls; });
  m["coll.words_per_request"] = mean([](const LaneLayers& l) { return l.coll_words; });
  for (std::size_t f = 0; f < std::size(kCollFamilies); ++f)
    m[std::string("coll.calls.") + kCollFamilies[f]] =
        mean([f](const LaneLayers& l) { return l.coll_family[f]; });
  // Lower-bound estimate of rank-local compute: execute_dist minus an upper
  // bound on the transport's share.
  const double compute =
      mean([](const LaneLayers& l) { return l.execute_dist_ms - l.replay_ms; });
  m["trsm.compute_ms"] = compute;
  m["trsm.local_gflops"] =
      compute > 0.0
          ? mean([](const LaneLayers& l) { return l.max_rank_flops; }) /
                (compute * 1e6)
          : 0.0;
  for (const char* ph : kPhases) {
    const std::string base = std::string("trsm.phase.") + ph;
    m[base + ".msgs"] = mean([ph](const LaneLayers& l) { return l.stats.phase_cost(ph).msgs; });
    m[base + ".words"] = mean([ph](const LaneLayers& l) { return l.stats.phase_cost(ph).words; });
    m[base + ".flops"] = mean([ph](const LaneLayers& l) { return l.stats.phase_cost(ph).flops; });
  }
  m["dist.redistribute_words"] =
      mean([](const LaneLayers& l) { return l.redistribute_words; });

  std::vector<double> empty;
  sim::Machine& machine = d->ctxs.front()->machine();
  for (int i = 0; i < 200; ++i) {
    const double t0 = now_ms();
    machine.run([](sim::Rank&) {});
    empty.push_back((now_ms() - t0) * 1e3);
  }
  m["sim.empty_run_us"] = median_of(empty);

  // The kernels at the heaviest shape's rank-local size (lane 0).
  const auto [nl, kl] = local_shape(*d->lanes.front().plan);
  const KernelRates k = kernel_rates(nl, kl);
  m["la.gemm_gflops"] = k.gemm;
  m["la.trsm_left_gflops"] = k.trsm_left;
  m["la.tri_inv_gflops"] = k.tri_inv;

  if (!args.spans.empty() && !log.write_chrome(args.spans))
    checks.fail("cannot write spans to " + args.spans);
  std::cout << w.name << ": traced p50 " << median_of(traced.latencies_ms)
            << " ms vs untraced " << median_of(plain.latencies_ms)
            << " ms; replay " << m["sim.replay_ms"] << " ms; execute_dist "
            << mean([](const LaneLayers& l) { return l.execute_dist_ms; })
            << " ms; local shape " << nl << "x" << kl << "\n";
}

std::string metrics_json(const std::vector<MetricDef>& defs, const Metrics& m,
                         Checks& checks) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    const auto it = m.find(def.name);
    const double v = it == m.end() ? NAN : it->second;
    if (!std::isfinite(v)) checks.fail("metric " + def.name + " not measured");
    if (out.size() > 1) out += ", ";
    out += quoted(def.name) + ": {\"value\": " + num(v) +
           ", \"unit\": " + quoted(def.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      if (!parse_num(v, args.seed)) return usage("bad --seed " + v);
    } else if (a == "--seconds") {
      if (!parse_num(v, args.seconds) || !(args.seconds > 0.0) ||
          args.seconds > 60.0)
        return usage("--seconds must be in (0, 60]");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (a == "--out") {
      args.out = v;
    } else if (a == "--spans") {
      args.spans = v;
    } else {
      return usage("unknown option " + a);
    }
  }
  const std::vector<Workload> all = workloads();
  const Workload* w = nullptr;
  for (const Workload& c : all)
    if (args.workload == c.name) w = &c;
  if (w == nullptr) return usage("unknown workload '" + args.workload + "'");
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& d : *defs)
      if (!valid_metric_name(d.name)) return usage("bad metric name " + d.name);

  args.loops_end_ms = now_ms() + 1e3 * (args.seconds + kOverheadS - kTailS);
  const bool capped = cap_threads_to_affinity();
  const double calib_start = calibration_gflops();

  std::vector<Operands> ops;
  ops.reserve(w->shapes.size());
  for (std::size_t i = 0; i < w->shapes.size(); ++i)
    ops.emplace_back(w->shapes[i], args.seed * 16 + i, kOperandSets);

  Checks checks;
  Metrics m;
  RunInfo info;
  if (args.trace)
    run_traced(*w, ops, args, checks, m, info);
  else
    run_end_to_end(*w, ops, args, checks, m, info);

  const double calib_end = calibration_gflops();
  m["host.calib_gflops_start"] = calib_start;
  m["host.calib_gflops_end"] = calib_end;
  const bool noisy = std::abs(calib_end / calib_start - 1.0) > 0.10;
  if (noisy)
    std::cerr << "bench_e2e: warning: calibration moved from " << calib_start
              << " to " << calib_end << " GF/s; this run is noisy\n";
  if (info.workers > affinity_cpus())
    std::cerr << "bench_e2e: warning: " << info.workers
              << " scheduler workers exceed the " << affinity_cpus()
              << " CPUs of this process\n";

  const std::string metrics =
      metrics_json(args.trace ? per_layer_metrics() : end_to_end_metrics(), m, checks);
  const bool correct = checks.failed == 0;
  for (const std::string& e : checks.errors) std::cerr << "bench_e2e: FAILED: " << e << "\n";

  if (!args.out.empty()) {
    std::string errors = "[";
    for (const std::string& e : checks.errors)
      errors += (errors.size() > 1 ? ", " : "") + quoted(e);
    std::ofstream f(args.out);
    f << "{\"workload\": " << quoted(w->name) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << checks.attempted
      << ", \"failed\": " << checks.failed << ", \"metrics\": " << metrics
      << info.extra << ", \"config\": " << info.config << ", \"errors\": " << errors
      << "], \"host\": {\"cpu_model\": " << quoted(cpu_model())
      << ", \"affinity_cpus\": " << affinity_cpus()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"scheduler_workers\": " << info.workers
      << ", \"threads_capped_to_affinity\": " << (capped ? "true" : "false")
      << ", \"kernel_backend\": " << quoted(la::kernel::backend_name())
      << ", \"kernel_pool_threads\": "
      << la::kernel::ThreadPool::instance().size()
      << ", \"catrsm_env\": " << catrsm_env_json()
      << ", \"build_type\": " << quoted(CATRSM_E2E_BUILD_TYPE)
      << ", \"compiler\": " << quoted(__VERSION__)
      << ", \"calib_gflops_start\": " << num(calib_start)
      << ", \"calib_gflops_end\": " << num(calib_end)
      << ", \"noisy\": " << (noisy ? "true" : "false") << "}}\n";
    if (!f) {
      std::cerr << "bench_e2e: cannot write " << args.out << "\n";
      return 1;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}
