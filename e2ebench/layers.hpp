#pragma once
// Per-layer measurements of a traced bench_e2e run, all taken from outside
// the library: each request is split into its public calls and timed call
// by call, one request per shape is recorded by the simulator's trace
// recorder and replayed on a fresh machine, and the la:: kernels are timed
// at the rank-local shapes the tuner chose.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "la/gemm.hpp"
#include "la/kernel/pool.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"
#include "serve.hpp"
#include "sim/check/trace.hpp"

namespace catrsm::bench {

inline double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

/// Single-threaded GF/s of `body` (which performs `flops` per call): each
/// sample repeats the call until it lasts about 2 ms, the median of
/// `samples` samples is reported.
template <class F>
double kernel_gflops(double flops, F&& body, int samples = 7) {
  la::kernel::ThreadPool::set_threads_for_testing(1);
  body();
  double t = now_ms();
  body();
  t = std::max(now_ms() - t, 1e-6);
  const int reps = static_cast<int>(std::clamp(std::ceil(2.0 / t), 1.0, 1e5));
  std::vector<double> per_call;
  for (int s = 0; s < samples; ++s) {
    const double t0 = now_ms();
    for (int i = 0; i < reps; ++i) body();
    per_call.push_back((now_ms() - t0) / reps);
  }
  la::kernel::ThreadPool::set_threads_for_testing(0);
  return flops / (median_of(per_call) * 1e6);
}

/// The calibration probe: single-threaded la::gemm at n = 512, median of
/// 25 calls (single-core rate swings by 2x on a shared host, so one short
/// burst says little).
inline double calibration_gflops() {
  const index_t n = 512;
  const la::Matrix a = la::make_dense(1, n, n);
  const la::Matrix b = la::make_dense(2, n, n);
  la::Matrix c(n, n);
  return kernel_gflops(la::gemm_flops(n, n, n),
                       [&] { la::gemm(1.0, a, b, 0.0, c); }, 25);
}

/// Per-lane layer numbers; the workload reports their mean over lanes.
struct LaneLayers {
  double upload_ms = 0.0;
  double download_ms = 0.0;
  double execute_dist_ms = 0.0;
  double residual_ms = 0.0;
  double driver_overhead_ms = 0.0;
  double replay_ms = 0.0;
  double p2p_events = 0.0;
  double coll_calls = 0.0;
  double coll_words = 0.0;
  double coll_family[std::size(kCollFamilies)] = {};
  double words_total = 0.0;
  double redistribute_words = 0.0;
  double max_rank_flops = 0.0;
  sim::RunStats stats;
};

constexpr int kSamples = 5;

/// Driver overhead, call-by-call timings and the replayed trace of one lane.
/// The residual is timed on the kernel pool, as the matrix path computes it.
inline LaneLayers measure_lane(Lane& lane, long& next_r, SpanLog* log,
                               Checks& checks) {
  LaneLayers out;
  const int entries = lane.ops->entries();
  const auto request = [&](auto serve, Served& s) {
    const long r = next_r++;
    return serve(lane, static_cast<int>(r % entries), r, log, checks, s);
  };
  // Matrix path first, then the resident path: the iterative plan's
  // diagonal-inverse cache keys the two paths differently, so each block
  // starts with one untimed warm-up request.
  std::vector<double> matrix_ms;
  for (int i = 0; i <= kSamples; ++i) {
    Served s;
    if (request(serve_matrix, s) && i > 0) matrix_ms.push_back(s.latency_ms);
  }
  checks.pooled = true;
  std::vector<double> up, ex, down, res;
  for (int i = 0; i <= kSamples; ++i) {
    Served s;
    if (!request(serve_resident, s) || i == 0) continue;
    up.push_back(s.upload_ms);
    ex.push_back(s.execute_ms);
    down.push_back(s.download_ms);
    res.push_back(s.residual_ms);
  }
  out.upload_ms = median_of(up);
  out.execute_dist_ms = median_of(ex);
  out.download_ms = median_of(down);
  out.residual_ms = median_of(res);
  out.driver_overhead_ms = median_of(matrix_ms) -
                           (out.upload_ms + out.execute_dist_ms +
                            out.download_ms + out.residual_ms);

  // One request through the simulator's trace recorder, replayed on a
  // fresh machine. Replay re-sends every recorded payload and hashes it,
  // so its time bounds the transport's share of execute_dist from above.
  sim::Machine& m = lane.ctx->machine();
  Served traced;
  m.set_tracing(true, true);
  const bool ok = request(serve_resident, traced);
  checks.pooled = false;
  try {
    if (!ok) throw Error("traced request failed");
    const sim::check::Trace trace = m.take_trace();
    m.set_tracing(false);
    for (const auto& rank : trace.events)
      for (const auto& ev : rank) {
        using sim::check::EventKind;
        if (ev.kind == EventKind::kSend || ev.kind == EventKind::kRecv ||
            ev.kind == EventKind::kShift)
          out.p2p_events += 1.0;
        if (ev.kind == EventKind::kCollEnter) {
          out.coll_calls += 1.0;
          out.coll_words += static_cast<double>(ev.words);
          if (ev.peer >= 0 &&
              static_cast<std::size_t>(ev.peer) < std::size(kCollFamilies))
            out.coll_family[ev.peer] += 1.0;
        }
      }
    sim::Machine fresh(trace.p, trace.params);
    std::vector<double> replay;
    for (int i = 0; i <= kSamples; ++i) {
      const double t0 = now_ms();
      sim::check::replay(fresh, trace);
      if (i > 0) replay.push_back(now_ms() - t0);
    }
    out.replay_ms = median_of(replay);
  } catch (const std::exception& e) {
    m.set_tracing(false);
    checks.fail(std::string("trace/replay: ") + e.what());
  }
  out.words_total = traced.stats.total_words();
  out.redistribute_words = traced.redistribute.words;
  out.max_rank_flops = traced.cost.flops;
  out.stats = std::move(traced.stats);
  return out;
}

/// Rank-local (n, k) of a plan: iterative n/p1 x k/(p1 p2), recursive
/// n/pr x k/pc.
inline std::pair<index_t, index_t> local_shape(const api::Plan& plan) {
  const model::Config& c = plan.config();
  const auto ceil_div = [](index_t a, index_t b) {
    return std::max<index_t>(1, (a + b - 1) / std::max<index_t>(1, b));
  };
  const index_t n = plan.desc().n;
  const index_t k = plan.desc().k;
  if (c.algorithm == model::Algorithm::kIterative)
    return {ceil_div(n, c.p1), ceil_div(k, static_cast<index_t>(c.p1) * c.p2)};
  return {ceil_div(n, c.pr), ceil_div(k, c.pc)};
}

/// Single-threaded gemm / trsm_left / tri_inv GF/s at the local shape.
struct KernelRates {
  double gemm = 0.0;
  double trsm_left = 0.0;
  double tri_inv = 0.0;
};

inline KernelRates kernel_rates(index_t n, index_t k) {
  KernelRates out;
  const la::Matrix l = la::make_lower_triangular(3, n);
  const la::Matrix b = la::make_rhs(4, n, k);
  la::Matrix c(n, k);
  out.gemm = kernel_gflops(la::gemm_flops(n, k, n),
                           [&] { la::gemm(1.0, l, b, 0.0, c); });
  la::Matrix x = b;
  // The solve is in place; re-copying B keeps the values from decaying
  // towards subnormals over repeated solves.
  out.trsm_left = kernel_gflops(la::trsm_flops(n, k), [&] {
    x = b;
    la::trsm_left(la::Uplo::kLower, la::Diag::kNonUnit, l, x);
  });
  out.tri_inv = kernel_gflops(la::tri_inv_flops(n), [&] {
    (void)la::tri_inv(la::Uplo::kLower, l);
  });
  return out;
}

}  // namespace catrsm::bench
