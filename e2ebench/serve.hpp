#pragma once
// The served side of bench_e2e: workload definitions, seeded operands, the
// cold start, one checked request on each API path, and the two closed
// loops (one client; several tenants on api::StreamPool).

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/catrsm.hpp"
#include "api/stream_pool.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/kernel/pool.hpp"
#include "la/norms.hpp"
#include "report.hpp"

namespace catrsm::bench {

using la::index_t;

/// One request shape served by a workload.
struct Shape {
  api::OpDesc desc;
  bool spd = false;            // A is SPD (Cholesky solve), else lower-triangular
  bool fixed_operand = false;  // one A serves every request
  bool resident = false;       // upload -> execute_dist -> download, else execute
};

struct Workload {
  const char* name;
  int p;
  bool streams;  // tenants on one machine behind api::StreamPool
  std::vector<Shape> shapes;
};

// Why each workload exists (see README.md for the full table):
//  serve_small_p64  the read path: L resident, the diagonal-inverse cache
//                   hits on every request and simulator overhead dominates.
//  solve_large_p4   rank-local compute dominates; carries the matrix-path
//                   driver overhead (scatter of L, output collect, residual).
//  spd_pipeline_p16 the write path: a new SPD A per request, nothing cached.
//  streams_mixed_p8 the only workload whose runs overlap on the scheduler;
//                   covers k~n, k>>n and n>>k in one tenant mix. Each shape
//                   is one tenant (Context) and StreamPool admits tenants
//                   round-robin, so (96,16), served by two tenants, gets
//                   twice the share of each other shape: a 2:1:1:1 mix.
inline std::vector<Workload> workloads() {
  using api::cholesky_solve_op;
  using api::trsm_op;
  return {
      {"serve_small_p64", 64, false, {{trsm_op(96, 48), false, true, true}}},
      {"solve_large_p4", 4, false, {{trsm_op(1024, 256), false, true, false}}},
      {"spd_pipeline_p16", 16, false,
       {{cholesky_solve_op(512, 64), true, false, false}}},
      {"streams_mixed_p8", 8, true,
       {{trsm_op(96, 16), false, false, true},
        {trsm_op(96, 16), false, false, true},
        {trsm_op(16, 512), false, false, true},
        {trsm_op(256, 8), false, false, true},
        {trsm_op(128, 128), false, false, true}}},
  };
}

/// Requests each streams tenant keeps outstanding.
constexpr int kTenantDepth = 2;

constexpr double kResidualLimit = 1e-12;

/// Pre-generated operands of one shape. A request uses one entry with one
/// element overwritten by a value unique to that request, so no two
/// requests share operand bytes — a content-keyed cache cannot hit where a
/// workload means to miss — while generation stays outside every timed
/// span.
class Operands {
 public:
  struct Req {
    const la::Matrix& a;
    const la::Matrix& b;
  };

  Operands(const Shape& s, std::uint64_t seed, int entries)
      : seed_(seed), fixed_(s.fixed_operand) {
    const index_t n = s.desc.n;
    const index_t k = s.desc.k;
    const int na = s.fixed_operand ? 1 : entries;
    for (int i = 0; i < na; ++i) {
      const std::uint64_t g = seed * 1000003ull + 7919ull * i + 1;
      as_.push_back(s.spd ? la::make_spd(g, n) : la::make_lower_triangular(g, n));
      a00_.push_back(as_.back()(0, 0));
    }
    for (int i = 0; i < entries; ++i)
      bs_.push_back(la::make_rhs(seed * 1000003ull + 7919ull * i + 2, n, k));
  }

  int entries() const { return static_cast<int>(bs_.size()); }
  const la::Matrix& fixed_a() const { return as_.front(); }

  /// Make entry `e` request r's operands and return them.
  Req prepare(int e, long r) {
    const std::size_t i = static_cast<std::size_t>(e) % bs_.size();
    const std::size_t ia = fixed_ ? 0 : i;
    const double u = 0.5 * (la::element_hash(seed_, r, 1) + 1.0);  // [0, 1]
    // Raising a diagonal entry keeps L nonsingular and A positive definite.
    if (!fixed_) as_[ia](0, 0) = a00_[ia] + u;
    bs_[i](0, 0) = la::element_hash(seed_, r, 2);
    return Req{as_[ia], bs_[i]};
  }

 private:
  std::uint64_t seed_;
  bool fixed_;
  std::vector<la::Matrix> as_;
  std::vector<double> a00_;
  std::vector<la::Matrix> bs_;
};

/// Relative residual of a solution, as the matrix path reports it.
inline double residual_of(const Shape& s, const la::Matrix& a,
                          const la::Matrix& b, const la::Matrix& x) {
  if (!s.spd) return la::trsm_residual(a, x, b);
  la::Matrix r = la::matmul(a, x);
  r.sub(b);
  return la::frobenius_norm(r) /
         (la::frobenius_norm(a) * la::frobenius_norm(x) +
          la::frobenius_norm(b) + 1e-300);
}

/// Attempted / failed request counts and the worst residual seen.
struct Checks {
  long attempted = 0;
  long failed = 0;
  double max_residual = 0.0;
  double cpu_ms = 0.0;  // host CPU time the benchmark spent verifying
  /// Check on the kernel pool, as Plan::execute computes its residual.
  /// The per-layer samples set it so la.residual_ms is the matrix path's.
  bool pooled = false;
  std::vector<std::string> errors;  // the first few failures

  /// The benchmark's own check of a returned solution. Unless `pooled`, it
  /// runs on one thread, so no kernel-pool worker spins on after it, and
  /// its CPU time is booked here rather than to the library.
  double verify(const Shape& s, const la::Matrix& a, const la::Matrix& b,
                const la::Matrix& x) {
    if (pooled) return residual_of(s, a, b, x);
    const double c0 = thread_cpu_ms();
    la::kernel::ThreadPool::set_threads_for_testing(1);
    const double r = residual_of(s, a, b, x);
    la::kernel::ThreadPool::set_threads_for_testing(0);
    cpu_ms += thread_cpu_ms() - c0;
    return r;
  }

  bool fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
    return false;
  }
  /// Count one request and check its residual.
  bool check(double residual) {
    ++attempted;
    if (std::isfinite(residual)) max_residual = std::max(max_residual, residual);
    if (!(residual <= kResidualLimit))
      return fail("residual " + num(residual) + " above " + num(kResidualLimit));
    return true;
  }
  bool throw_failed(const std::exception& e) {
    ++attempted;
    return fail(e.what());
  }
};

/// One shape served from one Context.
struct Lane {
  const Shape* shape = nullptr;
  Operands* ops = nullptr;
  api::Context* ctx = nullptr;
  std::shared_ptr<api::Plan> plan;
  /// Resident fixed operand. Matrix-path lanes upload it only for the
  /// per-layer samples of a traced run.
  api::DistHandle fixed_a;
};

/// A served deployment. Members are destroyed in reverse order: lanes
/// release their handles before the Contexts, the Contexts before a
/// shared machine.
struct Deployment {
  std::unique_ptr<sim::Machine> machine;  // streams: shared by the tenants
  std::vector<std::unique_ptr<api::Context>> ctxs;
  std::vector<Lane> lanes;
};

/// What one served request reports.
struct Served {
  double latency_ms = 0.0;
  // The resident path's calls, timed one by one (0 on the matrix path).
  double upload_ms = 0.0;
  double execute_ms = 0.0;
  double download_ms = 0.0;
  double residual_ms = 0.0;
  sim::RunStats stats;
  sim::Cost cost;              // "algorithm" phase, max over ranks
  sim::Cost redistribute;      // automatic layout transitions (resident path)
  double collect_words = 0.0;  // "output-collect" phase (matrix path)
};

/// Serve one request on the resident path — upload(s) -> execute_dist ->
/// download — and check its solution. A fixed operand that is not yet
/// resident (a matrix-path lane's per-layer samples) is uploaded first,
/// outside the request.
inline bool serve_resident(Lane& lane, int entry, long r, SpanLog* log,
                           Checks& checks, Served& out) {
  const Shape& s = *lane.shape;
  const Operands::Req op = lane.ops->prepare(entry, r);
  try {
    if (s.fixed_operand && !lane.fixed_a.valid())
      lane.fixed_a = lane.ctx->upload(op.a, lane.plan->input_layout(0));
    la::Matrix x;
    {
      Scope req(log, "request", -1, r);
      const double t0 = now_ms();
      api::DistHandle ha = lane.fixed_a;
      api::DistHandle hb;
      {
        Scope sp(log, "api.upload", req.id(), r);
        if (!ha.valid()) ha = lane.ctx->upload(op.a, lane.plan->input_layout(0));
        hb = lane.ctx->upload(op.b, lane.plan->input_layout(1));
        if (log != nullptr)
          log->resident_peak = std::max(
              log->resident_peak, lane.ctx->machine().handle_store().resident_bytes());
      }
      const double t1 = now_ms();
      api::DistExecResult res;
      {
        Scope sp(log, "api.execute", req.id(), r);
        res = lane.plan->execute_dist(ha, hb);
      }
      const double t2 = now_ms();
      {
        Scope sp(log, "api.download", req.id(), r);
        x = lane.ctx->download(res.x);
      }
      const double t3 = now_ms();
      out.latency_ms = t3 - t0;
      out.upload_ms = t1 - t0;
      out.execute_ms = t2 - t1;
      out.download_ms = t3 - t2;
      out.cost = res.algorithm_cost();
      out.redistribute = res.redistribute_cost();
      out.stats = std::move(res.stats);
    }
    Scope sp(log, "la.residual", -1, r);
    const double t0 = now_ms();
    const double residual = checks.verify(s, op.a, op.b, x);
    out.residual_ms = now_ms() - t0;
    return checks.check(residual);
  } catch (const std::exception& e) {
    return checks.throw_failed(e);
  }
}

/// Serve one request on the matrix path, Plan::execute(A, B), which checks
/// its own residual.
inline bool serve_matrix(Lane& lane, int entry, long r, SpanLog* log,
                         Checks& checks, Served& out) {
  const Operands::Req op = lane.ops->prepare(entry, r);
  try {
    api::ExecResult res;
    {
      Scope req(log, "request", -1, r);
      Scope sp(log, "api.execute", req.id(), r);
      const double t0 = now_ms();
      res = lane.plan->execute(op.a, op.b);
      out.latency_ms = now_ms() - t0;
    }
    out.cost = res.algorithm_cost();
    out.collect_words = res.stats.phase_cost("output-collect").words;
    out.stats = std::move(res.stats);
    return checks.check(res.residual);
  } catch (const std::exception& e) {
    return checks.throw_failed(e);
  }
}

/// Serve one request on the lane's own path.
inline bool serve_one(Lane& lane, int entry, long r, SpanLog* log,
                      Checks& checks, Served& out) {
  return lane.shape->resident ? serve_resident(lane, entry, r, log, checks, out)
                              : serve_matrix(lane, entry, r, log, checks, out);
}

struct ColdStart {
  double seconds = 0.0;
  double plan_ms = 0.0;
  double plan_misses = 0.0;
};

/// New Context(s) -> plan -> persistent uploads -> first request per lane.
inline std::unique_ptr<Deployment> cold_start(const Workload& w,
                                              std::vector<Operands>& ops,
                                              SpanLog* log, Checks& checks,
                                              long& next_r, ColdStart& cs) {
  auto d = std::make_unique<Deployment>();
  cs = ColdStart{};
  const double t0 = now_ms();
  {
    Scope setup(log, "setup", -1, -1);
    if (w.streams) d->machine = std::make_unique<sim::Machine>(w.p);
    for (std::size_t i = 0; i < w.shapes.size(); ++i) {
      d->ctxs.push_back(w.streams ? std::make_unique<api::Context>(*d->machine)
                                  : std::make_unique<api::Context>(w.p));
      Lane lane{&w.shapes[i], &ops[i], d->ctxs.back().get(), nullptr, {}};
      {
        Scope sp(log, "api.plan", setup.id(), -1);
        const double tp = now_ms();
        lane.plan = lane.ctx->plan(lane.shape->desc);
        cs.plan_ms += now_ms() - tp;
      }
      if (lane.shape->fixed_operand && lane.shape->resident) {
        Scope sp(log, "api.upload", setup.id(), -1);
        lane.fixed_a = lane.ctx->upload(ops[i].fixed_a(), lane.plan->input_layout(0));
      }
      d->lanes.push_back(std::move(lane));
    }
    for (Lane& lane : d->lanes) {
      Served first;
      serve_one(lane, 0, next_r++, log, checks, first);
    }
  }
  cs.seconds = (now_ms() - t0) / 1e3;
  for (const auto& c : d->ctxs)
    cs.plan_misses += static_cast<double>(c->cache_stats().misses);
  return d;
}

/// Which samples to keep: the least-stolen quarter, in ascending order of
/// steal rate, extended until the kept samples weigh at least `min_weight`.
/// Steal is time the hypervisor gave this machine's CPUs to other guests;
/// on a shared host it stalls every simulated rank of a run at once and
/// swamps the program's own timing. Samples are chosen by this independent
/// counter, never by their measured values.
inline std::vector<bool> least_stolen(const std::vector<double>& rates,
                                      const std::vector<double>& weights,
                                      double min_weight) {
  std::vector<std::size_t> order(rates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return rates[x] < rates[y]; });
  std::vector<bool> keep(rates.size(), false);
  const std::size_t quarter = (rates.size() + 3) / 4;
  double weight = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i >= quarter && weight >= min_weight) break;
    keep[order[i]] = true;
    weight += weights[order[i]];
  }
  return keep;
}

/// What a served loop measured. The loop is cut into slices of at least
/// kSliceMs and kSliceRequests completions; each slice records its steal.
struct LoopStats {
  struct Slice {
    double wall_ms = 0.0;
    double busy_ms = 0.0;  // wall time with at least one request outstanding
    double cpu_ms = 0.0;   // process CPU time, less the benchmark's checks
    long steal = 0;        // steal ticks during the slice
    std::size_t first = 0;  // its latencies: latencies_ms[first, first + count)
    std::size_t count = 0;
  };
  std::vector<double> latencies_ms;  // successful requests, completion order
  std::vector<Slice> slices;
  std::vector<long> completions;  // successful requests per lane: the served mix
  long requests = 0;           // attempted in the loop
  double collect_words = 0.0;  // summed over successful requests

  /// The least-stolen slices holding at least `min_requests` requests.
  struct Kept {
    std::vector<double> latencies_ms;
    double busy_ms = 0.0;
    double cpu_ms = 0.0;
  };
  Kept least_stolen_slices(double min_requests) const {
    std::vector<double> rates, counts;
    for (const Slice& s : slices) {
      rates.push_back(static_cast<double>(s.steal) / std::max(s.wall_ms, 1e-9));
      counts.push_back(static_cast<double>(s.count));
    }
    const std::vector<bool> keep = least_stolen(rates, counts, min_requests);
    Kept k;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      if (!keep[i]) continue;
      const Slice& s = slices[i];
      k.latencies_ms.insert(k.latencies_ms.end(),
                            latencies_ms.begin() + static_cast<long>(s.first),
                            latencies_ms.begin() + static_cast<long>(s.first + s.count));
      k.busy_ms += s.busy_ms;
      k.cpu_ms += s.cpu_ms;
    }
    return k;
  }
};

constexpr double kSliceMs = 250.0;
constexpr std::size_t kSliceRequests = 3;

/// Records completions into LoopStats slices.
class Slicer {
 public:
  /// `busy_is_wall`: requests overlap (streams), so a slice is busy for its
  /// whole wall time; otherwise busy time is the sum of latencies.
  Slicer(LoopStats& st, const Checks& checks, bool busy_is_wall)
      : st_(st), checks_(checks), busy_is_wall_(busy_is_wall) {
    open();
  }
  void completed(double latency_ms) {
    st_.latencies_ms.push_back(latency_ms);
    ++cur_.count;
    if (!busy_is_wall_) cur_.busy_ms += latency_ms;
    if (now_ms() - start_ >= kSliceMs && cur_.count >= kSliceRequests) {
      close();
      open();
    }
  }
  void finish() {
    if (cur_.count > 0) close();
  }

 private:
  void open() {
    cur_ = LoopStats::Slice{};
    cur_.first = st_.latencies_ms.size();
    start_ = now_ms();
    steal0_ = steal_ticks();
    cpu0_ = process_cpu_ms() - checks_.cpu_ms;
  }
  void close() {
    cur_.wall_ms = now_ms() - start_;
    if (busy_is_wall_) cur_.busy_ms = cur_.wall_ms;
    cur_.steal = steal_ticks() - steal0_;
    cur_.cpu_ms = process_cpu_ms() - checks_.cpu_ms - cpu0_;
    st_.slices.push_back(cur_);
  }

  LoopStats& st_;
  const Checks& checks_;
  bool busy_is_wall_;
  LoopStats::Slice cur_;
  double start_ = 0.0;
  long steal0_ = 0;
  double cpu0_ = 0.0;
};

/// Loop bounds: at least `seconds` and `min_requests`, but no submission
/// after `end_ms` (on the now_ms() clock).
struct LoopBounds {
  double seconds;
  long min_requests;
  double end_ms;
  bool open(double start_ms, long done) const {
    const double now = now_ms();
    if (now >= end_ms) return false;
    return now - start_ms < 1e3 * seconds || done < min_requests;
  }
};

constexpr long kMaxFailures = 50;

/// Per-lane modeled-cost determinism: every request of one shape must
/// charge exactly the same max-over-ranks S/W/F.
class CostGuard {
 public:
  explicit CostGuard(std::size_t lanes) : first_(lanes) {}
  void observe(std::size_t lane, const sim::Cost& c, Checks& checks) {
    auto& f = first_[lane];
    if (!f) {
      f = c;
    } else if (f->msgs != c.msgs || f->words != c.words || f->flops != c.flops) {
      checks.fail("modeled cost drift on lane " + std::to_string(lane));
    }
  }

 private:
  std::vector<std::optional<sim::Cost>> first_;
};

/// One client, one request at a time (closed loop).
inline void serve_closed_loop(Deployment& d, const LoopBounds& bounds,
                              SpanLog* log, Checks& checks, long& next_r,
                              CostGuard& guard, LoopStats& st) {
  Lane& lane = d.lanes.front();
  Slicer slicer(st, checks, false);
  const double start = now_ms();
  while (bounds.open(start, static_cast<long>(st.latencies_ms.size())) &&
         checks.failed < kMaxFailures) {
    Served s;
    const long r = next_r++;
    ++st.requests;
    if (!serve_one(lane, static_cast<int>(r % lane.ops->entries()), r, log,
                   checks, s))
      continue;
    slicer.completed(s.latency_ms);
    ++st.completions[0];
    st.collect_words += s.collect_words;
    guard.observe(0, s.cost, checks);
  }
  slicer.finish();
}

/// Tenants on api::StreamPool, each keeping kTenantDepth requests
/// outstanding; one host thread uploads, submits, downloads and checks.
/// A request's latency runs from its first upload to its download.
inline void serve_streams(Deployment& d, const LoopBounds& bounds,
                          SpanLog* log, Checks& checks, long& next_r,
                          CostGuard& guard, LoopStats& st) {
  struct Pending {
    std::size_t lane;
    int slot;
    long r;
    double t0;
    int req_span;
    int exec_span;
  };
  api::StreamPool pool;
  std::vector<int> tenant;
  for (auto& lane : d.lanes) tenant.push_back(pool.add_tenant(*lane.ctx));
  std::unordered_map<int, Pending> pending;
  Slicer slicer(st, checks, true);
  const double start = now_ms();

  const auto submit = [&](std::size_t li, int slot) {
    Lane& lane = d.lanes[li];
    const long r = next_r++;
    ++st.requests;
    const Operands::Req op = lane.ops->prepare(slot, r);
    const int tid = static_cast<int>(li) * 16 + slot + 1;
    Pending p{li, slot, r, now_ms(), -1, -1};
    if (log != nullptr) p.req_span = log->begin("request", -1, r, tid);
    try {
      api::DistHandle ha, hb;
      {
        Scope sp(log, "api.upload", p.req_span, r, tid);
        ha = lane.ctx->upload(op.a, lane.plan->input_layout(0));
        hb = lane.ctx->upload(op.b, lane.plan->input_layout(1));
      }
      if (log != nullptr) {
        log->resident_peak = std::max(
            log->resident_peak, lane.ctx->machine().handle_store().resident_bytes());
        p.exec_span = log->begin("api.execute", p.req_span, r, tid);
      }
      pending.emplace(pool.submit(tenant[li], lane.plan, ha, hb), p);
    } catch (const std::exception& e) {
      if (log != nullptr) log->end(p.req_span);
      checks.throw_failed(e);
    }
  };

  for (std::size_t li = 0; li < d.lanes.size(); ++li)
    for (int slot = 0; slot < kTenantDepth; ++slot)
      submit(li, slot);

  for (;;) {
    const std::vector<api::StreamPool::Completion> done = pool.wait_some();
    if (done.empty()) break;
    for (const auto& c : done) {
      const auto it = pending.find(c.id);
      if (it == pending.end()) continue;
      const Pending p = it->second;
      pending.erase(it);
      if (log != nullptr) log->end(p.exec_span);
      Lane& lane = d.lanes[p.lane];
      const int tid = static_cast<int>(p.lane) * 16 + p.slot + 1;
      try {
        if (c.error) std::rethrow_exception(c.error);
        la::Matrix x;
        {
          Scope sp(log, "api.download", p.req_span, p.r, tid);
          x = lane.ctx->download(c.result.x);
        }
        const double latency = now_ms() - p.t0;
        if (log != nullptr) log->end(p.req_span);
        // The slot's operands are untouched until its next prepare().
        const Operands::Req op = lane.ops->prepare(p.slot, p.r);
        double residual = 0.0;
        {
          Scope sp(log, "la.residual", -1, p.r, tid);
          residual = checks.verify(*lane.shape, op.a, op.b, x);
        }
        if (checks.check(residual)) {
          slicer.completed(latency);
          ++st.completions[p.lane];
          guard.observe(p.lane, c.result.algorithm_cost(), checks);
        }
      } catch (const std::exception& e) {
        if (log != nullptr) log->end(p.req_span);
        checks.throw_failed(e);
      }
      if (bounds.open(start, static_cast<long>(st.latencies_ms.size())) &&
          checks.failed < kMaxFailures)
        submit(p.lane, p.slot);
    }
  }
  slicer.finish();
}

inline LoopStats serve(const Workload& w, Deployment& d,
                       const LoopBounds& bounds, SpanLog* log, Checks& checks,
                       long& next_r, CostGuard& guard) {
  LoopStats st;
  st.completions.assign(d.lanes.size(), 0);
  if (w.streams)
    serve_streams(d, bounds, log, checks, next_r, guard, st);
  else
    serve_closed_loop(d, bounds, log, checks, next_r, guard, st);
  return st;
}

}  // namespace catrsm::bench
