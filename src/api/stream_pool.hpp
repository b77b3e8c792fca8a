#pragma once
// api::StreamPool — multi-tenant admission over execution streams.
//
// Several Contexts (tenants) — typically sharing ONE machine — queue
// execute_dist requests; the pool keeps up to max_inflight() of them in
// flight as concurrent simulator streams and admits new work round-robin
// across tenants as streams complete, so one tenant's deep backlog cannot
// starve the others. Completions (results or captured errors) are
// surfaced in completion order through poll()/drain().
//
//   api::StreamPool pool;                       // sim::kMaxStreams wide
//   const int t0 = pool.add_tenant(ctx0);
//   const int t1 = pool.add_tenant(ctx1);
//   pool.submit(t0, plan_a, hl, hb);
//   pool.submit(t1, plan_b, hl2, hb2);
//   for (auto& c : pool.drain())
//     if (!c.error) use(c.result.x);
//
// The pool is a host-side scheduler only: all isolation guarantees
// (bitwise-serial results, per-run stats, fault containment) come from
// the execution streams themselves. Not thread-safe — one pool per host
// thread, like the Contexts it feeds.

#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "api/catrsm.hpp"

namespace catrsm::api {

class StreamPool {
 public:
  /// One finished request. `error` is set (and `result` empty) when the
  /// stream faulted — the exception is captured, never thrown across
  /// poll()/drain(), so one tenant's fault cannot abort another's batch.
  struct Completion {
    int id = -1;
    int tenant = -1;
    DistExecResult result;
    std::exception_ptr error;
  };

  /// The pool is sim::kMaxStreams wide — the machine's own stream cap,
  /// so admission never blocks on it.
  StreamPool() = default;

  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  /// Register a tenant Context (must outlive the pool). Returns its
  /// tenant index.
  int add_tenant(Context& ctx);

  /// Queue plan->execute_dist_async(a, b) for `tenant`; returns a request
  /// id unique within this pool. Admission happens inside poll()/drain().
  int submit(int tenant, std::shared_ptr<Plan> plan, DistHandle a,
             DistHandle b = DistHandle());

  /// Reap every finished in-flight stream, then admit queued requests
  /// round-robin across tenants up to the in-flight cap. Never blocks on
  /// a running stream (admission of a request whose operands an
  /// in-flight run still holds does block until that run completes — the
  /// handle-exclusivity rule).
  std::vector<Completion> poll();

  /// Like poll(), but when nothing has finished yet, block on the oldest
  /// in-flight stream so the call always returns at least one completion
  /// while work is pending. Empty result = the pool is fully drained.
  /// The overlap-friendly serving loop:
  ///   while (!(cs = pool.wait_some()).empty())
  ///     for (auto& c : cs) consume(c);   // runs WHILE other streams fly
  std::vector<Completion> wait_some();

  /// Run wait_some() to exhaustion: blocks until every queued and
  /// in-flight request has completed, returning completions in finish
  /// order.
  std::vector<Completion> drain();

  /// Requests accepted but not yet surfaced as completions.
  std::size_t pending() const;
  int max_inflight() const { return sim::kMaxStreams; }

 private:
  struct Request {
    int id;
    int tenant;
    std::shared_ptr<Plan> plan;
    DistHandle a;
    DistHandle b;
  };
  struct InFlight {
    int id;
    int tenant;
    DistTicket ticket;
  };

  Completion finish(InFlight& f);
  void admit();

  int next_id_ = 0;
  int rr_ = 0;  // next tenant the round-robin cursor offers admission to
  std::vector<Context*> tenants_;
  std::vector<std::deque<Request>> queues_;
  std::vector<InFlight> inflight_;
};

}  // namespace catrsm::api
