#include "api/stream_pool.hpp"

#include <utility>

#include "support/check.hpp"

namespace catrsm::api {

int StreamPool::add_tenant(Context& ctx) {
  tenants_.push_back(&ctx);
  queues_.emplace_back();
  return static_cast<int>(tenants_.size()) - 1;
}

int StreamPool::submit(int tenant, std::shared_ptr<Plan> plan, DistHandle a,
                       DistHandle b) {
  CATRSM_CHECK(tenant >= 0 &&
                   tenant < static_cast<int>(tenants_.size()),
               "StreamPool: unknown tenant");
  CATRSM_CHECK(plan != nullptr, "StreamPool: null plan");
  const int id = next_id_++;
  queues_[static_cast<std::size_t>(tenant)].push_back(
      Request{id, tenant, std::move(plan), std::move(a), std::move(b)});
  return id;
}

StreamPool::Completion StreamPool::finish(InFlight& f) {
  Completion c;
  c.id = f.id;
  c.tenant = f.tenant;
  try {
    c.result = f.ticket.wait();
  } catch (...) {
    c.error = std::current_exception();
  }
  return c;
}

void StreamPool::admit() {
  const int nt = static_cast<int>(tenants_.size());
  if (nt == 0) return;
  // Round-robin across tenants with queued work; the cursor persists
  // across calls so service order stays fair between polls.
  int idle_scans = 0;
  while (static_cast<int>(inflight_.size()) < sim::kMaxStreams &&
         idle_scans < nt) {
    const int t = rr_;
    rr_ = (rr_ + 1) % nt;
    std::deque<Request>& q = queues_[static_cast<std::size_t>(t)];
    if (q.empty()) {
      ++idle_scans;
      continue;
    }
    idle_scans = 0;
    Request req = std::move(q.front());
    q.pop_front();
    // Launch may block briefly when the request's operands are held by
    // an in-flight run (handle exclusivity) — never indefinitely, since
    // marks release the moment that run completes.
    DistTicket ticket = req.plan->execute_dist_async(req.a, req.b);
    inflight_.push_back(InFlight{req.id, req.tenant, std::move(ticket)});
  }
}

std::vector<StreamPool::Completion> StreamPool::poll() {
  std::vector<Completion> out;
  for (std::size_t i = 0; i < inflight_.size();) {
    if (inflight_[i].ticket.done()) {
      out.push_back(finish(inflight_[i]));
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  admit();
  return out;
}

std::vector<StreamPool::Completion> StreamPool::wait_some() {
  for (;;) {
    std::vector<Completion> out = poll();
    if (!out.empty()) return out;
    if (inflight_.empty()) {
      bool queued = false;
      for (const auto& q : queues_) queued |= !q.empty();
      if (!queued) return out;  // fully drained
      continue;                 // admission was capped; poll again
    }
    // Nothing finished yet: block on the oldest stream so the caller
    // always gets a completion to work on without spinning.
    out.push_back(finish(inflight_.front()));
    inflight_.erase(inflight_.begin());
    admit();
    return out;
  }
}

std::vector<StreamPool::Completion> StreamPool::drain() {
  std::vector<Completion> out;
  for (;;) {
    std::vector<Completion> batch = wait_some();
    if (batch.empty()) break;
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  return out;
}

std::size_t StreamPool::pending() const {
  std::size_t n = inflight_.size();
  for (const auto& q : queues_) n += q.size();
  return n;
}

}  // namespace catrsm::api
