#include "api/catrsm.hpp"

#include <sstream>

#include "support/check.hpp"

namespace catrsm::api {

const char* op_name(Op op) {
  switch (op) {
    case Op::kTrsm: return "trsm";
    case Op::kTriInv: return "tri-inv";
    case Op::kCholesky: return "cholesky";
    case Op::kCholeskySolve: return "cholesky-solve";
    case Op::kMatmul3D: return "matmul-3d";
    case Op::kMatmul2D: return "matmul-2d";
  }
  return "unknown";
}

OpDesc trsm_op(index_t n, index_t k, TrsmSpec spec) {
  OpDesc d;
  d.op = Op::kTrsm;
  d.n = n;
  d.k = k;
  d.trsm = spec;
  return d;
}

OpDesc tri_inv_op(index_t n) {
  OpDesc d;
  d.op = Op::kTriInv;
  d.n = n;
  return d;
}

OpDesc cholesky_op(index_t n, int grid_q) {
  OpDesc d;
  d.op = Op::kCholesky;
  d.n = n;
  d.trsm.grid_p1 = grid_q;
  return d;
}

OpDesc cholesky_solve_op(index_t n, index_t k, int nblocks) {
  OpDesc d;
  d.op = Op::kCholeskySolve;
  d.n = n;
  d.k = k;
  d.trsm.nblocks = nblocks;
  return d;
}

OpDesc matmul3d_op(index_t m, index_t inner, index_t k) {
  OpDesc d;
  d.op = Op::kMatmul3D;
  d.n = m;
  d.inner = inner;
  d.k = k;
  return d;
}

OpDesc matmul2d_op(index_t n, index_t k) {
  OpDesc d;
  d.op = Op::kMatmul2D;
  d.n = n;
  d.inner = n;
  d.k = k;
  return d;
}

sim::Cost ExecResult::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

namespace {

/// Every field that influences planning or execution, plus the machine
/// identity (p, alpha, beta, gamma) — the cache key of a Plan.
std::string cache_key(const OpDesc& d, int p, const sim::MachineParams& mp) {
  std::ostringstream os;
  os << static_cast<int>(d.op) << '|' << d.n << '|' << d.k << '|' << d.inner
     << '|' << static_cast<int>(d.trsm.uplo) << '|'
     << static_cast<int>(d.trsm.side) << '|' << d.trsm.transpose << '|'
     << d.trsm.force_algorithm << '|'
     << static_cast<int>(d.trsm.algorithm) << '|' << d.trsm.nblocks << '|'
     << d.trsm.grid_p1 << '|' << d.trsm.grid_p2
     << '|' << p << '|' << std::hexfloat
     << mp.alpha << '|' << mp.beta << '|' << mp.gamma;
  return os.str();
}

}  // namespace

Context::Context(int p, sim::MachineParams params,
                 std::size_t plan_cache_capacity)
    : owned_(std::make_unique<sim::Machine>(p, params)),
      machine_(owned_.get()),
      capacity_(plan_cache_capacity) {
  CATRSM_CHECK(capacity_ >= 1, "Context: cache capacity must be positive");
}

Context::Context(sim::Machine& machine, std::size_t plan_cache_capacity)
    : machine_(&machine), capacity_(plan_cache_capacity) {
  CATRSM_CHECK(capacity_ >= 1, "Context: cache capacity must be positive");
}

std::shared_ptr<Plan> Context::plan(const OpDesc& desc) {
  const std::string key = cache_key(desc, nprocs(), params());
  const auto hit = index_.find(key);
  if (hit != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, hit->second);
    return hit->second->second;
  }
  ++stats_.misses;
  std::shared_ptr<Plan> plan(new Plan(*this, desc));
  lru_.emplace_front(key, plan);
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
  return plan;
}

}  // namespace catrsm::api
