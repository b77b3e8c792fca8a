// api::Plan — planning, and the one execution path under it. Every entry
// point runs the Program stream_program builds: execute_dist runs it over
// one panel of handles, execute_batch uploads A and every panel and runs
// the whole stream in one Machine::run (TRSM variants reduced host-side to
// the lower-left kernel first), and execute is a batch of one.

#include <cmath>
#include <cstring>
#include <mutex>

#include "api/op_bodies.hpp"
#include "la/gemm.hpp"
#include "la/norms.hpp"
#include "la/trmm.hpp"
#include "mm/mm3d.hpp"
#include "support/check.hpp"
#include "trsm/it_inv_trsm.hpp"

namespace catrsm::api {

using la::Matrix;

namespace {

/// Reverse the rows of a matrix (the J permutation).
Matrix reversed_rows(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j)
      out(i, j) = m(m.rows() - 1 - i, j);
  return out;
}

/// J T J: reverse both index sets. Maps upper triangles to lower ones and
/// vice versa.
Matrix reversed_both(const Matrix& t) {
  const index_t n = t.rows();
  Matrix out(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      out(i, j) = t(n - 1 - i, n - 1 - j);
  return out;
}

/// Relative residual of an SPD solve: ||A X - B|| / (||A|| ||X|| + ||B||).
double spd_residual(const Matrix& a, const Matrix& b, const Matrix& x) {
  Matrix resid = la::matmul(a, x);
  resid.sub(b);
  return la::frobenius_norm(resid) /
         (la::frobenius_norm(a) * la::frobenius_norm(x) +
          la::frobenius_norm(b) + 1e-300);
}

/// Same square shape and the same bytes in the lower triangle, diagonal
/// included: all a lower-left TRSM plan reads of its operand.
bool same_lower(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t i = 0; i < x.rows(); ++i) {
    const index_t row = i * x.cols();
    if (std::memcmp(x.ptr() + row, y.ptr() + row,
                    sizeof(double) * static_cast<std::size_t>(i + 1)) != 0)
      return false;
  }
  return true;
}

/// Relative residual of a right-side solve, ||X op(T) - B||_F /
/// (t_norm ||X||_F + ||B||_F): the product is taken transposed,
/// (X op(T))^T = op(T)^T X^T, a left product of the `opt_uplo` triangle of
/// `opt` = op(T)^T, so only that triangle is read. Its elements are the
/// dense X * op(T)'s, and R = X op(T) - B is summed in R's row order.
double right_residual(la::Uplo opt_uplo, const Matrix& opt, double t_norm,
                      const Matrix& x, const Matrix& b) {
  const Matrix pt = la::trmm(opt_uplo, opt, x.transposed());
  double s = 0.0;
  for (index_t i = 0; i < b.rows(); ++i)
    for (index_t j = 0; j < b.cols(); ++j) {
      const double d = pt(j, i) - b(i, j);
      s += d * d;
    }
  return std::sqrt(s) / (t_norm * la::frobenius_norm(x) +
                         la::frobenius_norm(b) + 1e-300);
}

/// A non-owning pointer to `m`: the recovery source of a handle that dies
/// before the call holding `m` returns, so the upload needs no copy.
std::shared_ptr<const Matrix> borrowed(const Matrix& m) {
  return std::shared_ptr<const Matrix>(std::shared_ptr<const Matrix>(), &m);
}

/// Column count of operand A (the row count of every right-hand side).
index_t inner_dim(const OpDesc& d) {
  return d.op == Op::kMatmul3D || d.op == Op::kMatmul2D ? d.inner : d.n;
}

/// Largest q with q * q <= p: the square subgrid the Cholesky ops run on.
int square_side(int p) {
  int q = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (q > 1 && q * q > p) --q;
  return std::max(q, 1);
}

}  // namespace

// One launched stream program, settled once: the first settle() records
// the outcome — a run that missed the plan's L-only state recorded a
// replica of it for the operand (l_id, l_epoch). A successful run
// attaches that replica to the operand's entry and makes it the plan's; a
// run whose operand was released meanwhile keeps nothing, since no later
// run can name that operand. Every later settle() returns the same
// outcome.
struct DistTicket::Shared {
  std::shared_ptr<Plan> plan;
  Program::AsyncResult async;
  ProgramStats program_stats;
  std::shared_ptr<detail::Replica> records;
  std::uint64_t l_id = 0;
  std::uint64_t l_epoch = 0;

  std::mutex mu;
  bool settled = false;
  Program::Result result;
  std::exception_ptr outcome;

  const Program::Result& settle() {
    std::lock_guard<std::mutex> lock(mu);
    if (!settled) {
      settled = true;
      try {
        result = async.wait();
        if (records != nullptr) {
          const bool kept = records->make_resident();
          std::lock_guard<std::mutex> cache_lock(plan->l_mu_);
          if (plan->config_.algorithm == model::Algorithm::kIterative)
            ++plan->diag_inversions_;
          if (kept) {
            plan->replica_ = std::move(records);
            plan->l_id_ = l_id;
            plan->l_epoch_ = l_epoch;
          }
        }
      } catch (...) {
        outcome = std::current_exception();
      }
      records.reset();  // a failed or orphaned recording keeps nothing
    }
    if (outcome) std::rethrow_exception(outcome);
    return result;
  }
};

Plan::Plan(Context& ctx, OpDesc desc) : ctx_(&ctx), desc_(desc) {
  const int p = ctx.nprocs();
  const index_t n = desc_.n;
  const index_t k = desc_.k;
  switch (desc_.op) {
    case Op::kTrsm: {
      CATRSM_CHECK(n >= 1 && k >= 1, "plan: trsm needs n >= 1 and k >= 1");
      config_ = desc_.trsm.force_algorithm
                    ? model::configure_forced(n, k, p, desc_.trsm.algorithm)
                    : model::configure(n, k, p, ctx.params());
      if (desc_.trsm.nblocks > 0) config_.nblocks = desc_.trsm.nblocks;
      if (desc_.trsm.grid_p1 > 0) {
        config_.p1 = desc_.trsm.grid_p1;
        config_.p2 = std::max(desc_.trsm.grid_p2, 1);
        CATRSM_CHECK(config_.p1 * config_.p1 * config_.p2 <= p,
                     "plan: forced grid does not fit the machine");
      }
      break;
    }
    case Op::kTriInv: {
      CATRSM_CHECK(n >= 1, "plan: tri-inv needs n >= 1");
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(n),
                                       static_cast<double>(p));
      const auto [p1, p2] =
          model::nearest_grid(p, std::sqrt(static_cast<double>(p)));
      config_.p1 = p1;
      config_.p2 = p2;
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted = model::tri_inv_cost(static_cast<double>(n), p1, p2);
      break;
    }
    case Op::kCholesky: {
      CATRSM_CHECK(n >= 1, "plan: cholesky needs n >= 1");
      const int q =
          desc_.trsm.grid_p1 > 0 ? desc_.trsm.grid_p1 : square_side(p);
      CATRSM_CHECK(q >= 1 && q * q <= p,
                   "plan: cholesky grid does not fit the machine");
      config_.algorithm = model::Algorithm::kIterative;
      config_.p1 = q;
      config_.p2 = 1;
      config_.pr = q;
      config_.pc = q;
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(n),
                                       static_cast<double>(q) * q);
      break;
    }
    case Op::kCholeskySolve: {
      CATRSM_CHECK(n >= 1 && k >= 1,
                   "plan: cholesky-solve needs n >= 1 and k >= 1");
      // The factor and both solves run on the largest square subgrid.
      const int q = square_side(p);
      config_.algorithm = model::Algorithm::kIterative;
      config_.p1 = q;
      config_.p2 = 1;
      config_.pr = q;
      config_.pc = q;
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(k),
                                       static_cast<double>(q) * q);
      config_.nblocks = desc_.trsm.nblocks > 0
                            ? desc_.trsm.nblocks
                            : model::it_inv_nblocks(n, k, q * q);
      config_.predicted = model::it_inv_trsm_cost(
          static_cast<double>(n), static_cast<double>(k),
          static_cast<double>(q) * q);
      break;
    }
    case Op::kMatmul3D: {
      CATRSM_CHECK(n >= 1 && desc_.inner >= 1 && k >= 1,
                   "plan: matmul needs positive dimensions");
      const mm::MMGrid g = mm::choose_mm_grid(n, desc_.inner, k, p);
      config_.p1 = g.p1;
      config_.p2 = g.p2;
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted.words =
          mm::mm3d_model_words(n, desc_.inner, k, g.p1, g.p2);
      config_.predicted.flops = 2.0 * static_cast<double>(n) *
                                static_cast<double>(desc_.inner) *
                                static_cast<double>(k) / p;
      break;
    }
    case Op::kMatmul2D: {
      CATRSM_CHECK(n >= 1 && k >= 1,
                   "plan: matmul needs positive dimensions");
      CATRSM_CHECK(desc_.inner == n,
                   "plan: the 2D SUMMA baseline requires a square A");
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted.flops = 2.0 * static_cast<double>(n) *
                                static_cast<double>(n) *
                                static_cast<double>(k) / p;
      break;
    }
  }
}

Layout Plan::input_layout(int slot) const {
  CATRSM_CHECK(slot == 0 || slot == 1,
               "input_layout: ops take at most two operands");
  switch (desc_.op) {
    case Op::kTrsm:
      switch (config_.algorithm) {
        case model::Algorithm::kIterative:
          return slot == 0 ? cyclic_layout(config_.p1, config_.p1)
                           : row_blocked_layout(config_.p1, config_.p2);
        case model::Algorithm::kRecursive:
          return cyclic_layout(config_.pr, config_.pc);
        case model::Algorithm::kTrsm2D: {
          const auto [pr, pc] = dist::balanced_factors(ctx_->nprocs());
          return cyclic_layout(pr, pc);
        }
        case model::Algorithm::kTrsv1D:
          return cyclic_layout(ctx_->nprocs(), 1);
      }
      throw Error("input_layout: unknown algorithm");
    case Op::kTriInv:
      return cyclic_layout(config_.pr, config_.pc);
    case Op::kCholesky:
      return cyclic_layout(config_.p1, config_.p1);
    case Op::kCholeskySolve:
      return slot == 0 ? cyclic_layout(config_.p1, config_.p1)
                       : row_blocked_layout(config_.p1, 1);
    case Op::kMatmul3D:
    case Op::kMatmul2D:
      return cyclic_layout(config_.pr, config_.pc);
  }
  throw Error("input_layout: unknown op");
}

Layout Plan::output_layout() const {
  switch (desc_.op) {
    case Op::kTrsm:
    case Op::kCholeskySolve:
      return input_layout(1);
    case Op::kTriInv:
    case Op::kCholesky:
      return input_layout(0);
    case Op::kMatmul3D:
    case Op::kMatmul2D:
      return cyclic_layout(config_.pr, config_.pc);
  }
  throw Error("output_layout: unknown op");
}

ExecResult Plan::execute(const Matrix& a, const Matrix& b) {
  if (detail::op_arity(desc_.op) == 2) {
    BatchResult r = execute_batch(a, {&b, 1});
    return {std::move(r.xs[0]), std::move(r.stats), r.config,
            r.residuals[0]};
  }
  CATRSM_CHECK(a.rows() == desc_.n && a.cols() == desc_.n,
               "execute: the operand must match the planned n x n shape");
  BatchResult r = run_stream(a, {});
  ExecResult out{std::move(r.xs[0]), std::move(r.stats), r.config, 0.0};
  if (desc_.op == Op::kTriInv) {
    out.residual = la::inv_residual(a, out.x);
  } else {
    // Factorization residual: ||L L^T - A|| / ||A||.
    Matrix llt = la::matmul(out.x, out.x.transposed());
    llt.sub(a);
    out.residual =
        la::frobenius_norm(llt) / (la::frobenius_norm(a) + 1e-300);
  }
  return out;
}

BatchResult Plan::execute_batch(const Matrix& a, std::span<const Matrix> bs) {
  CATRSM_CHECK(detail::op_arity(desc_.op) == 2,
               "execute_batch: tri-inv and cholesky take no right-hand "
               "side — use execute");
  const index_t n = desc_.n;
  const index_t k = desc_.k;
  const index_t inner = inner_dim(desc_);
  const bool right =
      desc_.op == Op::kTrsm && desc_.trsm.side == Side::kRight;
  CATRSM_CHECK(a.rows() == n && a.cols() == inner,
               "execute: the operand must match the planned shape");
  for (const Matrix& b : bs)
    CATRSM_CHECK(right ? b.rows() == k && b.cols() == n
                       : b.rows() == inner && b.cols() == k,
                 "execute: B must match the planned shape (k x n for a "
                 "right-side solve)");
  if (bs.empty()) {
    BatchResult r;
    r.config = config_;
    return r;
  }

  BatchResult r = desc_.op == Op::kTrsm ? run_trsm(a, bs, desc_.trsm)
                                        : run_stream(a, bs);
  r.residuals.reserve(bs.size());
  if (desc_.op == Op::kTrsm) {
    // Every residual reads only the triangle solved, so data kept in the
    // other one (say U beside L in one array) does not enter it.
    const TrsmSpec& spec = desc_.trsm;
    const la::Uplo flipped = spec.uplo == la::Uplo::kLower
                                 ? la::Uplo::kUpper
                                 : la::Uplo::kLower;
    // X op(T) = B is checked through op(T)^T, which is T^T, or T itself
    // when transposed; op(T) X = B through op(T). Either is T or T^T: no
    // copy of T when it is T itself.
    const bool use_t = right == spec.transpose;
    Matrix tt;
    if (!use_t) tt = a.transposed();
    const Matrix& op = use_t ? a : tt;
    const la::Uplo op_uplo = use_t ? spec.uplo : flipped;
    // ||tri(T)||_F: kept beside the operand memo when this plan solved `a`
    // itself (the memo's lower triangle is byte-identical to a's), else
    // summed over the triangle of the matrix the dense check read.
    const bool memoized = !right && !spec.transpose &&
                          spec.uplo == la::Uplo::kLower && keeps_l_state();
    const double t_norm = memoized ? operand_norm_
                          : right  ? la::frobenius_norm(spec.uplo, a)
                                   : la::frobenius_norm(op_uplo, op);
    for (std::size_t i = 0; i < bs.size(); ++i)
      r.residuals.push_back(
          right ? right_residual(op_uplo, op, t_norm, r.xs[i], bs[i])
                : la::trsm_residual(op_uplo, op, t_norm, r.xs[i], bs[i]));
  } else {
    for (std::size_t i = 0; i < bs.size(); ++i)
      r.residuals.push_back(desc_.op == Op::kCholeskySolve
                                ? spd_residual(a, bs[i], r.xs[i])
                                : 0.0);
  }
  return r;
}

BatchResult Plan::run_trsm(const Matrix& t, std::span<const Matrix> bs,
                           const TrsmSpec& spec) {
  const auto each = [&bs](Matrix (*f)(const Matrix&)) {
    std::vector<Matrix> out;
    out.reserve(bs.size());
    for (const Matrix& b : bs) out.push_back(f(b));
    return out;
  };
  const auto transposed = [](const Matrix& m) { return m.transposed(); };

  // --- Normalize right-side solves: X op(T) = B  <=>  op(T)^T X^T = B^T.
  if (spec.side == Side::kRight) {
    TrsmSpec inner = spec;
    inner.side = Side::kLeft;
    inner.transpose = !spec.transpose;
    BatchResult r = run_trsm(t, each(transposed), inner);
    for (Matrix& x : r.xs) x = x.transposed();
    return r;
  }

  // --- Normalize upper operands.
  if (spec.uplo == la::Uplo::kUpper) {
    TrsmSpec inner = spec;
    inner.uplo = la::Uplo::kLower;
    if (spec.transpose) {
      // U^T is already lower-triangular: solve directly with it.
      inner.transpose = false;
      return run_trsm(t.transposed(), bs, inner);
    }
    // U X = B: J U J is lower, X = J * lower_solve(J U J, J B).
    BatchResult r = run_trsm(reversed_both(t), each(reversed_rows), inner);
    for (Matrix& x : r.xs) x = reversed_rows(x);
    return r;
  }

  // --- Lower transposed: X = J * lower_solve(J L^T J, J B).
  if (spec.transpose) {
    TrsmSpec inner = spec;
    inner.transpose = false;
    BatchResult r = run_trsm(reversed_both(t.transposed()),
                             each(reversed_rows), inner);
    for (Matrix& x : r.xs) x = reversed_rows(x);
    return r;
  }

  // The reduced system runs on the lower-left plan of the same shape: the
  // variant fields do not enter the tuner, so its config is this plan's,
  // and a lower-left plan is that plan itself.
  const TrsmSpec& own = desc_.trsm;
  std::shared_ptr<Plan> lower_left = shared_from_this();
  if (own.side != Side::kLeft || own.uplo != la::Uplo::kLower ||
      own.transpose)
    lower_left = ctx_->plan(trsm_op(desc_.n, desc_.k, spec));
  return lower_left->run_stream(t, bs);
}

BatchResult Plan::run_stream(const Matrix& a, std::span<const Matrix> bs) {
  // ONE describe-only realization per panel layout, shared by every
  // upload and download in the batch.
  const int p = ctx_->nprocs();
  std::vector<DistHandle> handles{operand_handle(a)};
  handles.reserve(bs.size() + 1);
  if (!bs.empty()) {
    const Layout lay = input_layout(1);
    const auto d = detail::realize_host(lay, bs[0].rows(), bs[0].cols(), p);
    for (const Matrix& b : bs)
      handles.push_back(ctx_->upload_on(borrowed(b), lay, d));
  }
  DistTicket ticket = launch(handles);
  const Program::Result& run = ticket.s_->settle();

  BatchResult r;
  r.config = config_;
  r.stats = run.stats;
  r.program_stats = ticket.s_->program_stats;
  r.xs.reserve(run.outputs.size());
  const DistHandle& x0 = run.outputs.front();
  const auto dx = detail::realize_host(x0.layout(), x0.rows(), x0.cols(), p);
  for (const DistHandle& x : run.outputs)
    r.xs.push_back(ctx_->download_on(x, dx));
  return r;
}

DistHandle Plan::operand_handle(const Matrix& a) {
  const Layout lay = input_layout(0);
  const auto d = [&] {
    return detail::realize_host(lay, a.rows(), a.cols(), ctx_->nprocs());
  };
  if (!keeps_l_state()) return ctx_->upload_on(borrowed(a), lay, d());
  // A faulted run may have poisoned the memoized blocks: never reuse them.
  if (!operand_.valid() || operand_.poisoned() ||
      !same_lower(*operand_src_, a)) {
    operand_ = DistHandle();  // release the old blocks before the upload
    operand_src_ = std::make_shared<const Matrix>(a);
    operand_norm_ = la::frobenius_norm(la::Uplo::kLower, a);
    operand_ = ctx_->upload_on(operand_src_, lay, d());
  }
  return operand_;
}

sim::Cost BatchResult::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

ExecResult Plan::execute_generated(const Gen& a_gen, const Gen& b_gen,
                                   bool verify) {
  CATRSM_CHECK(desc_.op == Op::kCholeskySolve,
               "execute_generated: only the cholesky-solve op accepts "
               "generator inputs");
  // Generator-fed uploads: no rank ever materializes a global operand.
  DistExecResult d =
      execute_dist(ctx_->upload(a_gen, desc_.n, desc_.n, input_layout(0)),
                   ctx_->upload(b_gen, desc_.n, desc_.k, input_layout(1)));
  ExecResult r{ctx_->download(d.x), std::move(d.stats), config_, 0.0};
  if (verify) {
    // Verification only: materialize the global system once, host-side.
    Matrix a(desc_.n, desc_.n);
    Matrix b(desc_.n, desc_.k);
    for (index_t i = 0; i < desc_.n; ++i) {
      for (index_t j = 0; j < desc_.n; ++j) a(i, j) = a_gen(i, j);
      for (index_t j = 0; j < desc_.k; ++j) b(i, j) = b_gen(i, j);
    }
    r.residual = spd_residual(a, b, r.x);
  }
  return r;
}

bool Plan::keeps_l_state() const {
  return desc_.op == Op::kTrsm && !desc_.trsm.transpose &&
         (config_.algorithm == model::Algorithm::kIterative ||
          config_.algorithm == model::Algorithm::kRecursive);
}

// --- The stream program and its launch ------------------------------------

Program Plan::stream_program(std::size_t panels) {
  const index_t inner = inner_dim(desc_);
  const auto self = shared_from_this();
  Program prog(*ctx_);
  const Program::NodeId na = prog.input(desc_.n, inner);
  if (detail::op_arity(desc_.op) == 1) {
    prog.mark_output(prog.add(self, {na}));
    return prog;
  }
  if (desc_.op != Op::kCholeskySolve) {
    for (std::size_t i = 0; i < panels; ++i) {
      const Program::NodeId nb = prog.input(inner, desc_.k);
      prog.mark_output(prog.add(self, {na, nb}));
    }
    return prog;
  }

  // The Cholesky pipeline: factor, forward solve, reversed backward solve
  // on the q x q subgrid, one Machine::run, no intermediate collects. The
  // forward solves share the run's replica, so the factor's diagonal
  // blocks are inverted once for all of them; the backward solve inverts
  // its own (reversed, transposed) operand. The building-block plans are
  // cache hits after the first call.
  const int q = config_.p1;
  auto factor_plan = ctx_->plan(cholesky_op(desc_.n, q));
  TrsmSpec fwd_spec;
  fwd_spec.force_algorithm = true;
  fwd_spec.algorithm = model::Algorithm::kIterative;
  fwd_spec.nblocks = config_.nblocks;
  fwd_spec.grid_p1 = q;
  fwd_spec.grid_p2 = 1;
  auto fwd_plan = ctx_->plan(trsm_op(desc_.n, desc_.k, fwd_spec));
  TrsmSpec bwd_spec = fwd_spec;
  bwd_spec.transpose = true;
  auto bwd_plan = ctx_->plan(trsm_op(desc_.n, desc_.k, bwd_spec));

  const Program::NodeId nl = prog.add(factor_plan, {na}, "cholesky");
  for (std::size_t i = 0; i < panels; ++i) {
    const Program::NodeId nb = prog.input(desc_.n, desc_.k);
    const Program::NodeId ny = prog.add(fwd_plan, {nl, nb}, "forward-trsm");
    prog.mark_output(prog.add(bwd_plan, {nl, ny}, "backward-trsm"));
  }
  return prog;
}

DistTicket Plan::launch(std::vector<DistHandle> inputs) {
  // ALL validation (variant rules, shapes, machine ownership) and all
  // orchestration (slot load/restore with exception unwinding, grid
  // subsetting, redistribute-on-mismatch, output materialization) live in
  // Program::add/run_async — one implementation. run_async snapshots the
  // DAG, so the local Program may die while the stream flies.
  auto sh = std::make_shared<DistTicket::Shared>();
  sh->plan = shared_from_this();
  sh->l_id = inputs[0].id();
  sh->l_epoch = inputs[0].epoch();
  sim::HandleStore& store = ctx_->machine().handle_store();
  std::shared_ptr<detail::Replica> replica;
  if (keeps_l_state()) {
    std::lock_guard<std::mutex> lock(l_mu_);
    if (replica_ != nullptr && l_id_ == sh->l_id && l_epoch_ == sh->l_epoch) {
      replica = replica_;
    } else {
      replica = std::make_shared<detail::Replica>(store, sh->l_id,
                                                  ctx_->nprocs());
      sh->records = replica;
    }
  } else if (desc_.op == Op::kCholeskySolve) {
    replica = std::make_shared<detail::Replica>(store);
  }
  Program prog = stream_program(inputs.size() - 1);
  sh->async = prog.run_async(inputs, std::move(replica));
  sh->program_stats = prog.stats();
  return DistTicket(std::move(sh));
}

DistExecResult Plan::execute_dist(const DistHandle& a, const DistHandle& b) {
  return execute_dist_async(a, b).wait();
}

DistTicket Plan::execute_dist_async(const DistHandle& a,
                                    const DistHandle& b) {
  CATRSM_CHECK(a.valid(), "execute_dist: operand handle is empty");
  if (detail::op_arity(desc_.op) == 1) return launch({a});
  CATRSM_CHECK(b.valid(), "execute_dist: op needs a second operand handle");
  return launch({a, b});
}

bool DistTicket::done() const {
  CATRSM_CHECK(s_ != nullptr, "DistTicket: empty ticket");
  return s_->async.done();
}

DistExecResult DistTicket::wait() {
  CATRSM_CHECK(s_ != nullptr, "DistTicket: empty ticket");
  const Program::Result& r = s_->settle();
  DistExecResult out;
  out.x = r.outputs[0];
  out.stats = r.stats;
  out.config = s_->plan->config();
  return out;
}

}  // namespace catrsm::api
