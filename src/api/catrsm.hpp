#pragma once
// The handle-based front door of catrsm: plan once, execute many times.
//
// A Context owns a simulated machine (or borrows an existing one) plus an
// LRU cache of Plans keyed on (op, shape, p, operation options, machine
// parameters). A Plan is a frozen configuration — the Section VIII regime
// classification, algorithm choice, grid factorization and block counts
// are decided exactly once, at plan time — plus reusable execution state:
// grid membership and a replica of what the phases that read only L
// produce, recorded by the first execute against an operand and replayed
// by every further solve against the same matrix. The iterative TRSM
// records Ltilde (the operand with its diagonal blocks inverted), the
// recursive one the blocks of L it gathers (the FFTW / cuBLAS
// plan-and-execute pattern the paper's a-priori cost analysis enables).
//
//   catrsm::api::Context ctx(/*p=*/64);
//   auto plan = ctx.plan(catrsm::api::trsm_op(n, k));
//   auto r1 = plan->execute(l, b1);        // inverts the diagonal blocks
//   auto r2 = plan->execute(l, b2);        // reuses them
//   auto rs = plan->execute_batch(l, bs);  // a whole panel stream, one run
//
// Supported operations: TRSM in all BLAS variants (uplo / side /
// transpose) over all four distributed algorithms, triangular inversion,
// the fully distributed Cholesky factor + two-solve pipeline, and 3D / 2D
// matrix multiplication.
//
// Beyond the matrix-in / matrix-out path, operands can be made RESIDENT:
// Context::upload scatters a matrix once into per-rank storage that
// survives Machine::run (sim::HandleStore), Plan::execute_dist consumes
// and produces such DistHandles with ZERO per-execute redistribution
// (a required-layout mismatch inserts one dist::redistribute
// automatically), and api::Program chains several plans through one
// simulated run with no intermediate host collects:
//
//   auto hl = ctx.upload(l, plan->input_layout(0));
//   for (auto& b : panels) {
//     auto hb = ctx.upload(b, plan->input_layout(1));
//     auto hx = plan->execute_dist(hl, hb).x;   // no scatter, no collect
//     la::Matrix x = ctx.download(hx);
//   }
//
// EXECUTION STREAMS: the _async variants (Plan::execute_dist_async,
// Program::run_async) launch the simulated run and return a future-like
// ticket immediately; up to sim::kMaxStreams (4) runs overlap on the
// machine's shared worker pool (api::StreamPool in stream_pool.hpp
// round-robins whole request queues across several Contexts).
// Concurrent streams produce bitwise the same results as the same calls
// issued serially: two runs touching the same handle are serialized (the
// later launch blocks until the earlier run completes), and per-run
// virtual clocks keep every RunStats identical to its serial
// counterpart.
//
// Lifetime: a Plan must not outlive the Context that created it (and a
// borrowed machine must outlive both); a DistHandle must not outlive its
// Context either — its storage lives in the machine. Handles are not
// thread-safe; one Context per client thread (tickets may be waited from
// that same thread only).

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"
#include "la/trsm.hpp"
#include "model/tuning.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace catrsm::dist {
class Distribution;
}  // namespace catrsm::dist

namespace catrsm::api {

using la::index_t;

namespace detail {
struct Replica;
}  // namespace detail

enum class Op {
  kTrsm,           // op(T) X = B (left) or X op(T) = B (right)
  kTriInv,         // X = L^-1
  kCholesky,       // A = L L^T — the factor alone (program building block)
  kCholeskySolve,  // A = L L^T; L Y = B; L^T X = Y — fully distributed
  kMatmul3D,       // C = A * X on a p1 x p1 x p2 grid (Section III)
  kMatmul2D,       // C = A * X via 2D SUMMA (baseline)
};

const char* op_name(Op op);

/// Which side the triangular operand acts on: T X = B or X T = B.
enum class Side { kLeft, kRight };

/// BLAS-style variant selection plus tuning overrides for a TRSM plan.
struct TrsmSpec {
  /// Triangle actually stored in the operand (upper solves reduce to the
  /// lower kernel via the index-reversal identity: J U J is lower).
  la::Uplo uplo = la::Uplo::kLower;
  /// Solve with the transpose of the operand (T^T X = B) — the second
  /// half of a Cholesky solve.
  bool transpose = false;
  Side side = Side::kLeft;
  /// Override the automatic algorithm choice.
  bool force_algorithm = false;
  model::Algorithm algorithm = model::Algorithm::kIterative;
  /// Override the diagonal block count (iterative).
  int nblocks = 0;
  /// Override the processor grid (iterative: p1 x p1 x p2; also the square
  /// side for kCholesky). 0 = derive from the machine size. Programs use
  /// this to run an op on a subgrid of a larger machine — e.g. the
  /// Cholesky pipeline's solves on its q x q subgrid.
  int grid_p1 = 0;
  int grid_p2 = 0;
};

/// What to plan. (n, k) is the shape of the normalized lower-left kernel:
/// n is the triangular dimension, k the number of right-hand-side columns
/// (for side == kRight that is the number of B *rows*). For matmul ops,
/// A is n x inner and X is inner x k.
struct OpDesc {
  Op op = Op::kTrsm;
  index_t n = 0;
  index_t k = 0;
  index_t inner = 0;
  TrsmSpec trsm;
};

/// Convenience descriptor builders.
OpDesc trsm_op(index_t n, index_t k, TrsmSpec spec = {});
OpDesc tri_inv_op(index_t n);
OpDesc cholesky_op(index_t n, int grid_q = 0);
OpDesc cholesky_solve_op(index_t n, index_t k, int nblocks = 0);
OpDesc matmul3d_op(index_t m, index_t inner, index_t k);
OpDesc matmul2d_op(index_t n, index_t k);

/// Element generator over GLOBAL indices: pure functions of (i, j), so a
/// rank can materialize exactly the entries it owns.
using Gen = std::function<double(index_t, index_t)>;

/// A resident operand was touched by a faulted run (its per-rank blocks
/// may be partially rewritten) and has not been repaired. Thrown by
/// Context::download, Plan::execute_dist, and Program::run when handed a
/// poisoned handle, and by Context::repair when the handle has no
/// recorded source to re-upload from.
class PoisonedOperandError : public Error {
 public:
  using Error::Error;
};

// ---------------------------------------------------------------------------
// Resident distributed operands

/// Canonical data layouts a resident operand can live in. Realized over
/// the machine's world ranks deterministically, so two equal descriptors
/// always denote the exact same element->rank map.
enum class LayoutKind {
  /// Elementwise cyclic on a p1 x p2 face over world ranks 0..p1*p2-1
  /// (column-major: world rank gi + p1 * gj holds rows ≡ gi (mod p1),
  /// cols ≡ gj (mod p2)). What every solver's triangular operand uses.
  kCyclic2D,
  /// The iterative TRSM's B layout on a p1 x p1 x p2 grid: rows cyclic
  /// over p1, columns in p2 contiguous slabs, resident on the grid's
  /// y = 0 plane (world ranks x + p1^2 z).
  kRowCyclicColBlocked,
};

struct Layout {
  LayoutKind kind = LayoutKind::kCyclic2D;
  int p1 = 1;
  int p2 = 1;
};

inline bool operator==(const Layout& a, const Layout& b) {
  return a.kind == b.kind && a.p1 == b.p1 && a.p2 == b.p2;
}
inline bool operator!=(const Layout& a, const Layout& b) { return !(a == b); }

/// Descriptor helpers.
inline Layout cyclic_layout(int p1, int p2) {
  return Layout{LayoutKind::kCyclic2D, p1, p2};
}
inline Layout row_blocked_layout(int p1, int p2) {
  return Layout{LayoutKind::kRowCyclicColBlocked, p1, p2};
}

/// A refcounted persistent distributed operand: per-rank blocks resident
/// in the machine's sim::HandleStore (surviving Machine::run), plus the
/// layout that gives them meaning. Copies share the storage; the last
/// copy releases it. Must not outlive the Context whose machine holds
/// the storage.
class DistHandle {
 public:
  DistHandle() = default;

  bool valid() const { return state_ != nullptr; }
  index_t rows() const;
  index_t cols() const;
  Layout layout() const;
  /// Store id (unique per machine, never reused) — stable identity of
  /// the resident data, observable for cache/reuse tests.
  std::uint64_t id() const;
  /// Write stamp of the resident data (see sim::HandleStore::epoch).
  std::uint64_t epoch() const;
  /// True while the resident blocks are marked untrustworthy after a
  /// faulted run (see Context::repair).
  bool poisoned() const;

 private:
  friend class Context;
  friend class Plan;
  friend class Program;
  struct State;
  explicit DistHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// Result of a handle-in / handle-out execution. There is no scatter, no
/// output collect, and no host-side residual check on this path — the
/// stats contain the "algorithm" phase (plus "redistribute" when a layout
/// mismatch forced a transition) and nothing else.
struct DistExecResult {
  DistHandle x;
  sim::RunStats stats;
  model::Config config;

  /// Max-over-ranks cost of the distributed computation only.
  sim::Cost algorithm_cost() const;
  /// Cost of automatic layout transitions (zero when layouts matched).
  sim::Cost redistribute_cost() const;
};

/// Future for one in-flight execute_dist stream. Returned immediately by
/// Plan::execute_dist_async while the simulated run proceeds on the
/// machine's worker pool. wait() blocks until the run completes,
/// assembles exactly the DistExecResult the serial call would have
/// produced (bitwise — per-run virtual clocks), and rethrows any failure
/// (DeadlockError, sim::FaultError, ...); calling it again returns the
/// same stored outcome. Dropping a ticket without waiting is safe — the
/// run still completes (the Machine retires it), but a faulted run's
/// input poisoning only happens at wait(), so always wait tickets whose
/// operands you reuse.
class DistTicket {
 public:
  DistTicket() = default;

  bool valid() const { return s_ != nullptr; }
  /// True once the simulated run has finished (wait() will not block).
  bool done() const;
  /// Block for completion and return (or rethrow) the run's outcome.
  DistExecResult wait();

 private:
  friend class Plan;
  struct Shared;
  explicit DistTicket(std::shared_ptr<Shared> s) : s_(std::move(s)) {}
  std::shared_ptr<Shared> s_;
};

struct ExecResult {
  la::Matrix x;
  /// Stats of the one run behind the call. Upload and download are
  /// host-side and charge nothing, so the run holds only the
  /// "algorithm" phase (compare THIS against the paper's formulas); the
  /// iterative TRSM additionally reports "inversion" / "solve" /
  /// "update", and the Cholesky pipeline "cholesky" / "forward-trsm" /
  /// "backward-trsm".
  sim::RunStats stats;
  model::Config config;
  /// Relative residual of the solve (0 for the matmul ops, whose result
  /// the caller can check directly against a reference product). For a
  /// TRSM it is ||op(T) X - B||_F / (||T||_F ||X||_F + ||B||_F), or the
  /// same of X op(T) - B for a right-side solve, and it reads only the
  /// triangle of T the spec names, as the solve does.
  double residual = 0.0;

  /// Max-over-ranks cost of the distributed computation.
  sim::Cost algorithm_cost() const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// What the Program optimizer did on the last run (Program::stats()).
/// `redistributes_inserted` counts the layout changes the executed
/// schedule performs (one per distinct (node, layout) — each is computed
/// once and read by every consumer); `redistributes_avoided` is the number
/// of layout changes that one change per mismatched use would have paid
/// beyond the shared ones.
struct ProgramStats {
  std::uint64_t nodes_elided = 0;    // steps unreachable from any output
  std::uint64_t nodes_merged = 0;    // duplicate (plan, args) steps reused
  std::uint64_t redistributes_inserted = 0;
  std::uint64_t redistributes_avoided = 0;
  std::uint64_t steps_executed = 0;
};

/// Result of Plan::execute_batch: the entire panel stream ran as ONE
/// Machine::run, so there is a single RunStats for the whole batch.
/// Solutions and residuals are per panel, bitwise what execute() returns
/// for that panel alone.
struct BatchResult {
  std::vector<la::Matrix> xs;
  std::vector<double> residuals;
  sim::RunStats stats;
  model::Config config;
  ProgramStats program_stats;

  /// Max-over-ranks cost of the distributed computation across the WHOLE
  /// batch (one run). Phases that read only L run once per operand, not
  /// once per panel, and not at all when the plan already holds their
  /// output for this operand: compare against the first panel's solve
  /// plus the later panels' warm solves, not items x a cold solve.
  sim::Cost algorithm_cost() const;
};

class Context;
class Program;

class Plan : public std::enable_shared_from_this<Plan> {
 public:
  const OpDesc& desc() const { return desc_; }
  /// The frozen configuration decided at plan time. A cache-hit plan is
  /// the same object, so its Config is bit-identical by construction.
  const model::Config& config() const { return config_; }

  /// Execute the planned op. Operand roles per op:
  ///   kTrsm:          a = T (n x n), b = B
  ///   kTriInv:        a = L (n x n), b ignored
  ///   kCholesky:      a = SPD A (n x n), b ignored
  ///   kCholeskySolve: a = SPD A (n x n), b = B (n x k)
  ///   kMatmul3D/2D:   a = A (n x inner), b = X (inner x k)
  /// For the ops that take a right-hand side this is execute_batch(a, {b}),
  /// a batch of one; tri-inv and Cholesky run the same upload -> one-step
  /// program -> download path on `a` alone.
  ExecResult execute(const la::Matrix& a, const la::Matrix& b = {});

  /// Execute against RESIDENT operands: the one-panel stream_program on
  /// handles, with no scatter and no collect — the whole point for
  /// repeated solves against a fixed factor, whose replica the plan keeps
  /// from the first solve (keyed on the handle). A handle whose layout
  /// differs from the required input_layout() is redistributed
  /// automatically (charged to the "redistribute" phase), on a warm solve
  /// too: the replica replaces the L-only phases, not the solve's read of
  /// L.
  /// TRSM on this path supports the normalized kernel variants only
  /// (lower operand, left side; transpose requires the iterative
  /// algorithm, which reverses distributedly — the Cholesky backward
  /// step). Other variants: use execute().
  /// The run's "algorithm" S/W/F equal execute()'s algorithm_cost() with
  /// one exception, the transposed solve: execute() transposes and
  /// reverses the operands on the host, which charges nothing, while this
  /// path does it with distributed all-to-alls inside "algorithm". The
  /// solutions are bitwise equal either way.
  DistExecResult execute_dist(const DistHandle& a,
                              const DistHandle& b = DistHandle());

  /// Launch execute_dist as an independent execution stream and return a
  /// ticket immediately. Up to sim::kMaxStreams runs overlap on the
  /// machine; a launch that shares a handle with an in-flight run blocks
  /// until that run completes, so results are bitwise identical to the
  /// serial call order. execute_dist is exactly
  /// execute_dist_async(a, b).wait().
  DistTicket execute_dist_async(const DistHandle& a,
                                const DistHandle& b = DistHandle());

  /// The layout this plan requires of operand `slot` (0 = a, 1 = b) /
  /// produces for its result — what to pass to Context::upload so
  /// execute_dist runs with zero redistribution.
  Layout input_layout(int slot) const;
  Layout output_layout() const;

  /// Execute over many right-hand-side panels as ONE simulated run. TRSM
  /// variants are first reduced on the host to the lower-left kernel,
  /// panel by panel, and run on the lower-left plan of the same shape
  /// (Context::plan; same config). Then `a` and every panel are uploaded
  /// in the plan's input layouts and the whole stream runs as one Program
  /// (stream_program) in one Machine::run; kCholeskySolve factors `a`
  /// once and solves every panel against that factor. For the iterative
  /// and recursive TRSM the plan keeps the last uploaded `a` resident,
  /// and a byte-identical `a` on the next call reuses that handle, so the
  /// diagonal blocks of one matrix are inverted, or its blocks
  /// replicated, once across all batches and executes: the first panel
  /// of a batch records the replica and the later panels replay it.
  /// Rejects tri-inv and Cholesky, which take no right-hand side (use
  /// execute).
  BatchResult execute_batch(const la::Matrix& a,
                            std::span<const la::Matrix> bs);

  /// Element generator over GLOBAL indices (namespace-level api::Gen).
  using Gen = api::Gen;

  /// kCholeskySolve only: generator-fed execution. Each rank fills only
  /// the elements it owns from the (i, j) generators, so no rank ever
  /// holds a global operand during the computation. With `verify` true
  /// the driver materializes the global system once, outside the
  /// simulated machine, purely to compute the residual; pass false to
  /// skip that O(n^2 k) host-side check (residual stays 0) when the
  /// problem is too large to materialize.
  ExecResult execute_generated(const Gen& a_gen, const Gen& b_gen,
                               bool verify = true);

  /// Number of times this plan has run the Diagonal-Inverter — observable
  /// evidence that repeated executes and batches reuse the inverted
  /// diagonal blocks. execute() of a TRSM variant counts on its
  /// lower-left plan, which runs the reduced system.
  std::uint64_t diag_inversions() const {
    std::lock_guard<std::mutex> lock(l_mu_);
    return diag_inversions_;
  }

 private:
  friend class Context;
  friend class Program;
  friend class DistTicket;
  Plan(Context& ctx, OpDesc desc);

  /// The one Program behind every entry point: input A, then per
  /// right-hand-side panel one input, the op's steps and one marked
  /// output. A TRSM runs one whole-op step per panel. kCholeskySolve
  /// factors A once and wires one forward and one backward solve per
  /// panel. A unary op (tri-inv, Cholesky) takes no panels: its program
  /// is one step on A.
  Program stream_program(std::size_t panels);
  /// Launch stream_program over `inputs` (A, then one handle per panel)
  /// as one execution stream. When the plan keeps L-only state, its steps
  /// share one replica: the plan's when it belongs to A (every step
  /// replays), else a new one for A (the first step records, the later
  /// ones replay, and settle keeps it). kCholeskySolve's forward solves
  /// share a replica of the run's own factor, for that run only.
  DistTicket launch(std::vector<DistHandle> inputs);
  /// Upload `a` (via operand_handle) and every panel, run the stream in
  /// one Machine::run, download every output. No residuals.
  BatchResult run_stream(const la::Matrix& a, std::span<const la::Matrix> bs);
  /// Reduce a TRSM variant on the host to the lower-left kernel, panel by
  /// panel, and run the reduced stream on the lower-left plan. No
  /// residuals.
  BatchResult run_trsm(const la::Matrix& t, std::span<const la::Matrix> bs,
                       const TrsmSpec& spec);
  /// The handle of operand `a` for one call. When the plan keeps L-only
  /// state, it is the memoized handle if the bytes of `a`'s lower
  /// triangle, diagonal included, equal the last call's — the only ones
  /// the lower-left solve reads — else a fresh memoized upload, whose
  /// ||tril(a)||_F the memo keeps for the residual. So a fixed matrix
  /// keeps one handle and that state keeps hitting. Otherwise it is a
  /// transient upload: nothing keyed on the handle outlives the call.
  DistHandle operand_handle(const la::Matrix& a);
  /// Whether runs of this plan record and replay a replica of their
  /// L-only state: the non-transposed TRSM kernel with the iterative
  /// algorithm (Ltilde) or the recursive one (the gathered blocks of L).
  bool keeps_l_state() const;

  Context* ctx_;
  OpDesc desc_;
  model::Config config_;

  // L-only state: the replica recorded by the last run that missed, valid
  // for the operand handle (l_id_, l_epoch_) — handles are never rewritten
  // in place, so that pair pins the bytes. It is attached to the
  // operand's store entry, so it is released when the operand is, as well
  // as when it is replaced or the plan dies. l_mu_ guards these fields
  // against the settles of concurrent streams. A run replaying the
  // replica holds its own reference and run-use marks, so a miss may
  // replace it while that run flies.
  mutable std::mutex l_mu_;
  std::uint64_t l_id_ = 0;
  std::uint64_t l_epoch_ = 0;
  std::shared_ptr<detail::Replica> replica_;
  std::uint64_t diag_inversions_ = 0;

  // The operand memo of execute() and execute_batch() when the plan keeps
  // L-only state: the last uploaded `a`, its handle, and the Frobenius
  // norm of its lower triangle, which every panel's residual divides by.
  // The comparison of the lower triangle's bytes against operand_src_ is
  // the only content check on any path; the L-only state keys on the
  // handle.
  std::shared_ptr<const la::Matrix> operand_src_;
  double operand_norm_ = 0.0;
  DistHandle operand_;
};

class Context {
 public:
  /// Own a fresh machine of p ranks.
  explicit Context(int p, sim::MachineParams params = sim::MachineParams{},
                   std::size_t plan_cache_capacity = 64);
  /// Borrow an existing machine (the caller keeps ownership; the machine
  /// must outlive this Context and every Plan created from it).
  explicit Context(sim::Machine& machine,
                   std::size_t plan_cache_capacity = 64);

  /// Pinned: outstanding Plans hold a pointer back to their Context, so
  /// moving or copying it would dangle every handle.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  Context(Context&&) = delete;
  Context& operator=(Context&&) = delete;

  sim::Machine& machine() { return *machine_; }
  const sim::MachineParams& params() const { return machine_->params(); }
  int nprocs() const { return machine_->nprocs(); }

  /// The persistent rank scheduler behind this context's machine: a pool
  /// of p workers created on the first execute and reused by every
  /// subsequent Machine::run, Plan::execute, and execute_batch (no
  /// per-run thread spawn/join). scheduler().runs() counts dispatches.
  sim::RankScheduler& scheduler() { return machine_->scheduler(); }

  /// Return the cached Plan for `desc` or build, cache, and return a new
  /// one. Planning twice for the same (op, shape, options) on the same
  /// machine hits the cache and returns the SAME Plan handle.
  std::shared_ptr<Plan> plan(const OpDesc& desc);

  /// Scatter a matrix (or a generator, which no rank ever materializes
  /// globally) into resident per-rank storage under `layout`. Host-side:
  /// charges nothing to the simulated machine — the whole point is that
  /// this happens ONCE, not per execute.
  DistHandle upload(const la::Matrix& m, Layout layout);
  DistHandle upload(const Gen& gen, index_t rows, index_t cols,
                    Layout layout);

  /// Assemble the global matrix from a handle's resident blocks.
  /// Host-side; charges nothing. Fails fast with PoisonedOperandError on
  /// a handle a faulted run left untrustworthy — repair it first.
  la::Matrix download(const DistHandle& h);

  /// Re-upload a poisoned handle from its recorded source (the matrix
  /// copy or generator it was uploaded from), clearing the poison flag
  /// and stamping a fresh epoch. No-op on a healthy handle; throws
  /// PoisonedOperandError if the handle is poisoned but has no source
  /// (e.g. it was produced by a Program run, not uploaded).
  void repair(const DistHandle& h);

  CacheStats cache_stats() const { return stats_; }

 private:
  friend class Plan;
  friend class Program;

  /// Upload/download against a caller-realized distribution, so a batch
  /// realizes each layout's describe-only communicator set ONCE instead of
  /// once per panel (Plan::execute_batch). `d` must be
  /// detail::realize_host(layout, rows, cols, nprocs()) for the same
  /// shape/layout the call passes. The matrix overload keeps `m` itself
  /// as the handle's recovery source (no further copy).
  DistHandle upload_on(std::shared_ptr<const la::Matrix> m, Layout layout,
                       const std::shared_ptr<const dist::Distribution>& d);
  DistHandle upload_on(const Gen& gen, index_t rows, index_t cols,
                       Layout layout,
                       const std::shared_ptr<const dist::Distribution>& d);
  la::Matrix download_on(const DistHandle& h,
                         const std::shared_ptr<const dist::Distribution>& d);
  /// Scatter a new handle's recorded source into its store entry and
  /// account it (both upload_on overloads end here).
  DistHandle admit(std::shared_ptr<DistHandle::State> state,
                   const std::shared_ptr<const dist::Distribution>& d);

  std::unique_ptr<sim::Machine> owned_;
  sim::Machine* machine_;
  std::size_t capacity_;
  CacheStats stats_;
  // LRU: most recently used at the front.
  std::list<std::pair<std::string, std::shared_ptr<Plan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
};

class Program;

namespace opt {
struct Schedule;

/// Compile `prog` into an execution schedule for the input layouts bound
/// by the current run: one flat list of op steps and layout changes,
/// after dead-node elision and common-sub-DAG merging, with each distinct
/// (node, layout) change run once (see opt.hpp).
Schedule compile(const Program& prog);
}  // namespace opt

/// A small op-DAG over resident operands: chain several plans through ONE
/// Machine::run with no intermediate host collects — intermediates stay
/// as per-rank blocks, and a consumer whose required layout differs from
/// its producer's gets a dist::redistribute inserted automatically.
/// Op::kCholeskySolve is internally this: factor -> solve -> reversed
/// solve (Plan::stream_program), its forward solves sharing one
/// inversion of the factor's diagonal blocks per run.
///
///   api::Program prog(ctx);
///   auto a = prog.input(n, n);
///   auto b = prog.input(n, k);
///   auto l = prog.add(factor_plan, {a}, "cholesky");
///   auto y = prog.add(fwd_plan, {l, b}, "forward-trsm");
///   auto x = prog.add(bwd_plan, {l, y}, "backward-trsm");
///   prog.mark_output(x);
///   auto res = prog.run({ha, hb});   // one simulated run
///
/// A Program is a reusable recipe: run() may be called many times against
/// different input handles. Not thread-safe; must not outlive its
/// Context.
///
/// Each run compiles the DAG for its bound input layouts (opt::compile):
/// steps unreachable from a marked output are elided, structurally
/// identical (plan, args) steps are merged (one factor feeding many solves
/// computes once), and each distinct (node, layout) change a consumer
/// needs is one schedule step whose result every such consumer reads. The
/// passes only skip or share work, never change its arithmetic; stats()
/// reports what the last run's schedule did.
class Program {
 public:
  using NodeId = int;

  explicit Program(Context& ctx) : ctx_(&ctx) {}

  /// Declare the next external input (bound positionally by run()).
  NodeId input(index_t rows, index_t cols);

  /// Append a step executing `plan` against `args` (each a prior node).
  /// Operand roles follow Plan::execute_dist. `phase`, when non-empty,
  /// labels the step's charges (nested inside "algorithm").
  NodeId add(std::shared_ptr<Plan> plan, std::vector<NodeId> args,
             std::string phase = {});

  /// Mark a node to be materialized as a DistHandle by run(). Outputs are
  /// returned in mark order.
  void mark_output(NodeId node);

  struct Result {
    std::vector<DistHandle> outputs;
    sim::RunStats stats;
    sim::Cost algorithm_cost() const;
  };

  /// Future for one in-flight Program run (see run_async).
  class AsyncResult {
   public:
    AsyncResult() = default;
    bool valid() const { return s_ != nullptr; }
    /// True once the simulated run has finished (wait() will not block).
    bool done() const;
    /// Block for completion and return (or rethrow) the run's outcome.
    /// Idempotent: later calls return the same stored outcome. A faulted
    /// run poisons its distinct input handles here, exactly like run().
    Result wait();

   private:
    friend class Program;
    struct Shared;
    explicit AsyncResult(std::shared_ptr<Shared> s) : s_(std::move(s)) {}
    std::shared_ptr<Shared> s_;
  };

  /// Execute every step in one Machine::run against the positionally
  /// bound input handles.
  Result run(const std::vector<DistHandle>& inputs);

  /// Launch the program as an independent execution stream and return
  /// immediately. The call validates + repairs inputs, compiles the
  /// schedule, and snapshots the DAG host-side, so the Program object may
  /// be mutated (or destroyed) while the run is in flight, and several
  /// launches of the same Program may overlap. A launch sharing an input
  /// handle with any in-flight run blocks until that run completes
  /// (results stay bitwise identical to serial order).
  AsyncResult run_async(const std::vector<DistHandle>& inputs);

  using Stats = ProgramStats;
  /// What the optimizer did on the most recent run() (see ProgramStats).
  const Stats& stats() const { return stats_; }

 private:
  friend class Plan;  // execute_dist runs as a one-step program
  friend opt::Schedule opt::compile(const Program&);

  /// run_async for a stream (Plan::launch) whose steps that keep L-only
  /// state (Plan::keeps_l_state) are of one plan against one operand and
  /// share `replica`; the other steps ignore it. A resident replica is
  /// run-use marked and replayed by every such step; an empty one is
  /// recorded by the first, replayed by the later ones, and, when it has
  /// staging slots, staged for the host to make resident after the run
  /// succeeds.
  AsyncResult run_async(const std::vector<DistHandle>& inputs,
                        std::shared_ptr<detail::Replica> replica);

  struct Node {
    index_t rows = 0;
    index_t cols = 0;
    Layout layout;      // op nodes: the producing plan's output layout
    int input_index = -1;  // >= 0 for input nodes
  };
  struct Step {
    std::shared_ptr<Plan> plan;
    std::vector<NodeId> args;
    std::string phase;
    NodeId out = -1;
  };

  Context* ctx_;
  std::vector<Node> nodes_;
  std::vector<Step> steps_;
  std::vector<NodeId> outputs_;
  int n_inputs_ = 0;
  Stats stats_;
};

}  // namespace catrsm::api
