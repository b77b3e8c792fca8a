#pragma once
// Internal: the per-op distributed bodies behind api::Program — one
// implementation of each algorithm invocation. Every Plan entry point
// runs through the one Program Plan::stream_program builds: a step per
// right-hand-side panel, and for the Cholesky pipeline a chain of bodies
// in ONE run, redistributing between steps only on layout mismatch. Bodies
// load per-rank blocks from the machine's sim::HandleStore and store
// result blocks back — no scatter, no collect.
//
// Also here: realization of api::Layout descriptors into concrete
// dist::Distribution objects — in-run (live communicators, so algorithms
// can collective through the face) and host-side (describe-only
// communicators, for upload/download arithmetic). Both construct the
// exact same element->rank maps as the algorithms' canonical helpers
// (it_inv_l_face / it_inv_b_dist / cyclic_on), which is what makes
// "handle layout == required layout" a zero-redistribution guarantee.

#include <cstdint>
#include <memory>

#include "api/catrsm.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "sim/handle_store.hpp"
#include "trsm/replica.hpp"

namespace catrsm::api {

/// Shared state of a DistHandle: identifies resident per-rank blocks in a
/// machine's HandleStore. The last handle copy releases the storage.
struct DistHandle::State {
  sim::Machine* machine = nullptr;
  std::uint64_t id = 0;
  Layout layout;
  index_t rows = 0;
  index_t cols = 0;
  std::uint64_t epoch = 0;
  /// Recovery source for Context::repair: the shared copy of an uploaded
  /// matrix, or the generator of a generator upload.
  /// Both empty for handles produced by a Program/execute_dist run.
  std::shared_ptr<const la::Matrix> matrix;
  Gen gen;
  bool has_source() const { return matrix != nullptr || gen != nullptr; }

  State(sim::Machine* m, std::uint64_t i, Layout lay, index_t r, index_t c,
        std::uint64_t e)
      : machine(m), id(i), layout(lay), rows(r), cols(c), epoch(e) {}
  ~State();
  State(const State&) = delete;
  State& operator=(const State&) = delete;
};

namespace detail {

/// The L-only state of a plan that keeps it (Plan::keeps_l_state) for one
/// operand: the blocks of every rank's trsm::Replica (the iterative
/// TRSM's Ltilde, the recursive TRSM's gathered blocks of L), one store
/// entry per block in call order, each attached to the operand's entry so
/// it is released with the operand. Run-output entries, counted in
/// resident_bytes(). A recording run fills `staged`;
/// settling it makes the blocks resident. The last reference releases
/// the entries.
struct Replica {
  Replica(sim::HandleStore& s, std::uint64_t operand_id, int p)
      : store(s), operand(operand_id), staged(static_cast<std::size_t>(p)) {}
  /// A replica for one run only, of an operand the run computes itself
  /// (the Cholesky-solve's factor): its steps record and replay, and
  /// nothing is staged or made resident.
  explicit Replica(sim::HandleStore& s) : store(s), operand(0) {}
  ~Replica() {
    for (const std::uint64_t id : ids) store.release(id);
  }
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Move the staged blocks into entries attached to the operand. Ranks
  /// outside the plan's grid recorded nothing and keep empty slots.
  /// Returns false, keeping nothing, when the operand is already released.
  bool make_resident();

  sim::HandleStore& store;
  std::uint64_t operand;
  /// The resident blocks' entries; empty until make_resident().
  std::vector<std::uint64_t> ids;
  /// Per rank, the blocks a recording run recorded (each rank writes only
  /// its own). Empty once resident, and for a replica of one run.
  std::vector<std::vector<la::Matrix>> staged;
};

/// Operand count of an op (see Plan::execute operand roles): tri-inv and
/// Cholesky take only A, every other op also a right-hand side.
inline int op_arity(Op op) {
  return op == Op::kTriInv || op == Op::kCholesky ? 1 : 2;
}

/// Throws unless the layout's grid fits a p-rank machine.
void check_layout_fits(const Layout& lay, int p);

/// Realize a layout over the canonical world ranks, with live
/// communicators subset from `base` (pass the world communicator; for
/// ops on a rank-prefix subgrid the canonical members are the same).
std::shared_ptr<const dist::Distribution> realize(const Layout& lay,
                                                  index_t rows, index_t cols,
                                                  const sim::Comm& base);

/// Same element->rank map, built outside any run from describe-only
/// communicators (Context::upload / download arithmetic).
std::shared_ptr<const dist::Distribution> realize_host(const Layout& lay,
                                                       index_t rows,
                                                       index_t cols, int p);

/// World ranks the op's grid occupies (ranks >= this idle through the
/// body — the Cholesky pipeline's square subgrid on a non-square p).
int grid_ranks(const OpDesc& desc, const model::Config& cfg, int p);

/// Solve L X = B with the planned algorithm (the normalized lower-left
/// non-transposed kernel; dl/db in the plan's input layouts). The
/// iterative and recursive algorithms record into or replay `replica`
/// when given one.
dist::DistMatrix trsm_solve(const model::Config& cfg, const sim::Comm& grid,
                            const dist::DistMatrix& dl,
                            const dist::DistMatrix& db,
                            trsm::Replica* replica = nullptr);

/// L^T X = B entirely in the distributed domain: J L^T J is lower, so
/// transpose + reverse, solve iteratively, reverse back — the Cholesky
/// pipeline's backward step (exact: permutations introduce no rounding).
dist::DistMatrix trsm_transposed_solve(const model::Config& cfg,
                                       const sim::Comm& grid,
                                       const dist::DistMatrix& dl,
                                       const dist::DistMatrix& db);

/// Dispatch `desc.op` against already-distributed operands. Ranks outside
/// `grid` return an empty DistMatrix without communicating. `b` is
/// ignored by the unary ops. A non-transposed TRSM passes `replica` to
/// trsm_solve; every other op ignores it.
dist::DistMatrix op_body(const OpDesc& desc, const model::Config& cfg,
                         const sim::Comm& grid, const dist::DistMatrix& a,
                         const dist::DistMatrix& b,
                         trsm::Replica* replica = nullptr);

}  // namespace detail
}  // namespace catrsm::api
