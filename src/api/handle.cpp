// Resident distributed operands: DistHandle lifecycle and the host-side
// scatter (upload) / assemble (download) endpoints. Both endpoints are
// pure host arithmetic over describe-only layout realizations — nothing
// here touches the simulated machine's clocks or counters, which is what
// keeps algorithm_cost() on the handle path free of driver artifacts.

#include "api/op_bodies.hpp"
#include "support/check.hpp"

namespace catrsm::api {

DistHandle::State::~State() {
  // The machine's store outlives every handle by the documented lifetime
  // rule (handles must not outlive their Context / machine).
  machine->handle_store().release(id);
}

index_t DistHandle::rows() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->rows;
}

index_t DistHandle::cols() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->cols;
}

Layout DistHandle::layout() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->layout;
}

std::uint64_t DistHandle::id() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->id;
}

std::uint64_t DistHandle::epoch() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->epoch;
}

bool DistHandle::poisoned() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->machine->handle_store().poisoned(state_->id);
}

sim::Cost DistExecResult::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

sim::Cost DistExecResult::redistribute_cost() const {
  return stats.phase_cost("redistribute");
}

namespace {

/// Fill every participating rank's slot of the handle's entry from its
/// recorded source under the host-realized distribution `d` (shared by
/// upload and repair). A matrix source is copied row by row; a generator
/// is called once per element.
void fill_slots(sim::HandleStore& store, std::uint64_t id,
                const la::Matrix* matrix, const Gen& gen,
                const std::shared_ptr<const dist::Distribution>& d, int p) {
  const auto rows_of = d->rows_by_part(0, d->rows());
  const auto cols_of = d->cols_by_part(0, d->cols());
  for (int w = 0; w < p; ++w) {
    const auto parts = d->parts_of_world(w);
    if (!parts.has_value()) continue;
    const auto& rows = rows_of[static_cast<std::size_t>(parts->first)];
    const auto& cols = cols_of[static_cast<std::size_t>(parts->second)];
    auto loc = la::Matrix::uninit(static_cast<index_t>(rows.size()),
                                  static_cast<index_t>(cols.size()));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double* out = loc.ptr() + static_cast<index_t>(r) * loc.cols();
      if (matrix != nullptr) {
        const double* in = matrix->ptr() + rows[r] * matrix->cols();
        for (std::size_t c = 0; c < cols.size(); ++c) out[c] = in[cols[c]];
      } else {
        for (std::size_t c = 0; c < cols.size(); ++c)
          out[c] = gen(rows[r], cols[c]);
      }
    }
    store.local(id, w) = std::move(loc);
  }
}

}  // namespace

DistHandle Context::upload(const la::Matrix& m, Layout layout) {
  // Copy the matrix into the recovery source: the handle's repair path
  // may fire long after the caller's matrix is gone.
  return upload_on(std::make_shared<const la::Matrix>(m), layout,
                   detail::realize_host(layout, m.rows(), m.cols(),
                                        nprocs()));
}

DistHandle Context::upload(const Gen& gen, index_t rows, index_t cols,
                           Layout layout) {
  return upload_on(gen, rows, cols, layout,
                   detail::realize_host(layout, rows, cols, nprocs()));
}

DistHandle Context::upload_on(
    std::shared_ptr<const la::Matrix> m, Layout layout,
    const std::shared_ptr<const dist::Distribution>& d) {
  auto state = std::make_shared<DistHandle::State>(
      machine_, machine_->handle_store().create(), layout, m->rows(),
      m->cols(), 0);
  state->matrix = std::move(m);
  return admit(std::move(state), d);
}

DistHandle Context::upload_on(
    const Gen& gen, index_t rows, index_t cols, Layout layout,
    const std::shared_ptr<const dist::Distribution>& d) {
  auto state = std::make_shared<DistHandle::State>(
      machine_, machine_->handle_store().create(), layout, rows, cols, 0);
  state->gen = gen;
  return admit(std::move(state), d);
}

DistHandle Context::admit(std::shared_ptr<DistHandle::State> state,
                          const std::shared_ptr<const dist::Distribution>& d) {
  CATRSM_CHECK(state->rows >= 1 && state->cols >= 1,
               "upload: empty operand");
  CATRSM_CHECK(d != nullptr && d->rows() == state->rows &&
                   d->cols() == state->cols,
               "upload: realization does not match the operand shape");
  sim::HandleStore& store = machine_->handle_store();
  fill_slots(store, state->id, state->matrix.get(), state->gen, d,
             nprocs());
  store.touch(state->id);
  state->epoch = store.epoch(state->id);
  return DistHandle(std::move(state));
}

void Context::repair(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "repair: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "repair: handle belongs to a different machine");
  sim::HandleStore& store = machine_->handle_store();
  store.wait_run_idle(h.id());  // never rewrite under an in-flight stream
  if (!store.poisoned(h.id())) return;
  if (!h.state_->has_source())
    throw PoisonedOperandError(
        "repair: handle has no recorded source to re-upload from (it was "
        "produced by a run, not uploaded) — rebuild it instead");
  const auto d =
      detail::realize_host(h.layout(), h.rows(), h.cols(), nprocs());
  fill_slots(store, h.id(), h.state_->matrix.get(), h.state_->gen, d,
             nprocs());
  store.unpoison(h.id());
  store.touch(h.id());
  h.state_->epoch = store.epoch(h.id());
}

la::Matrix Context::download(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "download: empty handle");
  return download_on(
      h, detail::realize_host(h.layout(), h.rows(), h.cols(), nprocs()));
}

la::Matrix Context::download_on(
    const DistHandle& h,
    const std::shared_ptr<const dist::Distribution>& d) {
  CATRSM_CHECK(h.valid(), "download: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "download: handle belongs to a different machine");
  CATRSM_CHECK(d != nullptr && d->rows() == h.rows() &&
                   d->cols() == h.cols(),
               "download: realization does not match the handle shape");
  sim::HandleStore& store = machine_->handle_store();
  // An in-flight stream moves blocks OUT of the store for the run's
  // duration; wait until no run uses the entry before reading it.
  store.wait_run_idle(h.id());
  if (store.poisoned(h.id()))
    throw PoisonedOperandError(
        "download: operand was touched by a faulted run and may be "
        "partially rewritten — Context::repair it (or re-upload) first");
  // The parts tile the matrix, so every element of `out` is written.
  auto out = la::Matrix::uninit(h.rows(), h.cols());
  const auto rows_of = d->rows_by_part(0, d->rows());
  const auto cols_of = d->cols_by_part(0, d->cols());
  for (int w = 0; w < nprocs(); ++w) {
    const auto parts = d->parts_of_world(w);
    if (!parts.has_value()) continue;
    const auto& rows = rows_of[static_cast<std::size_t>(parts->first)];
    const auto& cols = cols_of[static_cast<std::size_t>(parts->second)];
    const la::Matrix& loc = store.local(h.id(), w);
    CATRSM_CHECK(loc.rows() == static_cast<index_t>(rows.size()) &&
                     loc.cols() == static_cast<index_t>(cols.size()),
                 "download: stored block does not match the handle layout");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double* dst = out.ptr() + rows[r] * out.cols();
      const double* src = loc.ptr() + static_cast<index_t>(r) * loc.cols();
      for (std::size_t c = 0; c < cols.size(); ++c) dst[cols[c]] = src[c];
    }
  }
  return out;
}

}  // namespace catrsm::api
