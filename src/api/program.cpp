// api::Program — deterministic op-DAG execution over resident operands:
// every step's body runs inside ONE Machine::run, intermediates never
// leave per-rank storage, and layout transitions run under the
// "redistribute" phase (everything else lands under "algorithm" plus the
// step's own label).
//
// Each run compiles and executes its own opt::Schedule rather than the
// raw DAG: one flat list of op steps and layout changes over value slots.
// Dead steps are elided, duplicate (plan, args) steps are merged, and
// each distinct (node, layout) change runs once and is read by every
// consumer. Every slot lives until the run ends.

#include <algorithm>
#include <optional>
#include <numeric>
#include <span>
#include <utility>

#include "api/op_bodies.hpp"
#include "api/opt.hpp"
#include "sim/fault.hpp"
#include "support/check.hpp"

namespace catrsm::api {

using dist::DistMatrix;

sim::Cost Program::Result::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

Program::NodeId Program::input(index_t rows, index_t cols) {
  CATRSM_CHECK(rows >= 1 && cols >= 1, "program: empty input shape");
  Node node;
  node.rows = rows;
  node.cols = cols;
  node.input_index = n_inputs_++;
  nodes_.push_back(node);
  return static_cast<NodeId>(nodes_.size()) - 1;
}

Program::NodeId Program::add(std::shared_ptr<Plan> plan,
                             std::vector<NodeId> args, std::string phase) {
  CATRSM_CHECK(plan != nullptr, "program: null plan");
  CATRSM_CHECK(plan->ctx_ == ctx_,
               "program: plan belongs to a different Context");
  const OpDesc& d = plan->desc();
  CATRSM_CHECK(d.op != Op::kCholeskySolve,
               "program: kCholeskySolve IS a program — compose kCholesky "
               "and two kTrsm steps instead");
  if (d.op == Op::kTrsm) {
    CATRSM_CHECK(d.trsm.side == Side::kLeft &&
                     d.trsm.uplo == la::Uplo::kLower,
                 "program: trsm steps run the normalized lower-left kernel");
    if (d.trsm.transpose)
      CATRSM_CHECK(plan->config().algorithm == model::Algorithm::kIterative,
                   "program: transposed trsm steps require the iterative "
                   "algorithm");
  }
  CATRSM_CHECK(static_cast<int>(args.size()) == detail::op_arity(d.op),
               "program: wrong operand count for op");
  for (const NodeId a : args)
    CATRSM_CHECK(a >= 0 && a < static_cast<NodeId>(nodes_.size()),
                 "program: argument references an unknown node");

  // Shape-check the wiring now, so run() can't fail mid-simulation.
  const Node& a0 = nodes_[static_cast<std::size_t>(args[0])];
  Node out;
  switch (d.op) {
    case Op::kTrsm:
      CATRSM_CHECK(a0.rows == d.n && a0.cols == d.n,
                   "program: trsm operand must be the planned n x n");
      CATRSM_CHECK(nodes_[static_cast<std::size_t>(args[1])].rows == d.n &&
                       nodes_[static_cast<std::size_t>(args[1])].cols == d.k,
                   "program: trsm rhs must be the planned n x k");
      out.rows = d.n;
      out.cols = d.k;
      break;
    case Op::kTriInv:
    case Op::kCholesky:
      CATRSM_CHECK(a0.rows == d.n && a0.cols == d.n,
                   "program: operand must be the planned n x n");
      out.rows = d.n;
      out.cols = d.n;
      break;
    case Op::kMatmul3D:
    case Op::kMatmul2D:
      CATRSM_CHECK(a0.rows == d.n && a0.cols == d.inner,
                   "program: matmul A must be the planned shape");
      CATRSM_CHECK(nodes_[static_cast<std::size_t>(args[1])].rows ==
                           d.inner &&
                       nodes_[static_cast<std::size_t>(args[1])].cols == d.k,
                   "program: matmul X must be the planned shape");
      out.rows = d.n;
      out.cols = d.k;
      break;
    case Op::kCholeskySolve:
      throw Error("program: unreachable");
  }
  out.layout = plan->output_layout();

  nodes_.push_back(out);
  const NodeId out_id = static_cast<NodeId>(nodes_.size()) - 1;
  Step step;
  step.plan = std::move(plan);
  step.args = std::move(args);
  step.phase = std::move(phase);
  step.out = out_id;
  steps_.push_back(std::move(step));
  return out_id;
}

void Program::mark_output(NodeId node) {
  CATRSM_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()),
               "program: unknown node");
  CATRSM_CHECK(nodes_[static_cast<std::size_t>(node)].input_index < 0,
               "program: inputs are already handles — mark op outputs only");
  for (const NodeId existing : outputs_)
    CATRSM_CHECK(existing != node, "program: node is already an output");
  outputs_.push_back(node);
}

// Everything one in-flight run needs, snapshotted host-side at launch:
// the rank body reads ONLY this, so the Program object is free to be
// mutated or destroyed while the run flies, and several launches of the
// same Program can overlap. The scheduler clears the submission's job
// (which captures the owning shared_ptr) when the last rank finishes, so
// the ticket-holds-run-holds-body reference cycle always breaks.
struct Program::AsyncResult::Shared {
  sim::Machine* machine = nullptr;
  sim::HandleStore* store = nullptr;
  int p = 0;

  // DAG snapshot (steps keep their Plans alive via shared_ptr).
  std::vector<Node> nodes;
  std::vector<Step> steps;
  std::vector<NodeId> outputs;
  opt::Schedule sched;  // compiled for this run's input layouts

  std::vector<DistHandle> inputs;
  std::vector<std::uint64_t> in_ids;  // distinct, run-use marked in flight
  std::vector<std::uint64_t> out_ids;
  // Each in_ids and out_ids entry's per-rank slots, looked up once here
  // so the rank body indexes them by rank without the store's lock. The
  // run holds its inputs and replica, and creates its outputs before it
  // starts and releases them only after it ends, so every span outlives
  // the ranks.
  std::vector<std::span<la::Matrix>> in_slots;
  std::vector<std::span<la::Matrix>> out_slots;
  // The replica the steps that keep L-only state share (Plan::launch); its
  // resident entries are run-use marked with the inputs.
  std::shared_ptr<detail::Replica> replica;

  sim::RunTicket ticket;

  // Assemble-once outcome.
  std::mutex mu;
  bool assembled = false;
  Result result;
  std::exception_ptr outcome;
};

Program::Result Program::run(const std::vector<DistHandle>& inputs) {
  return run_async(inputs).wait();
}

Program::AsyncResult Program::run_async(const std::vector<DistHandle>& inputs) {
  return run_async(inputs, nullptr);
}

Program::AsyncResult Program::run_async(
    const std::vector<DistHandle>& inputs,
    std::shared_ptr<detail::Replica> replica) {
  CATRSM_CHECK(static_cast<int>(inputs.size()) == n_inputs_,
               "program: wrong number of input handles");
  if (replica != nullptr) {
    const Step* first = nullptr;
    for (const Step& step : steps_) {
      if (!step.plan->keeps_l_state()) continue;
      if (first == nullptr) first = &step;
      CATRSM_CHECK(step.plan == first->plan &&
                       step.args[0] == first->args[0],
                   "program: a replica serves one plan against one operand");
    }
  }
  sim::Machine& machine = ctx_->machine();
  sim::HandleStore& store = machine.handle_store();
  const int p = machine.nprocs();

  // Bind input layouts for this run and validate the handles. A poisoned
  // input fails fast here, before any simulated work.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (node.input_index < 0) continue;
    const DistHandle& h = inputs[static_cast<std::size_t>(node.input_index)];
    CATRSM_CHECK(h.valid(), "program: empty input handle");
    CATRSM_CHECK(h.state_->machine == &machine,
                 "program: input handle belongs to a different machine");
    CATRSM_CHECK(h.rows() == node.rows && h.cols() == node.cols,
                 "program: input handle shape mismatch");
    if (store.poisoned(h.id()))
      throw PoisonedOperandError(
          "program: input operand was touched by a faulted run — "
          "Context::repair it before retrying");
    node.layout = h.layout();
  }

  // Snapshot the DAG for the in-flight run: the rank body reads only the
  // Shared block, never the (mutable) Program members. The schedule is
  // compiled for this run's bound input layouts; stats_ reflects it even
  // if the run itself later faults.
  auto sh = std::make_shared<AsyncResult::Shared>();
  sh->sched = opt::compile(*this);
  stats_ = sh->sched.stats;
  sh->machine = &machine;
  sh->store = &store;
  sh->p = p;
  sh->nodes = nodes_;
  sh->steps = steps_;
  sh->outputs = outputs_;
  sh->inputs = inputs;
  for (const Node& node : nodes_) {
    if (node.input_index < 0) continue;
    const std::uint64_t id =
        inputs[static_cast<std::size_t>(node.input_index)].id();
    if (std::find(sh->in_ids.begin(), sh->in_ids.end(), id) ==
        sh->in_ids.end())
      sh->in_ids.push_back(id);
  }
  if (replica != nullptr)
    sh->in_ids.insert(sh->in_ids.end(), replica->ids.begin(),
                      replica->ids.end());
  sh->replica = std::move(replica);

  // Serialize against any in-flight run sharing an operand: load_slot
  // MOVES blocks out of the store for the run's duration, so two
  // overlapping runs must never hold the same entry. All-or-nothing and
  // released on a worker thread at completion, so this always makes
  // progress.
  store.acquire_run_use(sh->in_ids);
  try {
    sh->out_ids.reserve(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i)
      sh->out_ids.push_back(store.create());
    for (const std::uint64_t id : sh->in_ids)
      sh->in_slots.push_back(store.slots(id));
    for (const std::uint64_t id : sh->out_ids)
      sh->out_slots.push_back(store.slots(id));
  } catch (...) {
    store.release_run_use(sh->in_ids);
    throw;
  }

  const auto rank_body = [sh](sim::Rank& r) {
    const std::vector<Node>& nodes_ = sh->nodes;
    const std::vector<Step>& steps_ = sh->steps;
    const std::vector<NodeId>& outputs_ = sh->outputs;
    const std::vector<DistHandle>& inputs = sh->inputs;
    const std::vector<std::uint64_t>& in_ids = sh->in_ids;
    const opt::Schedule& sched = sh->sched;
    const int p = sh->p;

    const int me = r.id();
    const auto mine = [me](std::span<la::Matrix> slots) -> la::Matrix& {
      return slots[static_cast<std::size_t>(me)];
    };
    sim::Comm world = sim::Comm::world(r);
    std::vector<DistMatrix> vals(static_cast<std::size_t>(sched.slots));

    // Input slots are moved OUT of the store for the duration of the run;
    // restore them even when a peer's failure unwinds this rank, so a
    // failed program never destroys the caller's resident operands. A
    // handle bound to several input nodes is moved out once and copied
    // for the rest. Inputs feeding only elided steps are never touched.
    // A resident replica's blocks (in_ids' tail) are moved out and back
    // the same way. loaded[j] is the node in_ids[j]'s block moved into,
    // nodes_.size() while it is in the store.
    const std::size_t n_replica =
        sh->replica != nullptr ? sh->replica->ids.size() : 0;
    std::vector<std::size_t> loaded(in_ids.size() - n_replica, nodes_.size());
    trsm::Replica local_replica;
    const auto restore_inputs = [&] {
      for (std::size_t j = 0; j < loaded.size(); ++j) {
        if (loaded[j] == nodes_.size()) continue;
        mine(sh->in_slots[j]) = std::move(vals[loaded[j]].local());
        loaded[j] = nodes_.size();
      }
      if (n_replica > 0)
        for (std::size_t i = 0; i < local_replica.blocks.size(); ++i)
          mine(sh->in_slots[loaded.size() + i]) =
              std::move(local_replica.blocks[i]);
      local_replica.blocks.clear();
    };
    try {
    for (std::size_t i = 0; i < n_replica; ++i)
      local_replica.blocks.push_back(
          std::move(mine(sh->in_slots[loaded.size() + i])));
    local_replica.complete = n_replica > 0;
    trsm::Replica* const step_replica =
        sh->replica != nullptr ? &local_replica : nullptr;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& node = nodes_[i];
      if (node.input_index < 0 || !sched.live[i]) continue;
      const std::uint64_t id =
          inputs[static_cast<std::size_t>(node.input_index)].id();
      const std::size_t j = static_cast<std::size_t>(
          std::find(in_ids.begin(), in_ids.end(), id) - in_ids.begin());
      auto d = detail::realize(node.layout, node.rows, node.cols, world);
      if (loaded[j] == nodes_.size()) {
        // The adopting constructor checks the stored block's shape.
        vals[i] =
            DistMatrix(std::move(d), me, std::move(mine(sh->in_slots[j])));
        loaded[j] = i;
      } else {
        vals[i] = DistMatrix(std::move(d), me, vals[loaded[j]].local());
      }
    }

    // Every rank walks the same static schedule, so each collective inside
    // a step lines up across ranks.
    for (const opt::Step& st : sched.steps) {
      DistMatrix& out = vals[static_cast<std::size_t>(st.out)];
      const DistMatrix& a0 = vals[static_cast<std::size_t>(st.arg[0])];
      if (st.op < 0) {
        sim::PhaseScope scope(r, "redistribute");
        out = dist::redistribute(
            a0,
            detail::realize(st.to, a0.dist().rows(), a0.dist().cols(), world),
            world);
        continue;
      }
      const Step& step = steps_[static_cast<std::size_t>(st.op)];
      const Plan& plan = *step.plan;
      const int gr = detail::grid_ranks(plan.desc(), plan.config(), p);
      sim::Comm grid = [&] {
        if (gr == p) return world;
        std::vector<int> idx(static_cast<std::size_t>(gr));
        std::iota(idx.begin(), idx.end(), 0);
        return world.subset(idx);
      }();
      const DistMatrix empty;
      {
        sim::PhaseScope algorithm_scope(r, "algorithm");
        std::optional<sim::PhaseScope> label;
        if (!step.phase.empty()) label.emplace(r, step.phase);
        out = detail::op_body(
            plan.desc(), plan.config(), grid, a0,
            st.arg[1] >= 0 ? vals[static_cast<std::size_t>(st.arg[1])]
                           : empty,
            step_replica);
      }
      if (out.dist_ptr() == nullptr) {
        // Idle rank (outside the step's grid): keep a proper empty view of
        // the output layout so later layout changes see a valid descriptor.
        const Node& node = nodes_[static_cast<std::size_t>(st.out)];
        out = DistMatrix(
            detail::realize(node.layout, node.rows, node.cols, world), me);
      }
    }

    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      const std::size_t src = static_cast<std::size_t>(
          sched.resolve[static_cast<std::size_t>(outputs_[i])]);
      // Merged outputs can share one producer node: the last reference
      // moves the local block, earlier ones copy it.
      bool last = true;
      for (std::size_t j = i + 1; j < outputs_.size(); ++j)
        if (static_cast<std::size_t>(sched.resolve[static_cast<std::size_t>(
                outputs_[j])]) == src) {
          last = false;
          break;
        }
      if (last)
        mine(sh->out_slots[i]) = std::move(vals[src].local());
      else
        mine(sh->out_slots[i]) = vals[src].local();
    }
    // A recording run hands its blocks to the host, which makes them
    // resident once the whole run has succeeded (Plan settles it).
    if (sh->replica != nullptr && !sh->replica->staged.empty())
      sh->replica->staged[static_cast<std::size_t>(me)] =
          std::move(local_replica.blocks);

    restore_inputs();
    } catch (...) {
      restore_inputs();
      throw;
    }
  };
  // Release the run-use marks the moment the last rank finishes (on a
  // worker thread), so a host blocked acquiring them — or waiting any
  // other ticket — never depends on this ticket being wait()ed first.
  auto complete = [store_ptr = &store, in_ids = sh->in_ids] {
    store_ptr->release_run_use(in_ids);
  };
  try {
    sh->ticket = machine.run_async(rank_body, std::move(complete));
  } catch (...) {
    // run_async throws only before the submission exists (admission does
    // not throw), so the marks are still ours to release.
    store.release_run_use(sh->in_ids);
    throw;
  }
  return AsyncResult(std::move(sh));
}

bool Program::AsyncResult::done() const {
  CATRSM_CHECK(s_ != nullptr, "program: empty AsyncResult");
  std::lock_guard<std::mutex> lock(s_->mu);
  return s_->assembled || s_->ticket.done();
}

Program::Result Program::AsyncResult::wait() {
  CATRSM_CHECK(s_ != nullptr, "program: empty AsyncResult");
  std::lock_guard<std::mutex> lock(s_->mu);
  Shared& sh = *s_;
  if (!sh.assembled) {
    sh.assembled = true;
    sim::HandleStore& store = *sh.store;
    try {
      sim::RunStats stats = sh.ticket.wait();
      Result result;
      result.stats = std::move(stats);
      result.outputs.reserve(sh.outputs.size());
      for (std::size_t i = 0; i < sh.outputs.size(); ++i) {
        const Node& node =
            sh.nodes[static_cast<std::size_t>(sh.outputs[i])];
        store.touch(sh.out_ids[i]);  // byte accounting for the new blocks
        result.outputs.push_back(DistHandle(
            std::make_shared<DistHandle::State>(
                sh.machine, sh.out_ids[i], node.layout, node.rows,
                node.cols, store.epoch(sh.out_ids[i]))));
      }
      sh.result = std::move(result);
    } catch (...) {
      for (const std::uint64_t id : sh.out_ids) store.release(id);
      // Graceful degradation: the unwound fibers restored every input
      // slot, and for a CLEAN in-body failure (a CHECK like "not positive
      // definite" fires before any in-place mutation of that operand) the
      // restored blocks are the caller's original data — leave them
      // usable. But when fault injection actually fired in THIS run (the
      // per-run ticket record — a fault in a concurrent stream never
      // counts here), the failure point is arbitrary: some ranks may have
      // mutated their moved-out locals in place before the fault unwound
      // them. Mark each input untrustworthy; the caller repairs or
      // re-uploads before the retry. Refresh cached epochs so handle
      // observers see the invalidation immediately.
      if (sh.ticket.injections() > 0) {
        for (const DistHandle& h : sh.inputs) {
          if (!h.valid()) continue;
          store.poison(h.id());
          h.state_->epoch = store.epoch(h.id());
        }
      }
      sh.outcome = std::current_exception();
    }
    sh.ticket = sim::RunTicket{};
    sh.inputs.clear();  // drop operand refs; result keeps the outputs
    sh.replica.reset();
  }
  if (sh.outcome) std::rethrow_exception(sh.outcome);
  return sh.result;
}

}  // namespace catrsm::api
