// The Program optimizer's compile pass. Pure planning: nothing here
// touches the simulated machine.

#include "api/opt.hpp"

#include <map>
#include <tuple>
#include <utility>

namespace catrsm::api::opt {

namespace {

using NodeId = Program::NodeId;

/// Orderable identity of a Layout (Layout itself only defines ==).
using LayoutKey = std::tuple<int, int, int>;
LayoutKey key_of(const Layout& l) {
  return {static_cast<int>(l.kind), l.p1, l.p2};
}

}  // namespace

Schedule compile(const Program& prog) {
  const auto& nodes = prog.nodes_;
  const auto& steps = prog.steps_;
  const std::size_t nn = nodes.size();

  Schedule s;
  s.resolve.resize(nn);
  for (std::size_t i = 0; i < nn; ++i) s.resolve[i] = static_cast<NodeId>(i);
  s.slots = static_cast<int>(nn);

  // --- Pass 1: dead-node elision.
  s.live.assign(nn, 0);
  std::vector<int> producer(nn, -1);
  for (std::size_t si = 0; si < steps.size(); ++si)
    producer[static_cast<std::size_t>(steps[si].out)] = static_cast<int>(si);
  std::vector<NodeId> stack(prog.outputs_);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (s.live[static_cast<std::size_t>(id)]) continue;
    s.live[static_cast<std::size_t>(id)] = 1;
    const int pr = producer[static_cast<std::size_t>(id)];
    if (pr >= 0)
      for (const NodeId a : steps[static_cast<std::size_t>(pr)].args)
        stack.push_back(a);
  }

  // Pass 2, common-sub-DAG merging, runs inside the emit loop: identity
  // = (plan object, resolved args) — the plan cache makes the plan pointer
  // a structural key.
  std::map<std::tuple<const Plan*, NodeId, NodeId>, NodeId> seen;
  // The slot of each distinct (resolved node, layout).
  std::map<std::pair<NodeId, LayoutKey>, int> changed;
  // One layout change per mismatched use, unshared: what
  // redistributes_avoided is measured against.
  std::uint64_t per_use = 0;
  for (std::size_t si = 0; si < steps.size(); ++si) {
    const auto& step = steps[si];
    for (std::size_t slot = 0; slot < step.args.size(); ++slot)
      if (nodes[static_cast<std::size_t>(step.args[slot])].layout !=
          step.plan->input_layout(static_cast<int>(slot)))
        ++per_use;
    if (!s.live[static_cast<std::size_t>(step.out)]) {
      ++s.stats.nodes_elided;
      continue;
    }
    Step op;
    op.op = static_cast<int>(si);
    op.out = step.out;
    for (std::size_t slot = 0; slot < step.args.size(); ++slot)
      op.arg[slot] = s.resolve[static_cast<std::size_t>(step.args[slot])];
    const auto key = std::make_tuple(step.plan.get(), op.arg[0], op.arg[1]);
    const auto [it, fresh] = seen.emplace(key, step.out);
    if (!fresh) {
      s.resolve[static_cast<std::size_t>(step.out)] = it->second;
      ++s.stats.nodes_merged;
      continue;
    }
    // A layout change runs right before its first reader.
    for (std::size_t slot = 0; slot < step.args.size(); ++slot) {
      const NodeId src = op.arg[slot];
      const Layout need = step.plan->input_layout(static_cast<int>(slot));
      if (nodes[static_cast<std::size_t>(src)].layout == need) continue;
      const auto [known, first] =
          changed.emplace(std::make_pair(src, key_of(need)), s.slots);
      if (first) {
        Step change;
        change.arg[0] = src;
        change.out = s.slots++;
        change.to = need;
        s.steps.push_back(change);
      }
      op.arg[slot] = known->second;
    }
    s.steps.push_back(op);
    ++s.stats.steps_executed;
  }

  s.stats.redistributes_inserted =
      static_cast<std::uint64_t>(s.slots) - nn;
  s.stats.redistributes_avoided =
      per_use - s.stats.redistributes_inserted;
  return s;
}

}  // namespace catrsm::api::opt
