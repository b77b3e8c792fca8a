// The Program optimizer's compile pass. Pure planning: nothing here
// touches the simulated machine — the only model queries are host-side
// (describe-only layout realizations + dist::redistribute_model_cost),
// used to break placement ties.

#include "api/opt.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "api/op_bodies.hpp"
#include "dist/redistribute.hpp"

namespace catrsm::api::opt {

namespace {

using NodeId = Program::NodeId;

/// Orderable identity of a Layout (Layout itself only defines ==).
using LayoutKey = std::tuple<int, int, int>;
LayoutKey key_of(const Layout& l) {
  return {static_cast<int>(l.kind), l.p1, l.p2};
}

/// Modeled wall time of one src -> dst transition of an rows x cols
/// operand on the p-rank world, under the machine's alpha/beta.
double transition_time(const Layout& from, const Layout& to, index_t rows,
                       index_t cols, int p, const sim::MachineParams& mp) {
  const auto src = detail::realize_host(from, rows, cols, p);
  const auto dst = detail::realize_host(to, rows, cols, p);
  const sim::Cost c = dist::redistribute_model_cost(*src, *dst, p);
  return mp.alpha * c.msgs + mp.beta * c.words;
}

}  // namespace

Schedule compile(const Program& prog, bool enabled) {
  const auto& nodes = prog.nodes_;
  const auto& steps = prog.steps_;
  const std::size_t nn = nodes.size();
  const int p = prog.ctx_->nprocs();
  const sim::MachineParams& mp = prog.ctx_->params();

  Schedule s;
  s.optimized = enabled;
  s.load_input.assign(nn, 1);
  s.resolve.resize(nn);
  s.resident.reserve(nn);
  s.place.assign(nn, 0);
  for (std::size_t i = 0; i < nn; ++i) {
    s.resolve[i] = static_cast<NodeId>(i);
    s.resident.push_back(nodes[i].layout);
    if (nodes[i].input_index >= 0) s.input_sig.push_back(nodes[i].layout);
  }

  // What the as-written DAG pays: one redistribute per mismatched use.
  std::uint64_t baseline = 0;
  for (const auto& step : steps)
    for (std::size_t slot = 0; slot < step.args.size(); ++slot)
      if (nodes[static_cast<std::size_t>(step.args[slot])].layout !=
          step.plan->input_layout(static_cast<int>(slot)))
        ++baseline;

  if (!enabled) {
    for (std::size_t si = 0; si < steps.size(); ++si) {
      const auto& step = steps[si];
      StepExec se;
      se.index = static_cast<int>(si);
      for (std::size_t slot = 0; slot < step.args.size(); ++slot) {
        const NodeId a = step.args[slot];
        se.arg[slot] = a;
        const Layout need = step.plan->input_layout(static_cast<int>(slot));
        if (nodes[static_cast<std::size_t>(a)].layout != need) {
          se.conv[slot] = static_cast<int>(s.conversions.size());
          s.conversions.push_back(Conversion{a, need, -1});
        }
      }
      s.steps.push_back(se);
    }
    s.stats.redistributes_inserted = baseline;
    s.stats.steps_executed = steps.size();
    return s;
  }

  // --- Pass 1: dead-node elision.
  std::vector<int> producer(nn, -1);
  for (std::size_t si = 0; si < steps.size(); ++si)
    producer[static_cast<std::size_t>(steps[si].out)] = static_cast<int>(si);
  std::vector<char> live(nn, 0);
  std::vector<NodeId> stack(prog.outputs_);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (live[static_cast<std::size_t>(id)]) continue;
    live[static_cast<std::size_t>(id)] = 1;
    const int pr = producer[static_cast<std::size_t>(id)];
    if (pr >= 0)
      for (const NodeId a : steps[static_cast<std::size_t>(pr)].args)
        stack.push_back(a);
  }
  for (std::size_t i = 0; i < nn; ++i)
    if (nodes[i].input_index >= 0) s.load_input[i] = live[i];
  for (const auto& step : steps)
    if (!live[static_cast<std::size_t>(step.out)]) ++s.stats.nodes_elided;

  // --- Pass 2: common-sub-DAG merging. Identity = (plan object, resolved
  // args, stage) — the plan cache makes the plan pointer a structural key;
  // the stage keeps an inversion apart from a whole solve on the same L.
  std::map<std::tuple<const Plan*, NodeId, NodeId, detail::Stage>, NodeId>
      seen;
  std::vector<int> kept;
  for (std::size_t si = 0; si < steps.size(); ++si) {
    const auto& step = steps[si];
    if (!live[static_cast<std::size_t>(step.out)]) continue;
    const NodeId a0 = s.resolve[static_cast<std::size_t>(step.args[0])];
    const NodeId a1 =
        step.args.size() > 1
            ? s.resolve[static_cast<std::size_t>(step.args[1])]
            : -1;
    const auto key = std::make_tuple(step.plan.get(), a0, a1, step.stage);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      s.resolve[static_cast<std::size_t>(step.out)] = it->second;
      ++s.stats.nodes_merged;
      continue;
    }
    seen.emplace(key, step.out);
    kept.push_back(static_cast<int>(si));
  }

  // --- Pass 3: layout-aware placement. Consumers' required layouts per
  // surviving node, in first-seen order (keeps candidate ranking
  // deterministic).
  std::vector<std::vector<Layout>> needs(nn);
  for (const int si : kept) {
    const auto& step = steps[static_cast<std::size_t>(si)];
    for (std::size_t slot = 0; slot < step.args.size(); ++slot) {
      const NodeId src = s.resolve[static_cast<std::size_t>(step.args[slot])];
      const Layout need = step.plan->input_layout(static_cast<int>(slot));
      auto& ns = needs[static_cast<std::size_t>(src)];
      if (std::find(ns.begin(), ns.end(), need) == ns.end())
        ns.push_back(need);
    }
  }
  std::vector<char> pinned(nn, 0);
  for (const NodeId out : prog.outputs_)
    pinned[static_cast<std::size_t>(s.resolve[static_cast<std::size_t>(
        out)])] = 1;
  for (const int si : kept) {
    const NodeId o = steps[static_cast<std::size_t>(si)].out;
    const auto& ns = needs[static_cast<std::size_t>(o)];
    if (pinned[static_cast<std::size_t>(o)] || ns.empty()) continue;
    const auto& node = prog.nodes_[static_cast<std::size_t>(o)];
    const Layout nat = node.layout;
    std::vector<Layout> cands{nat};
    for (const Layout& c : ns)
      if (!(c == nat)) cands.push_back(c);
    // Score a candidate resident layout: transitions implied = (natural ->
    // candidate, when they differ) + one cached conversion per OTHER
    // required layout. Count first, modeled time second; ties keep the
    // earliest candidate (natural leads).
    int best_count = -1;
    double best_time = 0.0;
    Layout best = nat;
    for (const Layout& c : cands) {
      int count = c == nat ? 0 : 1;
      double time = c == nat ? 0.0
                             : transition_time(nat, c, node.rows, node.cols,
                                               p, mp);
      for (const Layout& need : ns) {
        if (need == c) continue;
        ++count;
        time += transition_time(c, need, node.rows, node.cols, p, mp);
      }
      if (best_count < 0 || count < best_count ||
          (count == best_count && time < best_time)) {
        best_count = count;
        best_time = time;
        best = c;
      }
    }
    s.resident[static_cast<std::size_t>(o)] = best;
    s.place[static_cast<std::size_t>(o)] = !(best == nat);
  }

  // --- Emit the step list with cached conversions, one per distinct
  // (resolved node, required layout).
  std::map<std::pair<NodeId, LayoutKey>, int> conv_of;
  for (const int si : kept) {
    const auto& step = steps[static_cast<std::size_t>(si)];
    StepExec se;
    se.index = si;
    for (std::size_t slot = 0; slot < step.args.size(); ++slot) {
      const NodeId src = s.resolve[static_cast<std::size_t>(step.args[slot])];
      se.arg[slot] = src;
      const Layout need = step.plan->input_layout(static_cast<int>(slot));
      if (s.resident[static_cast<std::size_t>(src)] == need) continue;
      const auto ck = std::make_pair(src, key_of(need));
      auto it = conv_of.find(ck);
      if (it == conv_of.end()) {
        const int idx = static_cast<int>(s.conversions.size());
        s.conversions.push_back(Conversion{src, need, s.n_cached++});
        it = conv_of.emplace(ck, idx).first;
      }
      se.conv[slot] = it->second;
    }
    s.steps.push_back(se);
  }

  std::uint64_t placed = 0;
  for (const char f : s.place) placed += static_cast<std::uint64_t>(f);
  s.stats.optimized = true;
  s.stats.steps_executed = kept.size();
  s.stats.redistributes_inserted =
      static_cast<std::uint64_t>(s.n_cached) + placed;
  s.stats.redistributes_avoided =
      baseline - s.stats.redistributes_inserted;
  return s;
}

}  // namespace catrsm::api::opt
