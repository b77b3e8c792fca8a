#pragma once
// Internal: the Program optimizer. compile() turns an api::Program's
// op-DAG plus the input layouts bound by the current run() into a static
// execution Schedule that Program::run's rank body follows verbatim —
// every rank walks the same schedule over the world communicator, so the
// result is deterministic and collective-safe by construction. Each run
// compiles its own schedule.
//
// A schedule is one flat list of steps over value slots. Slots
// [0, nodes) hold the program's nodes; every layout change appends one
// slot after them. A step either runs a program step's op body or
// redistributes one slot into a layout: a layout change is a step like
// any other, placed right before its first reader.
//
// Two passes shape the list:
//
//   1. Dead-node elision: steps whose outputs are unreachable from any
//      marked output are dropped (their input nodes are not even loaded
//      out of the HandleStore).
//   2. Common-sub-DAG merging: two live steps with the same Plan object
//      (the Context plan cache guarantees same descriptor => same object)
//      and the same resolved arguments compute the same bits; the later
//      one is dropped and its node aliased to the earlier (`resolve`).
//
// and one layout change is emitted per distinct (node, layout) a kept
// step reads.

#include <vector>

#include "api/catrsm.hpp"

namespace catrsm::api::opt {

/// One schedule step. An op step (`op >= 0`) runs Program::steps_[op]
/// on the slots in `arg` (arg[1] < 0 for unary ops) into slot `out`, its
/// output node. A layout change (`op < 0`) redistributes slot arg[0] into
/// layout `to` and writes the result to its own slot `out`.
struct Step {
  int op = -1;
  int arg[2] = {-1, -1};
  int out = -1;
  Layout to;
};

struct Schedule {
  /// Per node: does a kept step or an output need its value? An input
  /// node that is not live is never loaded out of the HandleStore.
  std::vector<char> live;
  /// Merge alias map: node -> representative node holding its value.
  std::vector<Program::NodeId> resolve;
  /// Value slots: one per node, then one per layout change.
  int slots = 0;
  std::vector<Step> steps;
  ProgramStats stats;
};

}  // namespace catrsm::api::opt
