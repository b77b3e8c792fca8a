#include "sim/check/deadlock.hpp"

#include <sstream>

#include "coll/collectives.hpp"

namespace catrsm::sim::check {

namespace {

/// The wait-for graph has out-degree <= 1 (each blocked rank awaits one
/// sender), so every cycle is a simple rho-tail-free loop reachable by
/// following edges until a repeat. Returns each cycle once, smallest
/// member first.
std::vector<std::vector<int>> find_cycles(const std::vector<RankWait>& waits) {
  const int p = static_cast<int>(waits.size());
  std::vector<int> color(static_cast<std::size_t>(p), 0);  // 0 new 1 path 2 done
  std::vector<std::vector<int>> cycles;
  for (int start = 0; start < p; ++start) {
    if (color[static_cast<std::size_t>(start)] != 0) continue;
    std::vector<int> path;
    int v = start;
    while (v >= 0 && color[static_cast<std::size_t>(v)] == 0 &&
           !waits[static_cast<std::size_t>(v)].finished) {
      color[static_cast<std::size_t>(v)] = 1;
      path.push_back(v);
      v = waits[static_cast<std::size_t>(v)].src;
    }
    if (v >= 0 && color[static_cast<std::size_t>(v)] == 1) {
      // Closed a loop within the current path: the cycle is the suffix
      // starting at v.
      std::vector<int> cycle;
      bool in = false;
      for (int r : path) {
        if (r == v) in = true;
        if (in) cycle.push_back(r);
      }
      cycles.push_back(std::move(cycle));
    }
    for (int r : path) color[static_cast<std::size_t>(r)] = 2;
  }
  return cycles;
}

}  // namespace

std::string describe_tag(int tag) {
  if (tag < coll::kTagBase) {
    return "tag " + std::to_string(tag);
  }
  const int band = (tag - coll::kTagBase) / coll::kEpochSpace;
  const int epoch = (tag - coll::kTagBase) % coll::kEpochSpace;
  std::ostringstream os;
  os << "tag " << tag << " ["
     << coll::coll_op_name(static_cast<coll::CollOp>(band))
     << ", comm epoch " << epoch << "]";
  return os.str();
}

std::string describe_deadlock(const std::vector<RankWait>& waits,
                              const std::vector<PendingQueue>& pending,
                              const std::vector<std::string>& contexts) {
  const int p = static_cast<int>(waits.size());
  std::ostringstream os;
  os << "simulated run deadlocked: every rank is blocked in recv or "
        "finished, and no pending message can wake any of them\n";

  os << "per-rank state:\n";
  for (int r = 0; r < p; ++r) {
    const RankWait& w = waits[static_cast<std::size_t>(r)];
    os << "  rank " << r << ": ";
    if (w.finished) {
      os << "finished";
    } else {
      os << "blocked in recv from rank " << w.src << ", "
         << describe_tag(w.tag);
      if (w.src >= 0 && w.src < p &&
          waits[static_cast<std::size_t>(w.src)].finished) {
        os << " -- sender already finished; this message will never be sent";
      }
    }
    if (r < static_cast<int>(contexts.size()) &&
        !contexts[static_cast<std::size_t>(r)].empty()) {
      os << " (" << contexts[static_cast<std::size_t>(r)] << ")";
    }
    os << "\n";
  }

  const auto cycles = find_cycles(waits);
  if (!cycles.empty()) {
    os << "wait-for cycles:\n";
    for (const auto& cycle : cycles) {
      os << "  ";
      for (int r : cycle) os << r << " -> ";
      os << cycle.front() << "\n";
    }
  }

  if (!pending.empty()) {
    os << "pending (unmatched) mailbox contents:\n";
    for (const PendingQueue& q : pending) {
      os << "  rank " << q.dst << " <- rank " << q.src << ", "
         << describe_tag(q.tag) << ": " << q.messages << " message"
         << (q.messages == 1 ? "" : "s") << ", " << q.words << " words\n";
    }
  } else {
    os << "no pending messages anywhere: the run is starved, not "
          "mismatched\n";
  }
  return os.str();
}

}  // namespace catrsm::sim::check
