#include "sim/check/coll_matcher.hpp"

#include <sstream>

namespace catrsm::sim::check {

namespace {

std::string joined(const std::vector<int>& v) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? " " : "") << v[i];
  os << "}";
  return os.str();
}

std::string joined(const std::vector<std::size_t>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? " " : "") << v[i];
  os << "]";
  return os.str();
}

}  // namespace

CollectiveMatcher::CollectiveMatcher(int p)
    : last_context_(static_cast<std::size_t>(p)) {}

void CollectiveMatcher::enter(std::uint64_t epoch,
                              const std::vector<int>& members, int world_rank,
                              int comm_rank, int family, const char* name,
                              int root, const std::vector<std::size_t>* counts,
                              std::size_t words) {
  std::lock_guard<std::mutex> lock(mu_);

  auto [eit, fresh] = epochs_.try_emplace(epoch);
  EpochState& state = eit->second;
  if (fresh) {
    state.members = members;
    state.next_seq.assign(members.size(), 0);
  } else {
    // The epoch registry keys on the ordered member list, so two ranks on
    // one epoch can only disagree here if the registry itself broke.
    CATRSM_ASSERT(state.members == members,
                  "collective matcher: epoch registry handed one id to two "
                  "member lists");
  }

  const std::uint64_t seq = state.next_seq[static_cast<std::size_t>(comm_rank)]++;
  std::ostringstream ctx;
  ctx << "last collective: " << name << " #" << seq << " on comm "
      << joined(members) << ", root " << root << ", " << words << " words";
  last_context_[static_cast<std::size_t>(world_rank)] = ctx.str();

  auto [sit, first] = state.slots.try_emplace(seq);
  Slot& slot = sit->second;
  if (first) {
    slot.family = family;
    slot.name = name;
    slot.root = root;
    if (counts != nullptr) slot.counts = *counts;
    slot.first_rank = world_rank;
    slot.entered = 1;
  } else {
    const auto fault = [&](const char* what, const std::string& mine,
                           const std::string& theirs) {
      std::ostringstream os;
      os << "collective mismatch on comm " << joined(members)
         << ", call #" << seq << ": " << what << "\n"
         << "  rank " << world_rank << " entered " << name << " with "
         << mine << "\n"
         << "  rank " << slot.first_rank << " entered " << slot.name
         << " with " << theirs << "\n"
         << "(every member of a communicator must issue the same collective "
            "sequence with agreeing roots and counts)";
      throw CollMismatchError(os.str());
    };
    if (slot.family != family) {
      fault("operation sequence disagrees", "op " + std::string(name),
            "op " + slot.name);
    }
    if (slot.root != root) {
      fault("roots disagree", "root " + std::to_string(root),
            "root " + std::to_string(slot.root));
    }
    const std::vector<std::size_t> mine =
        counts != nullptr ? *counts : std::vector<std::size_t>{};
    if (slot.counts != mine) {
      fault("per-rank counts disagree", "counts " + joined(mine),
            "counts " + joined(slot.counts));
    }
    ++slot.entered;
  }
  // Every member checked in consistently: the slot can never fault again,
  // so drop it to keep matcher memory proportional to in-flight calls.
  if (slot.entered == static_cast<int>(members.size()))
    state.slots.erase(sit);
}

std::string CollectiveMatcher::context_of(int world_rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (world_rank < 0 ||
      world_rank >= static_cast<int>(last_context_.size()))
    return {};
  return last_context_[static_cast<std::size_t>(world_rank)];
}

}  // namespace catrsm::sim::check
