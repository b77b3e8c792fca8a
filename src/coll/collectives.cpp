#include "coll/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "coll/check_hook.hpp"
#include "sim/fault.hpp"
#include "support/check.hpp"

namespace catrsm::coll {

namespace {

std::size_t sum_counts(const Counts& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

/// Offsets of each block within the concatenated vector.
std::vector<std::size_t> offsets_of(const Counts& counts) {
  std::vector<std::size_t> off(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i)
    off[i + 1] = off[i] + counts[i];
  return off;
}

/// Armed skew-fault hook (sim/fault.hpp), called after a primitive's local
/// precondition checks and before its CheckScope so the collective matcher
/// sees the perturbed metadata at entry. When the injector picks this
/// (group, call) site and this rank as the victim, *root is rotated
/// (scatter/gather) or `skewed` receives a copy of `counts` with one peer
/// slot perturbed (allgather/reduce-scatter) and the hook returns true —
/// the caller must then run the collective with the skewed values, exactly
/// like an application passing mismatched metadata would. One null check
/// when no plan is armed.
bool skew_hook(const sim::Comm& comm, int* root, const Counts& counts,
               Counts* skewed) {
  if (!comm.is_member()) return false;
  sim::Rank& r = comm.ctx();
  sim::FaultInjector* fi = r.fault_injector();
  if (fi == nullptr) return false;
  *skewed = counts;
  return fi->maybe_skew(sim::members_hash(comm.members()), r.id(),
                        comm.rank(), comm.size(), root, skewed);
}

}  // namespace

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kAllgather:
      return "allgather";
    case CollOp::kReduceScatter:
      return "reduce_scatter";
    case CollOp::kScatter:
      return "scatter";
    case CollOp::kGather:
      return "gather";
    case CollOp::kBarrier:
      return "barrier";
    case CollOp::kAlltoallBruck:
      return "alltoall(bruck)";
  }
  return "collective?";
}

int coll_tag(CollOp op, const sim::Comm& comm) {
  return kTagBase + static_cast<int>(op) * kEpochSpace +
         static_cast<int>(comm.epoch() %
                          static_cast<std::uint64_t>(kEpochSpace));
}

Counts even_counts(std::size_t total, int parts) {
  CATRSM_CHECK(parts >= 1, "even_counts: parts must be positive");
  Counts counts(static_cast<std::size_t>(parts));
  const std::size_t base = total / static_cast<std::size_t>(parts);
  const std::size_t rem = total % static_cast<std::size_t>(parts);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = base + (i < rem ? 1 : 0);
  return counts;
}

// ---------------------------------------------------------------------------
// Bruck all-gather: after stage with `have` blocks, rank r holds the cyclic
// block window {r, r+1, ..., r+have-1 (mod g)}. Each round doubles the
// window (last round may be partial), giving ceil(log g) rounds and
// total - own received words. Blocks are views: each round's incoming
// payload is sliced, not copied, and a window re-forwarded intact travels
// as one wider slice of the same slab.

Buffer allgather(const sim::Comm& comm, Buffer mine, const Counts& counts_in) {
  const int g = comm.size();
  CATRSM_CHECK(static_cast<int>(counts_in.size()) == g,
               "allgather: counts size mismatch");
  const int r = comm.rank();
  CATRSM_CHECK(mine.size() == counts_in[static_cast<std::size_t>(r)],
               "allgather: contribution size mismatch");
  int no_root = -1;
  Counts skewed;
  const Counts& counts =
      skew_hook(comm, &no_root, counts_in, &skewed) ? skewed : counts_in;
  CheckScope check(comm, CollOp::kAllgather, -1, &counts, mine.size());
  const int tag = coll_tag(CollOp::kAllgather, comm);

  std::vector<Buffer> blocks(static_cast<std::size_t>(g));
  blocks[static_cast<std::size_t>(r)] = std::move(mine);

  std::vector<Buffer> window;
  int have = 1;
  while (have < g) {
    const int send_cnt = std::min(have, g - have);
    const int dst = ((r - have) % g + g) % g;
    const int src = (r + have) % g;

    // My first `send_cnt` window blocks {r, ..., r+send_cnt-1}, coalesced
    // into one payload (a single slice when they already share a slab).
    window.clear();
    for (int b = 0; b < send_cnt; ++b)
      window.push_back(blocks[static_cast<std::size_t>((r + b) % g)]);
    const Buffer incoming =
        comm.shift(dst, src, sim::concat(window), tag);

    // Incoming holds blocks {r+have, ..., r+have+send_cnt-1}; slice by the
    // globally known counts.
    std::size_t pos = 0;
    for (int b = 0; b < send_cnt; ++b) {
      const auto id = static_cast<std::size_t>((r + have + b) % g);
      CATRSM_ASSERT(pos + counts[id] <= incoming.size(),
                    "allgather: short payload");
      blocks[id] = incoming.slice(pos, counts[id]);
      pos += counts[id];
    }
    CATRSM_ASSERT(pos == incoming.size(), "allgather: long payload");
    have += send_cnt;
  }

  return sim::concat(blocks);
}

Buffer allgather_equal(const sim::Comm& comm, Buffer mine) {
  Counts counts(static_cast<std::size_t>(comm.size()), mine.size());
  return allgather(comm, std::move(mine), counts);
}

// ---------------------------------------------------------------------------
// Reduce-scatter: recursive halving over a power-of-two subgroup with a
// fold-in/fold-out step for leftover ranks.

namespace {

/// Recursive halving among ranks [0, g2) of `comm` (g2 a power of two),
/// where rank q is responsible for the segment [super_off[q], super_off[q+1])
/// of the working vector. Returns this rank's final segment.
Buffer halving_core(const sim::Comm& comm, Buffer work,
                    const std::vector<std::size_t>& super_off, int g2,
                    int tag) {
  const int r = comm.rank();
  int lo = 0, hi = g2;
  // Track the live window of `work`: it always spans segments [lo, hi),
  // with base == super_off[lo].
  std::size_t base = super_off[0];
  auto& ctx = comm.ctx();
  while (hi - lo > 1) {
    const int half = (hi - lo) / 2;
    const int mid = lo + half;
    const bool lower = r < mid;
    const std::size_t cut = super_off[static_cast<std::size_t>(mid)];
    const std::size_t lo_off = super_off[static_cast<std::size_t>(lo)];
    const std::size_t hi_off = super_off[static_cast<std::size_t>(hi)];

    // The half I keep accumulates; the other half ships as a zero-copy
    // slice of the working buffer.
    Buffer send_part, keep_part;
    if (lower) {
      send_part = work.slice(cut - base, hi_off - cut);
      keep_part = work.slice(lo_off - base, cut - lo_off);
    } else {
      send_part = work.slice(lo_off - base, cut - lo_off);
      keep_part = work.slice(cut - base, hi_off - cut);
    }
    const int peer = lower ? r + half : r - half;
    const Buffer incoming = comm.sendrecv(peer, std::move(send_part), tag);
    CATRSM_ASSERT(incoming.size() == keep_part.size(),
                  "reduce_scatter: segment size mismatch");
    // Sum into a pooled uninitialized slab: one pass, no memset, no
    // malloc once the pool is warm (identical arithmetic to the old
    // copy-then-accumulate).
    Buffer next = Buffer::uninit(keep_part.size());
    double* out = next.mutable_data();
    const double* keep = keep_part.data();
    const double* in = incoming.data();
    for (std::size_t i = 0; i < next.size(); ++i) out[i] = keep[i] + in[i];
    ctx.charge_flops(static_cast<double>(next.size()));
    work = std::move(next);
    if (lower) {
      hi = mid;
    } else {
      lo = mid;
      base = cut;
    }
  }
  return work;
}

}  // namespace

Buffer reduce_scatter(const sim::Comm& comm, Buffer full,
                      const Counts& counts_in) {
  const int g = comm.size();
  CATRSM_CHECK(static_cast<int>(counts_in.size()) == g,
               "reduce_scatter: counts size mismatch");
  CATRSM_CHECK(full.size() == sum_counts(counts_in),
               "reduce_scatter: input must cover every segment");
  const int r = comm.rank();
  int no_root = -1;
  Counts skewed;
  const Counts& counts =
      skew_hook(comm, &no_root, counts_in, &skewed) ? skewed : counts_in;
  CheckScope check(comm, CollOp::kReduceScatter, -1, &counts, full.size());
  if (g == 1) return full;
  const int tag = coll_tag(CollOp::kReduceScatter, comm);

  const auto off = offsets_of(counts);

  // Fold down to a power of two: extra rank g2+e sends its whole addend to
  // rank e, and receives its final segment back at the end.
  int g2 = 1;
  while (g2 * 2 <= g) g2 *= 2;
  const int extras = g - g2;

  Buffer work = std::move(full);
  if (extras > 0) {
    if (r >= g2) {
      comm.send(r - g2, std::move(work), tag);
      Buffer result = comm.recv(r - g2, tag);
      CATRSM_ASSERT(result.size() == counts[static_cast<std::size_t>(r)],
                    "reduce_scatter: fold-out size mismatch");
      return result;
    }
    if (r < extras) {
      const Buffer other = comm.recv(r + g2, tag);
      CATRSM_ASSERT(other.size() == work.size(),
                    "reduce_scatter: fold-in size mismatch");
      Buffer sum = Buffer::uninit(work.size());
      double* out = sum.mutable_data();
      const double* mine = work.data();
      const double* theirs = other.data();
      for (std::size_t i = 0; i < sum.size(); ++i)
        out[i] = mine[i] + theirs[i];
      comm.ctx().charge_flops(static_cast<double>(sum.size()));
      work = std::move(sum);
    }
  }

  // Super-segments: halving rank q owns block q plus (if q < extras) the
  // extra partner's block g2+q. Build a permuted working vector grouped by
  // super-segment so halving_core can use contiguous slices.
  std::vector<std::size_t> super_off(static_cast<std::size_t>(g2) + 1, 0);
  Buffer grouped = Buffer::uninit(work.size());
  double* gout = grouped.mutable_data();
  const double* wsrc = work.data();
  std::size_t gpos = 0;
  const auto append = [&](std::size_t lo, std::size_t hi) {
    // An empty payload has no storage: memcpy must not see its null data.
    if (hi == lo) return;
    std::memcpy(gout + gpos, wsrc + lo, (hi - lo) * sizeof(double));
    gpos += hi - lo;
  };
  for (int q = 0; q < g2; ++q) {
    super_off[static_cast<std::size_t>(q)] = gpos;
    append(off[static_cast<std::size_t>(q)],
           off[static_cast<std::size_t>(q) + 1]);
    if (q < extras) {
      const auto b = static_cast<std::size_t>(g2 + q);
      append(off[b], off[b + 1]);
    }
  }
  super_off[static_cast<std::size_t>(g2)] = gpos;

  Buffer segment =
      halving_core(comm, std::move(grouped), super_off, g2, tag);

  // Fold out: forward the extra partner's block.
  const std::size_t my_len = counts[static_cast<std::size_t>(r)];
  if (r < extras) {
    CATRSM_ASSERT(segment.size() ==
                      my_len + counts[static_cast<std::size_t>(g2 + r)],
                  "reduce_scatter: super-segment size mismatch");
    comm.send(g2 + r, segment.slice(my_len, segment.size() - my_len), tag);
    segment = segment.slice(0, my_len);
  } else {
    CATRSM_ASSERT(segment.size() == my_len,
                  "reduce_scatter: segment size mismatch");
  }
  return segment;
}

// ---------------------------------------------------------------------------
// Binomial scatter / gather over recursively split rank ranges. Ranks are
// rotated so the root maps to relative rank 0.

namespace {

struct Split {
  int lo, mid, hi;
};

/// The splits of [0, g) along relative rank `rel`'s path, top-down.
std::vector<Split> path_of(int rel, int g) {
  std::vector<Split> path;
  int lo = 0, hi = g;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo + 1) / 2;
    path.push_back({lo, mid, hi});
    if (rel < mid) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return path;
}

}  // namespace

Buffer scatter(const sim::Comm& comm, int root, Buffer all,
               const Counts& counts) {
  const int g = comm.size();
  CATRSM_CHECK(static_cast<int>(counts.size()) == g,
               "scatter: counts size mismatch");
  CATRSM_CHECK(root >= 0 && root < g, "scatter: bad root");
  const int r = comm.rank();
  Counts skew_unused;
  skew_hook(comm, &root, counts, &skew_unused);  // may rotate this rank's root
  CheckScope check(comm, CollOp::kScatter, root, &counts, all.size());
  const int rel = ((r - root) % g + g) % g;
  const int tag = coll_tag(CollOp::kScatter, comm);

  // Block index for relative rank q is the absolute rank (q + root) % g;
  // `held` stores views of the blocks this rank currently routes.
  auto abs_of = [&](int q) { return (q + root) % g; };
  auto count_of = [&](int q) {
    return counts[static_cast<std::size_t>(abs_of(q))];
  };

  std::vector<Buffer> held(static_cast<std::size_t>(g));
  if (rel == 0) {
    CATRSM_CHECK(all.size() == sum_counts(counts),
                 "scatter: root payload must cover every block");
    const auto off = offsets_of(counts);
    for (int q = 0; q < g; ++q) {
      const auto a = static_cast<std::size_t>(abs_of(q));
      held[static_cast<std::size_t>(q)] = all.slice(off[a], counts[a]);
    }
  }

  std::vector<Buffer> window;
  for (const Split& s : path_of(rel, g)) {
    if (rel == s.lo) {
      window.assign(held.begin() + s.mid, held.begin() + s.hi);
      for (int q = s.mid; q < s.hi; ++q)
        held[static_cast<std::size_t>(q)] = Buffer{};
      comm.send(abs_of(s.mid), sim::concat(window), tag);
    } else if (rel == s.mid) {
      const Buffer payload = comm.recv(abs_of(s.lo), tag);
      std::size_t pos = 0;
      for (int q = s.mid; q < s.hi; ++q) {
        const std::size_t c = count_of(q);
        CATRSM_ASSERT(pos + c <= payload.size(), "scatter: short payload");
        held[static_cast<std::size_t>(q)] = payload.slice(pos, c);
        pos += c;
      }
      CATRSM_ASSERT(pos == payload.size(), "scatter: long payload");
    }
  }
  return std::move(held[static_cast<std::size_t>(rel)]);
}

Buffer gather(const sim::Comm& comm, int root, Buffer mine,
              const Counts& counts) {
  const int g = comm.size();
  CATRSM_CHECK(static_cast<int>(counts.size()) == g,
               "gather: counts size mismatch");
  CATRSM_CHECK(root >= 0 && root < g, "gather: bad root");
  const int r = comm.rank();
  Counts skew_unused;
  skew_hook(comm, &root, counts, &skew_unused);  // may rotate this rank's root
  CheckScope check(comm, CollOp::kGather, root, &counts, mine.size());
  const int rel = ((r - root) % g + g) % g;
  const int tag = coll_tag(CollOp::kGather, comm);
  auto abs_of = [&](int q) { return (q + root) % g; };
  auto count_of = [&](int q) {
    return counts[static_cast<std::size_t>(abs_of(q))];
  };
  CATRSM_CHECK(mine.size() == count_of(rel),
               "gather: contribution size mismatch");

  std::vector<Buffer> held(static_cast<std::size_t>(g));
  held[static_cast<std::size_t>(rel)] = std::move(mine);

  const auto path = path_of(rel, g);
  std::vector<Buffer> window;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const Split& s = *it;
    if (rel == s.lo) {
      const Buffer payload = comm.recv(abs_of(s.mid), tag);
      std::size_t pos = 0;
      for (int q = s.mid; q < s.hi; ++q) {
        const std::size_t c = count_of(q);
        CATRSM_ASSERT(pos + c <= payload.size(), "gather: short payload");
        held[static_cast<std::size_t>(q)] = payload.slice(pos, c);
        pos += c;
      }
      CATRSM_ASSERT(pos == payload.size(), "gather: long payload");
    } else if (rel == s.mid) {
      window.assign(held.begin() + s.mid, held.begin() + s.hi);
      comm.send(abs_of(s.lo), sim::concat(window), tag);
      return {};  // done: everything forwarded to the parent
    }
  }

  if (rel != 0) return {};
  std::vector<Buffer> ordered(static_cast<std::size_t>(g));
  for (int a = 0; a < g; ++a) {
    const int q = ((a - root) % g + g) % g;
    const Buffer& blk = held[static_cast<std::size_t>(q)];
    CATRSM_ASSERT(blk.size() == counts[static_cast<std::size_t>(a)],
                  "gather: missing block");
    ordered[static_cast<std::size_t>(a)] = blk;
  }
  return sim::concat(ordered);
}

// ---------------------------------------------------------------------------
// Composite collectives (Chan et al. constructions, as in the paper).

Buffer bcast(const sim::Comm& comm, int root, Buffer data, std::size_t count) {
  const int g = comm.size();
  if (g == 1) {
    CATRSM_CHECK(data.size() == count, "bcast: count mismatch at root");
    return data;
  }
  if (comm.rank() == root)
    CATRSM_CHECK(data.size() == count, "bcast: count mismatch at root");
  const Counts counts = even_counts(count, g);
  Buffer part = scatter(comm, root, std::move(data), counts);
  return allgather(comm, std::move(part), counts);
}

Buffer reduce(const sim::Comm& comm, int root, Buffer full) {
  const int g = comm.size();
  if (g == 1) return full;
  const Counts counts = even_counts(full.size(), g);
  Buffer part = reduce_scatter(comm, std::move(full), counts);
  return gather(comm, root, std::move(part), counts);
}

Buffer allreduce(const sim::Comm& comm, Buffer full) {
  const int g = comm.size();
  if (g == 1) return full;
  const Counts counts = even_counts(full.size(), g);
  Buffer part = reduce_scatter(comm, std::move(full), counts);
  return allgather(comm, std::move(part), counts);
}

void barrier(const sim::Comm& comm) {
  const int g = comm.size();
  CheckScope check(comm, CollOp::kBarrier, -1, nullptr, 0);
  const int tag = coll_tag(CollOp::kBarrier, comm);
  for (int d = 1; d < g; d <<= 1) {
    const int dst = (comm.rank() + d) % g;
    const int src = ((comm.rank() - d) % g + g) % g;
    comm.shift(dst, src, {}, tag);
  }
}

}  // namespace catrsm::coll
