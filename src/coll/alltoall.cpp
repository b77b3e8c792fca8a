#include "coll/alltoall.hpp"

#include <utility>

#include "coll/check_hook.hpp"
#include "support/check.hpp"

namespace catrsm::coll {

namespace {

/// An in-flight routed block: (final destination, original source, payload).
struct Routed {
  int dst;
  int src;
  Buffer data;
};

void serialize(const Routed& b, Buf& out) {
  out.push_back(static_cast<double>(b.dst));
  out.push_back(static_cast<double>(b.src));
  out.push_back(static_cast<double>(b.data.size()));
  out.insert(out.end(), b.data.begin(), b.data.end());
}

/// Parse routed blocks out of one incoming payload; each block's data is a
/// zero-copy view of the payload slab.
std::vector<Routed> deserialize(const Buffer& in) {
  std::vector<Routed> blocks;
  std::size_t pos = 0;
  while (pos < in.size()) {
    CATRSM_ASSERT(pos + 3 <= in.size(), "alltoallv: truncated header");
    Routed b;
    b.dst = static_cast<int>(in[pos]);
    b.src = static_cast<int>(in[pos + 1]);
    const auto len = static_cast<std::size_t>(in[pos + 2]);
    pos += 3;
    CATRSM_ASSERT(pos + len <= in.size(), "alltoallv: truncated payload");
    b.data = in.slice(pos, len);
    pos += len;
    blocks.push_back(std::move(b));
  }
  return blocks;
}

std::size_t total_words(const std::vector<Buffer>& to_send) {
  std::size_t w = 0;
  for (const Buffer& b : to_send) w += b.size();
  return w;
}

std::vector<Buffer> alltoallv_bruck(const sim::Comm& comm,
                                    std::vector<Buffer> to_send) {
  const int g = comm.size();
  const int r = comm.rank();
  // Per-pair payload sizes are rank-local by design, so no counts are
  // registered for validation — only the op sequence itself.
  CheckScope check(comm, CollOp::kAlltoallBruck, -1, nullptr,
                   total_words(to_send));
  const int tag = coll_tag(CollOp::kAlltoallBruck, comm);

  std::vector<Buffer> result(static_cast<std::size_t>(g));
  result[static_cast<std::size_t>(r)] =
      std::move(to_send[static_cast<std::size_t>(r)]);

  std::vector<Routed> in_flight;
  for (int d = 0; d < g; ++d) {
    if (d == r) continue;
    in_flight.push_back({d, r, std::move(to_send[static_cast<std::size_t>(d)])});
  }

  // Round t forwards every block whose remaining destination distance has
  // bit t set to the rank 2^t ahead; after ceil(log g) rounds all distances
  // are consumed.
  for (int bit = 1; bit < g; bit <<= 1) {
    Buf payload;
    std::vector<Routed> keep;
    for (auto& b : in_flight) {
      const int dist = ((b.dst - r) % g + g) % g;
      if (dist & bit) {
        serialize(b, payload);
      } else {
        keep.push_back(std::move(b));
      }
    }
    const int dst = (r + bit) % g;
    const int src = ((r - bit) % g + g) % g;
    const Buffer incoming = comm.shift(dst, src, std::move(payload), tag);
    in_flight = std::move(keep);
    for (auto& b : deserialize(incoming)) {
      if (b.dst == r) {
        result[static_cast<std::size_t>(b.src)] = std::move(b.data);
      } else {
        in_flight.push_back(std::move(b));
      }
    }
  }
  CATRSM_ASSERT(in_flight.empty(), "alltoallv: undelivered blocks");
  return result;
}

}  // namespace

std::vector<Buffer> alltoallv(const sim::Comm& comm,
                              std::vector<Buffer> to_send) {
  CATRSM_CHECK(static_cast<int>(to_send.size()) == comm.size(),
               "alltoallv: need one payload slot per rank");
  if (comm.size() == 1) {
    return to_send;
  }
  return alltoallv_bruck(comm, std::move(to_send));
}

std::vector<Buffer> alltoallv(const sim::Comm& comm, std::vector<Buf> to_send) {
  std::vector<Buffer> bufs;
  bufs.reserve(to_send.size());
  for (auto& v : to_send) bufs.emplace_back(std::move(v));
  return alltoallv(comm, std::move(bufs));
}

}  // namespace catrsm::coll
