#include "sim/fault.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "coll/collectives.hpp"
#include "sim/check/fault_report.hpp"
#include "sim/check/trace.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace catrsm::sim {

namespace {

/// splitmix64 finalizer: the site-selection hash. Statistically uniform,
/// cheap, and stateless — the deterministic heart of the injector.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t mix4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                   std::uint64_t d) {
  return mix(a ^ mix(b ^ mix(c ^ mix(d))));
}

std::uint64_t pack_edge(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

// Distinct salts keep the "does this site fire" stream independent from
// the "which parameter to perturb" streams.
constexpr std::uint64_t kSiteSalt = 0x5149544553414C54ull;
constexpr std::uint64_t kParamSalt = 0x504152414D53414Cull;

/// Cap on stored log lines (the fire *count* keeps going): a rate-1 plan
/// on a big run fires thousands of times and the report only needs the
/// first few sites to name the bug.
constexpr std::size_t kMaxLogLines = 64;

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kDrop:
      return "drop";
    case FaultClass::kDuplicate:
      return "dup";
    case FaultClass::kCorrupt:
      return "corrupt";
    case FaultClass::kDelay:
      return "delay";
    case FaultClass::kSkewCollective:
      return "skew";
    case FaultClass::kKillRank:
      return "kill";
  }
  return "?";
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec) {
  if (spec.empty()) return std::nullopt;
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos) return std::nullopt;
  const std::string cls = spec.substr(0, c1);
  const std::size_t c2 = spec.find(':', c1 + 1);
  const std::string seed_s =
      spec.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                  : c2 - c1 - 1);
  FaultPlan plan;
  if (cls == "drop") {
    plan.cls = FaultClass::kDrop;
  } else if (cls == "dup") {
    plan.cls = FaultClass::kDuplicate;
  } else if (cls == "corrupt") {
    plan.cls = FaultClass::kCorrupt;
  } else if (cls == "delay") {
    plan.cls = FaultClass::kDelay;
  } else if (cls == "skew") {
    plan.cls = FaultClass::kSkewCollective;
  } else if (cls == "kill") {
    plan.cls = FaultClass::kKillRank;
  } else {
    return std::nullopt;
  }
  if (!parse_u64(seed_s, &plan.seed)) return std::nullopt;
  if (c2 != std::string::npos) {
    std::uint64_t rate = 0;
    if (!parse_u64(spec.substr(c2 + 1), &rate) || rate < 1 ||
        rate > 0xffffffffull) {
      return std::nullopt;
    }
    plan.rate = static_cast<std::uint32_t>(rate);
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_env() {
  const std::string spec = env::string_or("CATRSM_SIM_FAULT", "");
  if (spec.empty()) return std::nullopt;
  std::optional<FaultPlan> plan = parse(spec);
  if (!plan.has_value()) {
    env::warn_invalid("CATRSM_SIM_FAULT",
                      "expected <class>:<seed>[:<rate>] with class "
                      "drop|dup|corrupt|delay|skew|kill",
                      "no fault injection");
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << fault_class_name(cls) << ":" << seed << ":" << rate;
  if (!verify_transport) os << " (live transport verification off)";
  return os.str();
}

// ---------------------------------------------------------------------------
// FaultInjector

FaultInjector::FaultInjector(FaultPlan plan, int p)
    : plan_(plan), ranks_(static_cast<std::size_t>(p)) {
  CATRSM_CHECK(p >= 1, "fault injector needs at least one rank");
  if (plan_.rate < 1) plan_.rate = 1;
  // The kill site is fixed per plan, not per site hash: one victim rank
  // and one death ordinal, derived from the seed through the library Rng.
  Rng rng(plan_.seed ^ 0x4B494C4Cull);  // "KILL"
  kill_victim_ = static_cast<int>(rng.uniform_int(0, p - 1));
  kill_op_ = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
}

bool FaultInjector::fires(std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) const {
  return mix4(plan_.seed ^ kSiteSalt, a, b, c) % plan_.rate == 0;
}

void FaultInjector::record(std::string line) {
  std::lock_guard<std::mutex> lk(log_mu_);
  ++injections_;
  if (log_.size() < kMaxLogLines) log_.push_back(std::move(line));
}

int FaultInjector::injections() const {
  std::lock_guard<std::mutex> lk(log_mu_);
  return injections_;
}

std::vector<std::string> FaultInjector::injection_log() const {
  std::lock_guard<std::mutex> lk(log_mu_);
  return log_;
}

FaultInjector::Action FaultInjector::on_deliver(int src, int dst, int tag,
                                                Buffer* payload,
                                                std::uint64_t* checksum,
                                                std::uint32_t* seq) {
  RankSeq& rs = ranks_[static_cast<std::size_t>(src)];
  const std::uint32_t s = rs.send[{dst, tag}]++;
  *seq = s;
  // Checksum the payload BEFORE any corruption: the stamp travels with
  // the message and testifies to what the sender meant to say.
  *checksum = check::hash_words(payload->data(), payload->size());

  // The site's coordinates. A collective tag carries its communicator's
  // epoch, a registry id handed out in thread arrival order, so a
  // collective site keys on the tag's family band and the sender's
  // delivery ordinal within that band on this edge, which follow the
  // sender's program order.
  std::uint64_t site_tag = static_cast<std::uint64_t>(tag);
  std::uint32_t site_seq = s;
  if (tag >= coll::kTagBase) {
    const int band = coll::kTagBase + (tag - coll::kTagBase) /
                                          coll::kEpochSpace *
                                          coll::kEpochSpace;
    site_tag = static_cast<std::uint64_t>(band);
    site_seq = rs.band[{dst, band}]++;
  }
  const std::uint64_t edge = pack_edge(src, dst);
  if (!fires(edge, site_tag, site_seq)) return Action::kPass;
  std::ostringstream site;
  site << src << "->" << dst << " tag " << tag << " seq " << s << " ("
       << payload->size() << " words)";
  switch (plan_.cls) {
    case FaultClass::kDrop:
      record("dropped message " + site.str());
      return Action::kDrop;
    case FaultClass::kDuplicate:
      record("duplicated message " + site.str());
      return Action::kDuplicate;
    case FaultClass::kDelay:
      record("delayed message " + site.str());
      return Action::kDelay;
    case FaultClass::kCorrupt:
      if (!payload->empty()) {
        std::vector<double> words = payload->to_vector();
        const std::size_t at =
            mix4(plan_.seed ^ kParamSalt, edge, site_tag, site_seq) %
            words.size();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &words[at], sizeof(bits));
        bits ^= 1ull;  // flip the lowest mantissa bit: subtle, nonzero
        std::memcpy(&words[at], &bits, sizeof(bits));
        *payload = Buffer(std::move(words));
        record("corrupted word " + std::to_string(at) + " of message " +
               site.str());
      }
      break;
    case FaultClass::kSkewCollective:
    case FaultClass::kKillRank:
      break;  // injected elsewhere (coll entry / transport-op hook)
  }
  return Action::kPass;
}

void FaultInjector::verify_receive(int dst, int src, int tag,
                                   const Buffer& payload,
                                   std::uint64_t checksum, std::uint32_t seq) {
  if (!plan_.verify_transport) return;
  const std::uint64_t got = check::hash_words(payload.data(), payload.size());
  std::ostringstream site;
  site << "edge " << src << "->" << dst << " tag " << tag << " seq " << seq;
  if (got != checksum) {
    std::ostringstream os;
    os << "transport checksum mismatch on " << site.str()
       << ": payload bytes differ from the sender's stamp (in-flight "
          "corruption)";
    throw check::TransportChecksumError(os.str());
  }
  std::uint32_t& expect =
      ranks_[static_cast<std::size_t>(dst)].recv[{src, tag}];
  if (seq != expect) {
    std::ostringstream os;
    os << "transport sequence mismatch on " << site.str() << ": expected seq "
       << expect << " — "
       << (seq < expect ? "message duplicated or delivered out of order"
                        : "gap: earlier message(s) on this edge were lost");
    throw check::TransportSequenceError(os.str());
  }
  ++expect;
}

void FaultInjector::maybe_kill(int rank) {
  if (plan_.cls != FaultClass::kKillRank) return;
  if (rank != kill_victim_) return;
  const std::uint32_t op = ++victim_ops_;
  if (op != kill_op_) return;
  std::ostringstream os;
  os << "rank " << rank << " killed by fault plan " << plan_.describe()
     << " at its transport op " << op;
  record(os.str());
  throw check::RankKilledError(os.str());
}

bool FaultInjector::maybe_skew(std::uint64_t group, int world_rank,
                               int comm_rank, int comm_size, int* root,
                               std::vector<std::size_t>* counts) {
  if (plan_.cls != FaultClass::kSkewCollective || comm_size < 2) return false;
  const std::uint32_t call =
      ranks_[static_cast<std::size_t>(world_rank)].coll[group]++;
  if (!fires(group, call, 0x534B4557ull)) return false;  // "SKEW"
  const std::uint64_t param = mix4(plan_.seed ^ kParamSalt, group, call, 1);
  const int chosen = static_cast<int>(param % static_cast<unsigned>(comm_size));
  if (comm_rank != chosen) return false;

  std::ostringstream site;
  site << "group " << group << " call " << call << " at comm rank " << comm_rank
       << " (world " << world_rank << ")";
  if (root != nullptr && *root >= 0) {
    const int shift =
        1 + static_cast<int>((param >> 32) %
                             static_cast<unsigned>(comm_size - 1));
    const int skewed = (*root + shift) % comm_size;
    record("skewed collective root " + std::to_string(*root) + " -> " +
           std::to_string(skewed) + ", " + site.str());
    *root = skewed;
    return true;
  }
  if (counts != nullptr && counts->size() >= 2) {
    // Shrink a *peer* slot by one word. Never the caller's own slot (its
    // local size checks must keep passing so the collective matcher is
    // what sees the disagreement), and never an inflation — a count
    // larger than the data that actually flows could push the
    // implementation's packing arithmetic out of bounds, and the point
    // is to corrupt the metadata, not the library's memory safety.
    const std::size_t n = counts->size();
    const std::size_t start =
        (static_cast<std::size_t>(comm_rank) + 1 + (param >> 32) % (n - 1)) % n;
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t slot = (start + probe) % n;
      if (slot == static_cast<std::size_t>(comm_rank) ||
          (*counts)[slot] == 0) {
        continue;
      }
      (*counts)[slot] -= 1;
      record("skewed collective count[" + std::to_string(slot) +
             "] -= 1, " + site.str());
      return true;
    }
  }
  return false;
}

}  // namespace catrsm::sim
