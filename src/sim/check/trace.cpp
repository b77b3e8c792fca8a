#include "sim/check/trace.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace catrsm::sim::check {

std::uint64_t hash_words(const double* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

// ---------------------------------------------------------------------------
// TraceRecorder

TraceRecorder::TraceRecorder(int p, const MachineParams& params,
                             bool capture_payloads) {
  trace_.p = p;
  trace_.payloads = capture_payloads;
  trace_.params = params;
  trace_.events.resize(static_cast<std::size_t>(p));
}

void TraceRecorder::on_send(int rank, int dst, int tag, const Buffer& data,
                            double vtime) {
  TraceEvent ev;
  ev.kind = EventKind::kSend;
  ev.peer = dst;
  ev.tag = tag;
  ev.words = data.size();
  ev.hash = hash_words(data.data(), data.size());
  ev.vtime = vtime;
  if (trace_.payloads) ev.payload = data.to_vector();
  trace_.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
}

void TraceRecorder::on_recv(int rank, int src, int tag, const Buffer& data,
                            double vtime) {
  TraceEvent ev;
  ev.kind = EventKind::kRecv;
  ev.peer = src;
  ev.tag = tag;
  ev.words = data.size();
  ev.hash = hash_words(data.data(), data.size());
  ev.vtime = vtime;
  trace_.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
}

void TraceRecorder::on_shift(int rank, int dst, int src, int tag,
                             const Buffer& sent, const Buffer& got,
                             double vtime) {
  TraceEvent ev;
  ev.kind = EventKind::kShift;
  ev.peer = dst;
  ev.peer2 = src;
  ev.tag = tag;
  ev.words = sent.size();
  ev.words2 = got.size();
  ev.hash = hash_words(got.data(), got.size());
  ev.hash2 = hash_words(sent.data(), sent.size());
  ev.vtime = vtime;
  if (trace_.payloads) ev.payload = sent.to_vector();
  trace_.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
}

void TraceRecorder::on_flops(int rank, double f, double vtime) {
  TraceEvent ev;
  ev.kind = EventKind::kFlops;
  ev.flops = f;
  ev.vtime = vtime;
  trace_.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
}

void TraceRecorder::on_coll(int rank, bool enter, int family,
                            std::uint64_t epoch, std::size_t words,
                            double vtime) {
  TraceEvent ev;
  ev.kind = enter ? EventKind::kCollEnter : EventKind::kCollExit;
  ev.peer = family;
  ev.tag = static_cast<std::int32_t>(epoch & 0x7fffffffu);
  ev.words = words;
  ev.vtime = vtime;
  trace_.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
}

void TraceRecorder::finish_run(const std::vector<Cost>& final_cost,
                               const std::vector<double>& final_vtime,
                               double critical_time) {
  trace_.final_cost = final_cost;
  trace_.final_vtime = final_vtime;
  trace_.critical_time = critical_time;
  complete_ = true;
}

Trace TraceRecorder::take() { return std::move(trace_); }

// ---------------------------------------------------------------------------
// Serialization: fixed header, then per rank a u64 event count followed by
// fixed-size records with an optional trailing payload array.

namespace {

constexpr std::uint32_t kMagic = 0x43545243u;  // "CTRC"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  CATRSM_CHECK(static_cast<bool>(is), "trace: truncated file");
  return v;
}

bool has_payload(const TraceEvent& ev) {
  return ev.kind == EventKind::kSend || ev.kind == EventKind::kShift;
}

}  // namespace

void Trace::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CATRSM_CHECK(os.is_open(), "trace: cannot open '" + path + "' for write");
  put(os, kMagic);
  put(os, kVersion);
  put(os, static_cast<std::int32_t>(p));
  put(os, static_cast<std::uint8_t>(payloads ? 1 : 0));
  put(os, params.alpha);
  put(os, params.beta);
  put(os, params.gamma);
  for (const auto& stream : events) {
    put(os, static_cast<std::uint64_t>(stream.size()));
    for (const TraceEvent& ev : stream) {
      put(os, static_cast<std::uint8_t>(ev.kind));
      put(os, ev.peer);
      put(os, ev.peer2);
      put(os, ev.tag);
      put(os, ev.words);
      put(os, ev.words2);
      put(os, ev.hash);
      put(os, ev.hash2);
      put(os, ev.flops);
      put(os, ev.vtime);
      if (payloads && has_payload(ev)) {
        put(os, static_cast<std::uint64_t>(ev.payload.size()));
        os.write(reinterpret_cast<const char*>(ev.payload.data()),
                 static_cast<std::streamsize>(ev.payload.size() *
                                              sizeof(double)));
      }
    }
  }
  for (const Cost& c : final_cost) {
    put(os, c.msgs);
    put(os, c.words);
    put(os, c.flops);
  }
  for (double t : final_vtime) put(os, t);
  put(os, critical_time);
  CATRSM_CHECK(static_cast<bool>(os), "trace: write to '" + path + "' failed");
}

Trace Trace::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CATRSM_CHECK(is.is_open(), "trace: cannot open '" + path + "'");
  CATRSM_CHECK(get<std::uint32_t>(is) == kMagic,
               "trace: '" + path + "' is not a catrsm trace file");
  CATRSM_CHECK(get<std::uint32_t>(is) == kVersion,
               "trace: unsupported trace version in '" + path + "'");
  Trace t;
  t.p = get<std::int32_t>(is);
  CATRSM_CHECK(t.p >= 1 && t.p <= (1 << 20), "trace: implausible rank count");
  t.payloads = get<std::uint8_t>(is) != 0;
  t.params.alpha = get<double>(is);
  t.params.beta = get<double>(is);
  t.params.gamma = get<double>(is);
  t.events.resize(static_cast<std::size_t>(t.p));
  for (auto& stream : t.events) {
    const auto count = get<std::uint64_t>(is);
    stream.resize(count);
    for (TraceEvent& ev : stream) {
      ev.kind = static_cast<EventKind>(get<std::uint8_t>(is));
      CATRSM_CHECK(static_cast<std::uint8_t>(ev.kind) <=
                       static_cast<std::uint8_t>(EventKind::kCollExit),
                   "trace: corrupt event kind");
      ev.peer = get<std::int32_t>(is);
      ev.peer2 = get<std::int32_t>(is);
      ev.tag = get<std::int32_t>(is);
      ev.words = get<std::uint64_t>(is);
      ev.words2 = get<std::uint64_t>(is);
      ev.hash = get<std::uint64_t>(is);
      ev.hash2 = get<std::uint64_t>(is);
      ev.flops = get<double>(is);
      ev.vtime = get<double>(is);
      if (t.payloads && has_payload(ev)) {
        const auto n = get<std::uint64_t>(is);
        CATRSM_CHECK(n == ev.words, "trace: payload length disagrees");
        ev.payload.resize(n);
        is.read(reinterpret_cast<char*>(ev.payload.data()),
                static_cast<std::streamsize>(n * sizeof(double)));
        CATRSM_CHECK(static_cast<bool>(is), "trace: truncated payload");
      }
    }
  }
  t.final_cost.resize(static_cast<std::size_t>(t.p));
  for (Cost& c : t.final_cost) {
    c.msgs = get<double>(is);
    c.words = get<double>(is);
    c.flops = get<double>(is);
  }
  t.final_vtime.resize(static_cast<std::size_t>(t.p));
  for (double& v : t.final_vtime) v = get<double>(is);
  t.critical_time = get<double>(is);
  return t;
}

// ---------------------------------------------------------------------------
// Replay

namespace {

[[noreturn]] void replay_fault(int rank, std::size_t index, const char* what,
                               const std::string& detail) {
  std::ostringstream os;
  os << "trace replay diverged at rank " << rank << ", event " << index
     << ": " << what;
  if (!detail.empty()) os << " (" << detail << ")";
  throw ReplayMismatchError(os.str());
}

[[noreturn]] void final_fault(int rank, const char* what,
                              const std::string& detail) {
  std::ostringstream os;
  os << "trace replay diverged at rank " << rank << ": " << what << " ("
     << detail << ")";
  throw ReplayMismatchError(os.str());
}

std::string two(const char* name, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << name << ": replayed " << got << ", recorded " << want;
  return os.str();
}

}  // namespace

RunStats replay(Machine& m, const Trace& trace) {
  CATRSM_CHECK(trace.payloads,
               "replay needs a payload-capturing trace (set_tracing with "
               "capture_payloads=true)");
  CATRSM_CHECK(m.nprocs() == trace.p,
               "replay: machine has " + std::to_string(m.nprocs()) +
                   " ranks, trace has " + std::to_string(trace.p));
  CATRSM_CHECK(m.params().alpha == trace.params.alpha &&
                   m.params().beta == trace.params.beta &&
                   m.params().gamma == trace.params.gamma,
               "replay: machine params differ from the traced run");
  CATRSM_CHECK(trace.final_cost.size() == static_cast<std::size_t>(trace.p),
               "replay: trace was not finalized (run failed or still open?)");

  RunStats stats = m.run([&trace](Rank& r) {
    const auto& stream = trace.events[static_cast<std::size_t>(r.id())];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const TraceEvent& ev = stream[i];
      switch (ev.kind) {
        case EventKind::kSend:
          r.send(ev.peer, Buffer(std::vector<double>(ev.payload)), ev.tag);
          break;
        case EventKind::kRecv: {
          const Buffer got = r.recv(ev.peer, ev.tag);
          if (got.size() != ev.words)
            replay_fault(r.id(), i, "received payload size differs",
                         two("words", static_cast<double>(got.size()),
                             static_cast<double>(ev.words)));
          if (hash_words(got.data(), got.size()) != ev.hash)
            replay_fault(r.id(), i, "received payload bytes differ",
                         "recv from rank " + std::to_string(ev.peer) +
                             ", tag " + std::to_string(ev.tag));
          break;
        }
        case EventKind::kShift: {
          const Buffer got = r.shift(ev.peer, ev.peer2,
                                     Buffer(std::vector<double>(ev.payload)),
                                     ev.tag);
          if (got.size() != ev.words2)
            replay_fault(r.id(), i, "shifted payload size differs",
                         two("words", static_cast<double>(got.size()),
                             static_cast<double>(ev.words2)));
          if (hash_words(got.data(), got.size()) != ev.hash)
            replay_fault(r.id(), i, "shifted payload bytes differ",
                         "shift recv from rank " + std::to_string(ev.peer2));
          break;
        }
        case EventKind::kFlops:
          r.charge_flops(ev.flops);
          break;
        case EventKind::kCollEnter:
        case EventKind::kCollExit:
          break;  // markers only; their traffic is replayed event by event
      }
      if (ev.vtime != r.vtime())
        replay_fault(r.id(), i, "virtual clock diverged",
                     two("vtime", r.vtime(), ev.vtime));
    }
  });

  for (int r = 0; r < trace.p; ++r) {
    const Cost& got = stats.per_rank[static_cast<std::size_t>(r)];
    const Cost& want = trace.final_cost[static_cast<std::size_t>(r)];
    if (got.msgs != want.msgs)
      final_fault(r, "final S differs", two("msgs", got.msgs, want.msgs));
    if (got.words != want.words)
      final_fault(r, "final W differs", two("words", got.words, want.words));
    if (got.flops != want.flops)
      final_fault(r, "final F differs", two("flops", got.flops, want.flops));
  }
  if (stats.critical_time != trace.critical_time)
    final_fault(0, "critical time differs",
                two("critical_time", stats.critical_time,
                    trace.critical_time));
  return stats;
}

// ---------------------------------------------------------------------------
// Diff

namespace {

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kSend:
      return "send";
    case EventKind::kRecv:
      return "recv";
    case EventKind::kShift:
      return "shift";
    case EventKind::kFlops:
      return "flops";
    case EventKind::kCollEnter:
      return "coll-enter";
    case EventKind::kCollExit:
      return "coll-exit";
  }
  return "?";
}

}  // namespace

std::string diff(const Trace& a, const Trace& b) {
  if (a.p != b.p) return "rank counts differ";
  for (int r = 0; r < a.p; ++r) {
    const auto& ea = a.events[static_cast<std::size_t>(r)];
    const auto& eb = b.events[static_cast<std::size_t>(r)];
    const std::size_t n = std::min(ea.size(), eb.size());
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& x = ea[i];
      const TraceEvent& y = eb[i];
      std::ostringstream os;
      os << "rank " << r << ", event " << i << ": ";
      if (x.kind != y.kind) {
        os << kind_name(x.kind) << " vs " << kind_name(y.kind);
        return os.str();
      }
      if (x.peer != y.peer || x.peer2 != y.peer2 || x.tag != y.tag) {
        os << kind_name(x.kind) << " peers/tags differ";
        return os.str();
      }
      if (x.words != y.words || x.words2 != y.words2) {
        os << kind_name(x.kind) << " payload sizes differ";
        return os.str();
      }
      if (x.hash != y.hash || x.hash2 != y.hash2) {
        os << kind_name(x.kind) << " payload bytes differ";
        return os.str();
      }
      if (x.flops != y.flops) {
        os << "flop charges differ";
        return os.str();
      }
      if (x.vtime != y.vtime) {
        os << "virtual clocks differ";
        return os.str();
      }
    }
    if (ea.size() != eb.size())
      return "rank " + std::to_string(r) + ": event counts differ (" +
             std::to_string(ea.size()) + " vs " + std::to_string(eb.size()) +
             ")";
  }
  if (a.critical_time != b.critical_time) return "critical times differ";
  return {};
}

}  // namespace catrsm::sim::check
