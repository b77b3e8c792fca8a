#pragma once
// Output side of bench_e2e: the metric tables (the names BENCHMARK.json
// must list), span recording with Chrome trace-event export, the host
// fingerprint, and small JSON helpers.

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "summary.hpp"

extern char** environ;

namespace catrsm::bench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since process start (the span time base).
inline double now_ms() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------------------
// JSON helpers

/// Shortest round-trip decimal form; non-finite values become null.
inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string summary_json(const Summary& s) {
  return "{\"n\": " + std::to_string(s.n) + ", \"min\": " + num(s.min) +
         ", \"p25\": " + num(s.p25) + ", \"median\": " + num(s.median) +
         ", \"p75\": " + num(s.p75) + ", \"p90\": " + num(s.p90) +
         ", \"max\": " + num(s.max) + ", \"p90_resolved\": " +
         (s.p90_resolved ? "true" : "false") + "}";
}

// ---------------------------------------------------------------------------
// Metric tables

struct MetricDef {
  std::string name;
  std::string unit;
};

/// What a user of the library sees, reported by every untraced run.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"solves_per_s", "requests/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"cpu_ms_per_request", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"modeled_critical_us", "virtual_us"},
      {"modeled_msgs", "msgs"},
      {"modeled_words", "words"},
      {"modeled_flops", "flops"},
  };
  return defs;
}

/// Collective families as trace events number them (coll::CollOp order).
inline constexpr const char* kCollFamilies[] = {
    "allgather", "reduce_scatter", "scatter",         "gather",
    "barrier",   "alltoall_bruck", "alltoall_direct",
};
/// Phase labels the distributed bodies charge inside "algorithm".
inline constexpr const char* kPhases[] = {
    "inversion", "setup",        "solve",         "update",
    "cholesky",  "forward-trsm", "backward-trsm",
};

/// One number per layer, reported by the traced run.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d{
        {"host.calib_gflops_start", "GF/s"},
        {"host.calib_gflops_end", "GF/s"},
        {"trace_overhead", "ratio"},
        {"api.upload_ms", "ms"},
        {"api.download_ms", "ms"},
        {"api.execute_ms", "ms"},
        {"api.driver_overhead_ms", "ms"},
        {"api.output_collect_words", "words"},
        {"api.diag_inversions_per_request", "count"},
        {"api.plan_cache_misses", "count"},
        {"api.resident_bytes_peak", "bytes"},
        {"model.plan_ms", "ms"},
        {"sim.empty_run_us", "us"},
        {"sim.replay_ms", "ms"},
        {"sim.runs_per_request", "count"},
        {"sim.p2p_events_per_request", "count"},
        {"sim.words_total_per_request", "words"},
        {"coll.calls_per_request", "count"},
        {"coll.words_per_request", "words"},
    };
    for (const char* f : kCollFamilies)
      d.push_back({std::string("coll.calls.") + f, "count"});
    d.push_back({"trsm.compute_ms", "ms"});
    d.push_back({"trsm.local_gflops", "GF/s"});
    for (const char* ph : kPhases) {
      const std::string base = std::string("trsm.phase.") + ph;
      d.push_back({base + ".msgs", "msgs"});
      d.push_back({base + ".words", "words"});
      d.push_back({base + ".flops", "flops"});
    }
    d.push_back({"dist.redistribute_words", "words"});
    d.push_back({"la.gemm_gflops", "GF/s"});
    d.push_back({"la.trsm_left_gflops", "GF/s"});
    d.push_back({"la.tri_inv_gflops", "GF/s"});
    d.push_back({"la.residual_ms", "ms"});
    return d;
  }();
  return defs;
}

/// Names the metric-name guard accepts: [A-Za-z0-9_.-]+.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans

/// Spans the benchmark records around each call it makes into the library
/// (the library itself is not instrumented). Kept in memory and written as
/// Chrome trace-event JSON when the run ends. Spans of one request share
/// its id; `stage` separates set-up, the served loop and the per-layer
/// samples.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* stage;
    double start_ms;
    double end_ms;
    int parent;
    long request;
    int tid;
  };

  void set_stage(const char* stage) { stage_ = stage; }

  int begin(const char* name, int parent, long request, int tid) {
    spans_.push_back({name, stage_, now_ms(), -1.0, parent, request, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ms = now_ms(); }

  /// Durations (ms) of the closed spans called `name` in `stage`.
  std::vector<double> durations(std::string_view name,
                                std::string_view stage) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.end_ms >= 0.0 && name == s.name && stage == s.stage)
        out.push_back(s.end_ms - s.start_ms);
    return out;
  }

  /// Largest HandleStore residency observed while the log was attached.
  std::uint64_t resident_peak = 0;

  bool write_chrome(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ms < 0.0) continue;
      f << (first ? "" : ",\n") << "{\"name\": " << quoted(s.name)
        << ", \"cat\": " << quoted(s.stage)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << num(s.start_ms * 1e3)
        << ", \"dur\": " << num((s.end_ms - s.start_ms) * 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
      first = false;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  const char* stage_ = "setup";
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent, long request, int tid = 0)
      : log_(log),
        id_(log != nullptr ? log->begin(name, parent, request, tid) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Host fingerprint

inline int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Every CATRSM_* variable set in the environment, as a JSON object.
inline std::string catrsm_env_json() {
  std::string out = "{";
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("CATRSM_", 0) != 0) continue;
    const auto eq = kv.find('=');
    if (out.size() > 1) out += ", ";
    out += quoted(kv.substr(0, eq)) + ": " +
           quoted(eq == std::string_view::npos ? "" : kv.substr(eq + 1));
  }
  return out + "}";
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// User + system CPU time of every thread of this process, in ms.
inline double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// CPU time of the calling thread, in ms.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Time the hypervisor ran other guests on this machine's CPUs ("steal",
/// summed over CPUs, in clock ticks); 0 where /proc/stat has no such field.
inline long steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  long v[8] = {};
  f >> cpu;
  for (long& x : v) f >> x;
  return f ? v[7] : 0;
}

}  // namespace catrsm::bench
