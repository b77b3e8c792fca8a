#include "support/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace catrsm::env {

namespace {

enum class Parse { kUnset, kOk, kBad };

Parse parse_long(const char* name, long* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return Parse::kUnset;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) return Parse::kBad;
  *out = n;
  return Parse::kOk;
}

void warn(const char* name, const char* why, int fallback) {
  std::fprintf(stderr,
               "catrsm: ignoring %s=\"%s\" (%s); using default %d\n",
               name, std::getenv(name), why, fallback);
}

}  // namespace

int int_or(const char* name, int fallback, long lo, long hi) {
  long n = 0;
  switch (parse_long(name, &n)) {
    case Parse::kUnset:
      return fallback;
    case Parse::kBad:
      warn(name, "not an integer", fallback);
      return fallback;
    case Parse::kOk:
      break;
  }
  if (n < lo || n > hi) {
    warn(name, "out of range", fallback);
    return fallback;
  }
  return static_cast<int>(n);
}

bool flag_or(const char* name, bool fallback) {
  long n = 0;
  switch (parse_long(name, &n)) {
    case Parse::kUnset:
      return fallback;
    case Parse::kBad:
      warn(name, "not an integer", fallback ? 1 : 0);
      return fallback;
    case Parse::kOk:
      return n != 0;
  }
  return fallback;
}

std::string string_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

void warn_invalid(const char* name, const std::string& why,
                  const std::string& fallback_desc) {
  const char* v = std::getenv(name);
  std::fprintf(stderr, "catrsm: ignoring %s=\"%s\" (%s); using %s\n", name,
               v == nullptr ? "" : v, why.c_str(), fallback_desc.c_str());
}

}  // namespace catrsm::env
