#pragma once
// Validated environment-variable parsing for the CATRSM_* knobs.
//
// The seed read tuning knobs with std::atoi, so CATRSM_SIM_WORKERS=banana
// silently became 0 workers and CATRSM_KERNEL_THREADS=-4 silently fell
// back — the user never learns their override was dropped. These helpers
// parse strictly (the whole value must be an integer), enforce a range,
// and on any malformed or out-of-range value print one warning to stderr
// and return the documented fallback.

#include <string>

namespace catrsm::env {

/// Parse `name` as a strict decimal integer in [lo, hi]. Unset or empty
/// returns `fallback` silently; malformed (trailing garbage, overflow) or
/// out-of-range values warn on stderr and return `fallback`.
int int_or(const char* name, int fallback, long lo, long hi);

/// Parse `name` as a boolean flag: any valid integer, nonzero = true (so
/// CATRSM_SIM_CHECK=1 arms the collective matcher). Unset or empty returns
/// `fallback`; malformed values warn and return `fallback`.
bool flag_or(const char* name, bool fallback);

/// Read `name` as a string. Unset or empty returns `fallback` silently.
/// Validation is the caller's job (the accepted vocabulary is knob-
/// specific); reject a value by calling `warn_invalid` so every knob warns
/// with the same one-line stderr discipline.
std::string string_or(const char* name, const std::string& fallback);

/// Print the shared warn-and-fallback line for a rejected value of `name`:
///   catrsm: ignoring NAME="value" (why); using fallback
void warn_invalid(const char* name, const std::string& why,
                  const std::string& fallback_desc);

}  // namespace catrsm::env
