#pragma once
// Distribution summary of a timing sample: every wall-clock number the
// end-to-end benchmark reports is a quantile of one of these, never a
// single sample.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace catrsm::bench {

struct Summary {
  std::size_t n = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  /// True when at least ten samples lie above p90, so the p90 is a
  /// measured tail rather than an extrapolation from a handful of points.
  bool p90_resolved = false;
};

/// Quantile f in [0, 1] of sorted samples, interpolating linearly between
/// neighbouring order statistics (an even count's median is the mean of
/// the two middle samples).
inline double quantile_sorted(const std::vector<double>& s, double f) {
  if (s.empty()) return 0.0;
  const double pos = f * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

inline Summary summarize(std::vector<double> samples) {
  Summary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.min = samples.front();
  out.p25 = quantile_sorted(samples, 0.25);
  out.median = quantile_sorted(samples, 0.50);
  out.p75 = quantile_sorted(samples, 0.75);
  out.p90 = quantile_sorted(samples, 0.90);
  out.max = samples.back();
  const auto beyond = samples.end() - std::upper_bound(samples.begin(),
                                                       samples.end(), out.p90);
  out.p90_resolved = beyond >= 10;
  return out;
}

}  // namespace catrsm::bench
