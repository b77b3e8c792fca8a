#include "model/tuning.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace catrsm::model {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kRecursive:
      return "rec-trsm";
    case Algorithm::kIterative:
      return "it-inv-trsm";
    case Algorithm::kTrsm2D:
      return "trsm-2d";
    case Algorithm::kTrsv1D:
      return "trsv-1d";
  }
  return "?";
}

std::pair<int, int> nearest_grid(int p, double ideal_p1) {
  CATRSM_CHECK(p >= 1, "nearest_grid: p must be positive");
  int best_p1 = 1;
  double best_gap = std::numeric_limits<double>::max();
  for (int p1 = 1; p1 * p1 <= p; ++p1) {
    if (p % (p1 * p1) != 0) continue;
    const double gap = std::abs(std::log2(static_cast<double>(p1)) -
                                std::log2(std::max(ideal_p1, 1.0)));
    if (gap < best_gap) {
      best_gap = gap;
      best_p1 = p1;
    }
  }
  return {best_p1, p / (best_p1 * best_p1)};
}

int it_inv_nblocks(long long n, long long k, int p) {
  const double dn = static_cast<double>(n);
  const Tuning t =
      tune(dn, static_cast<double>(k), static_cast<double>(p));
  return std::clamp<int>(static_cast<int>(std::llround(dn / t.n0)), 1,
                         static_cast<int>(std::min<long long>(n, p)));
}

namespace {

/// Recursive-grid shape per Section IV: pc = max(sqrt p, min(p, sqrt(pk/n)))
/// rounded to a valid pr * pc = p factorization with pr | pc.
std::pair<int, int> rec_grid(long long n, long long k, int p) {
  const double ideal_pc = std::max(
      std::sqrt(static_cast<double>(p)),
      std::min(static_cast<double>(p),
               std::sqrt(static_cast<double>(p) * k / std::max<long long>(n, 1))));
  int best_pr = 1, best_pc = p;
  double best_gap = std::numeric_limits<double>::max();
  for (int pr = 1; pr * pr <= p; ++pr) {
    if (p % pr != 0) continue;
    const int pc = p / pr;
    if (pc % pr != 0) continue;  // rec_trsm requires pr | pc
    const double gap =
        std::abs(std::log2(static_cast<double>(pc)) - std::log2(ideal_pc));
    if (gap < best_gap) {
      best_gap = gap;
      best_pr = pr;
      best_pc = pc;
    }
  }
  return {best_pr, best_pc};
}

}  // namespace

Config configure_forced(long long n, long long k, int p, Algorithm force) {
  CATRSM_CHECK(n >= 1 && k >= 1 && p >= 1, "configure: bad problem shape");
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double dp = static_cast<double>(p);

  Config cfg;
  cfg.regime = classify(dn, dk, dp);
  cfg.algorithm = force;

  const Tuning t = tune(dn, dk, dp);
  const auto [p1, p2] = nearest_grid(p, t.p1);
  cfg.p1 = p1;
  cfg.p2 = p2;
  cfg.nblocks = it_inv_nblocks(n, k, p);
  const auto [pr, pc] = rec_grid(n, k, p);
  cfg.pr = pr;
  cfg.pc = pc;

  switch (force) {
    case Algorithm::kIterative:
      cfg.predicted =
          it_inv_breakdown(dn, dk, dn / cfg.nblocks, cfg.p1, cfg.p2, t.r1,
                           t.r2)
              .total();
      break;
    case Algorithm::kRecursive:
      cfg.predicted = rec_trsm_cost(dn, dk, dp);
      break;
    case Algorithm::kTrsm2D: {
      const double nb = std::max(1.0, dn / (4.0 * std::sqrt(dp)));
      cfg.predicted = Cost{dn / nb * log2p(dp),
                           dn * dn / cfg.pr + dn * dk / cfg.pc + dn * nb,
                           dn * dn * dk / dp};
      break;
    }
    case Algorithm::kTrsv1D:
      cfg.predicted = Cost{2.0 * dn, dn * dk, dn * dn * dk / dp};
      break;
  }
  return cfg;
}

Config configure(long long n, long long k, int p, sim::MachineParams mp) {
  // Single-vector solves: the Heath-Romine ring is the classical optimum
  // and the matrix-algorithm cost models are unreliable there (their
  // leading-order forms drop the base-case terms that dominate at k = 1).
  if (k == 1 && n > p) return configure_forced(n, k, p, Algorithm::kTrsv1D);

  // Otherwise evaluate every matrix algorithm's predicted time under the
  // machine parameters and take the minimum — the a-priori decision
  // procedure the paper's analysis enables.
  Config best;
  double best_time = std::numeric_limits<double>::max();
  for (const Algorithm a : {Algorithm::kIterative, Algorithm::kRecursive,
                            Algorithm::kTrsm2D}) {
    const Config cfg = configure_forced(n, k, p, a);
    const double t = cfg.predicted.time(mp);
    if (t < best_time) {
      best_time = t;
      best = cfg;
    }
  }
  return best;
}

}  // namespace catrsm::model
