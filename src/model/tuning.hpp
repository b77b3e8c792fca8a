#pragma once
// Concrete (integer) parameter selection: turn the Section VIII asymptotic
// tuning into a runnable configuration — a valid factorization p = p1^2 p2,
// a block count for the diagonal inverter, and an algorithm choice.
//
// This is what a production TRSM wrapper needs at the call boundary: the
// paper gives real-valued optima; the machine needs integers that divide.

#include "model/costs.hpp"

namespace catrsm::model {

enum class Algorithm {
  kRecursive,   // Section IV
  kIterative,   // Section VI (the paper's contribution)
  kTrsm2D,      // conventional 2D fan-out baseline
  kTrsv1D,      // Heath-Romine ring (k very small)
};

const char* algorithm_name(Algorithm a);

struct Config {
  Regime regime = Regime::k3D;
  Algorithm algorithm = Algorithm::kIterative;
  int p1 = 1;       // iterative-grid shape, p1^2 * p2 == p
  int p2 = 1;
  int nblocks = 1;  // diagonal blocks for the iterative algorithm
  int pr = 1;       // recursive-grid shape, pr * pc == p
  int pc = 1;
  /// Predicted cost of the chosen algorithm at these parameters.
  sim::Cost predicted;
};

/// Factorize p as p1^2 * p2 with p1 as close as possible to `ideal_p1`.
std::pair<int, int> nearest_grid(int p, double ideal_p1);

/// The iterative algorithm's diagonal block count n / n0 for an n x k
/// solve on p ranks, with n0 from the Section VIII tuning tables,
/// clamped to [1, min(n, p)].
int it_inv_nblocks(long long n, long long k, int p);

/// Pick the algorithm and all integer parameters for an n x k solve on p
/// ranks by comparing the predicted alpha-beta-gamma times of every
/// applicable algorithm under `mp` — the a-priori decision procedure the
/// paper's cost analysis enables. `configure_forced` overrides the
/// algorithm choice (parameters still tuned).
Config configure(long long n, long long k, int p,
                 sim::MachineParams mp = sim::MachineParams{});
Config configure_forced(long long n, long long k, int p, Algorithm force);

}  // namespace catrsm::model
