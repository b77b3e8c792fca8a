// E11 — algorithm crossover sweep.
//
// The practical payoff of the paper's cost analysis is an a-priori
// decision procedure: given (n, k, p, alpha, beta, gamma), pick the
// algorithm and grid before touching data. This bench sweeps the n/k
// ratio at fixed p, printing the algorithm model::configure picks and the
// *measured* winner (by critical-path time) among {iterative, recursive,
// 2D fan-out}, so the crossover locations can be compared.

#include "bench_util.hpp"

#include "api/catrsm.hpp"
#include "model/tuning.hpp"

namespace {

using namespace catrsm;
using la::index_t;

struct Measured {
  double time = 0.0;
  double s = 0.0;
};

Measured run_algo(api::Context& ctx, const la::Matrix& l, const la::Matrix& b,
                  model::Algorithm a) {
  api::TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = a;
  const api::ExecResult r =
      ctx.plan(api::trsm_op(l.rows(), b.cols(), spec))->execute(l, b);
  // Score on the solve itself.
  const sim::Cost c = r.algorithm_cost();
  return {c.time(ctx.params()), c.msgs};
}

}  // namespace

int main() {
  bench::print_header(
      "E11: algorithm crossover sweep (fixed p, varying n/k)",
      "model pick vs measured winner by alpha-beta-gamma critical path");

  const int p = 16;
  Table table({"n", "k", "regime", "t iter (us)", "t rec (us)", "t 2d (us)",
               "S iter", "S rec", "model pick", "measured winner"});
  struct Shape {
    index_t n, k;
  };
  for (const Shape s : {Shape{16, 1024}, Shape{32, 256}, Shape{64, 64},
                        Shape{128, 32}, Shape{192, 12}, Shape{256, 4}}) {
    const la::Matrix l = la::make_lower_triangular(1, s.n);
    const la::Matrix b = la::make_rhs(2, s.n, s.k);
    api::Context ctx(p);
    const Measured mit = run_algo(ctx, l, b, model::Algorithm::kIterative);
    const Measured mrec = run_algo(ctx, l, b, model::Algorithm::kRecursive);
    const Measured m2d = run_algo(ctx, l, b, model::Algorithm::kTrsm2D);
    const model::Algorithm pick =
        model::configure(s.n, s.k, p, ctx.params()).algorithm;
    const model::Algorithm winner =
        mit.time <= mrec.time && mit.time <= m2d.time
            ? model::Algorithm::kIterative
        : mrec.time <= m2d.time ? model::Algorithm::kRecursive
                                : model::Algorithm::kTrsm2D;
    table.row()
        .add(s.n)
        .add(s.k)
        .add(model::regime_name(model::classify(
            static_cast<double>(s.n), static_cast<double>(s.k), p)))
        .add(mit.time * 1e6)
        .add(mrec.time * 1e6)
        .add(m2d.time * 1e6)
        .add(mit.s)
        .add(mrec.s)
        .add(model::algorithm_name(pick))
        .add(model::algorithm_name(winner));
  }
  table.print();
  std::cout << "\nExpected: the iterative method wins across the 3D band "
               "and holds its own elsewhere at this scale; the recursive "
               "method is competitive only when it barely recurses (tiny "
               "n or huge k).\n";
  return 0;
}
