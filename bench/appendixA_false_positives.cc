// Appendix A.2: false-positive control. The Chebyshev bound on
// P(r2_adj >= s | H0), the paper's worked example (n=1440, p=50 gives
// p(s) ~ 4.9e-5 / s^2), and Bonferroni / Benjamini-Hochberg corrections
// over a simulated 800-hypothesis ranking.
#include <cstdio>

#include "bench/bench_util.h"
#include "exec/worker_pool.h"
#include "stats/ols.h"
#include "stats/significance.h"

int main() {
  using namespace explainit;
  bench::PrintHeader("Appendix A: p-values and multiple-testing control");
  const size_t n = 1440, p = 50;
  std::printf("worked example: var(r2_adj | H0) for n=%zu, p=%zu = %.2e"
              " (paper: ~4.9e-5)\n",
              n, p, stats::NullAdjustedR2Variance(n, p));
  std::printf("%8s %14s %14s\n", "score", "Chebyshev p", "Beta-exact p");
  for (double s : {0.03, 0.1, 0.3, 0.5, 0.7}) {
    std::printf("%8.2f %14.3e %14.3e\n", s, stats::ChebyshevPValue(s, n, p),
                stats::BetaPValue(s, n, p));
  }

  // Empirical tail vs the Chebyshev bound (the bound must hold).
  const int reps = bench::PaperScale() ? 400 : 150;
  const size_t nn = 300, pp = 30;
  std::vector<double> adj(reps);
  exec::ParallelFor(exec::WorkerPool::Global(), reps, [&](size_t i) {
    Rng rng(4000 + i);
    la::Matrix x(nn, pp), y(nn, 1);
    rng.FillNormal(x.data(), x.size());
    rng.FillNormal(y.data(), y.size());
    auto ols = stats::OlsFit(x, y);
    if (ols.ok()) adj[i] = ols->r2_adjusted;
  });
  std::printf("\nempirical tail vs Chebyshev (n=%zu, p=%zu, %d reps):\n", nn,
              pp, reps);
  bool bound_holds = true;
  for (double s : {0.05, 0.1, 0.15}) {
    int exceed = 0;
    for (double v : adj) {
      if (v >= s) ++exceed;
    }
    const double emp = static_cast<double>(exceed) / reps;
    const double bound = stats::ChebyshevPValue(s, nn, pp);
    if (emp > bound * 1.05) bound_holds = false;
    std::printf("  s=%.2f: empirical %.3f <= bound %.3f : %s\n", s, emp,
                bound, emp <= bound * 1.05 ? "ok" : "VIOLATED");
  }

  // Multiple testing: 20 true signals at score 0.3 among 780 null scores.
  std::vector<double> pvals;
  for (int i = 0; i < 20; ++i) {
    pvals.push_back(stats::BetaPValue(0.3, n, p));
  }
  Rng rng(99);
  for (int i = 0; i < 780; ++i) {
    pvals.push_back(rng.Uniform(0.05, 1.0));  // nulls
  }
  auto bonf = stats::BonferroniCorrect(pvals);
  auto bh = stats::BenjaminiHochbergAdjust(pvals);
  int bonf_sig = 0, bh_sig = 0;
  for (size_t i = 0; i < pvals.size(); ++i) {
    if (bonf[i] <= 0.05) ++bonf_sig;
    if (bh[i] <= 0.05) ++bh_sig;
  }
  std::printf(
      "\n800 hypotheses, 20 true (score 0.3): Bonferroni keeps %d,"
      " Benjamini-Hochberg keeps %d (both should keep exactly the 20).\n",
      bonf_sig, bh_sig);
  const bool ok = bound_holds && bonf_sig == 20 && bh_sig == 20;
  std::printf("false-positive control behaves as Appendix A describes: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
