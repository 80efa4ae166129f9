/// \file bench_ablation_scaling.cpp
/// \brief Ablation: Sinkhorn-Knopp vs Ruiz equilibration as the scaling
/// step (paper §2.2 reviews both and picks SK; Knight-Ruiz-Uçar report SK
/// converges faster on unsymmetric matrices).
///
/// Measures, per iteration budget: the scaling error of each method, the
/// resulting TwoSidedMatch quality, and the per-iteration cost.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("Ablation — Sinkhorn-Knopp vs Ruiz as the scaling step");

  const auto n = static_cast<vid_t>(scaled(100000, 4096));
  const int runs = bench::repeats(5);

  struct Case {
    std::string name;
    BipartiteGraph g;
  };
  const std::vector<Case> cases = {
      {"erdos_renyi d=4 (unsymmetric)", make_erdos_renyi(n, n, 4LL * n, 3)},
      {"kkt-like (symmetric structure)", make_kkt_like(n * 3 / 4, n / 4, 5, 5)},
      {"adversarial k=32", make_ks_adversarial(static_cast<vid_t>(2 * (scaled(3200, 256) / 2)), 32)},
  };

  for (const auto& c : cases) {
    const vid_t rank = sprank(c.g);
    Table table({"iters", "SK err", "Ruiz err", "SK two-sided qual", "Ruiz two-sided qual"});
    for (const int iters : {1, 2, 5, 10, 20}) {
      const ScalingResult sk = scale_sinkhorn_knopp(c.g, {iters, 0.0});
      const ScalingResult rz = scale_ruiz(c.g, {iters, 0.0});
      vid_t worst_sk = c.g.num_rows(), worst_rz = c.g.num_rows();
      for (int r = 0; r < runs; ++r) {
        const auto seed = static_cast<std::uint64_t>(r);
        worst_sk =
            std::min(worst_sk, two_sided_from_scaling(c.g, sk, seed).cardinality());
        worst_rz =
            std::min(worst_rz, two_sided_from_scaling(c.g, rz, seed).cardinality());
      }
      table.row()
          .add(iters)
          .add(sk.error, 4)
          .add(rz.error, 4)
          .add(static_cast<double>(worst_sk) / static_cast<double>(rank), 3)
          .add(static_cast<double>(worst_rz) / static_cast<double>(rank), 3);
    }
    table.print(std::cout, c.name);

    const RunStats t_sk = bench::time_runs(
        [&](int) { (void)scale_sinkhorn_knopp(c.g, {5, 0.0}); }, runs, 1);
    const RunStats t_rz =
        bench::time_runs([&](int) { (void)scale_ruiz(c.g, {5, 0.0}); }, runs, 1);
    std::cout << "5-iteration cost, seconds, median [min..max] over " << runs
              << " runs: SK " << bench::spread(t_sk) << ", Ruiz " << bench::spread(t_rz)
              << "\n\n";
  }
  std::cout << "expected shape: SK error < Ruiz error at equal iterations on the\n"
               "unsymmetric instance (the basis for the paper's choice of SK);\n"
               "both feed the heuristic adequately once the error is small.\n";
  return 0;
}
