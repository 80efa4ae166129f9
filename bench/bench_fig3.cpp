/// \file bench_fig3.cpp
/// \brief Reproduces paper Figure 3: speedups of ScaleSK (3a) and
/// OneSidedMatch (3b) with a single scaling iteration, thread sweep over
/// the 12-instance suite.
///
/// Paper reference: with 16 threads ScaleSK reaches ~8-10.6x (best on
/// hugebubbles) and OneSidedMatch ~10-11.4x (best on europe_osm); the
/// worst speedups are on torso1/audikw_1, whose per-row nonzero variance
/// causes load imbalance.

#include <iostream>
#include <string>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("Figure 3 — speedups of ScaleSK (a) and OneSidedMatch (b)");

  const double scale = bench::suite_scale();
  const int runs = bench::repeats(5);
  const std::vector<int> threads = bench::thread_sweep();

  std::vector<std::string> header = {"name", "t=1 ms"};
  for (const int t : threads) header.push_back("t=" + std::to_string(t));
  Table scale_table(header), onesided_table(header);

  for (const auto& name : suite_names()) {
    const SuiteInstance inst = make_suite_instance(name, scale, 42);
    const BipartiteGraph& g = inst.graph;

    scale_table.row().add(name);
    onesided_table.row().add(name);
    double t_scale_1 = 0.0, t_one_1 = 0.0;
    for (const int t : threads) {
      ThreadCountGuard guard(t);
      const RunStats t_scale = bench::time_runs(
          [&](int) { (void)scale_sinkhorn_knopp(g, {1, 0.0}); }, runs, 1);
      // OneSidedMatch timing includes ScaleSK, as in the paper.
      const RunStats t_one = bench::time_runs(
          [&](int r) { (void)one_sided_match(g, 1, static_cast<std::uint64_t>(r)); },
          runs, 1);
      if (t == 1) {
        t_scale_1 = t_scale.median();
        t_one_1 = t_one.median();
        scale_table.add(t_scale_1 * 1e3, 3);
        onesided_table.add(t_one_1 * 1e3, 3);
      }
      scale_table.add(bench::speedup_spread(t_scale_1, t_scale));
      onesided_table.add(bench::speedup_spread(t_one_1, t_one));
    }
  }

  const std::string cells = "; t=1 median time, then the speedup over it, median [min..max] "
                            "over " + std::to_string(runs) + " runs";
  scale_table.print(std::cout, "(3a) ScaleSK speedup, 1 iteration" + cells);
  std::cout << '\n';
  onesided_table.print(std::cout, "(3b) OneSidedMatch speedup (includes ScaleSK)" + cells);
  std::cout << "\npaper shape: near-linear scaling to 8 threads, ~8-11x at 16;\n"
               "worst speedups on the high-degree-variance instances\n"
               "(torso1_like, audikw_1_like).\n";
  return 0;
}
