/// \file bench_fig4.cpp
/// \brief Reproduces paper Figure 4: speedups of KarpSipserMT (4a) and
/// TwoSidedMatch (4b) with a single scaling iteration over the suite.
///
/// Paper reference: KarpSipserMT averages 11.1x at 16 threads (max 12.6 on
/// channel); TwoSidedMatch averages 10.6x. Quality does not change with
/// the thread count (checked here as well).

#include <iostream>
#include <string>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("Figure 4 — speedups of KarpSipserMT (a) and TwoSidedMatch (b)");

  const double scale = bench::suite_scale();
  const int runs = bench::repeats(5);
  const std::vector<int> threads = bench::thread_sweep();

  std::vector<std::string> header = {"name", "t=1 ms"};
  for (const int t : threads) header.push_back("t=" + std::to_string(t));
  Table ksmt_table(header), twosided_table(header);

  bool quality_stable = true;

  for (const auto& name : suite_names()) {
    const SuiteInstance inst = make_suite_instance(name, scale, 42);
    const BipartiteGraph& g = inst.graph;

    // Fixed scaled choices so every thread count runs the same KSMT input.
    const ScalingResult s1 = scale_sinkhorn_knopp(g, {1, 0.0});
    const TwoSidedChoices choices = sample_two_sided_choices(g, s1, 7);
    const std::vector<vid_t> unified =
        unify_choices(g.num_rows(), g.num_cols(), choices.rchoice, choices.cchoice);

    ksmt_table.row().add(name);
    twosided_table.row().add(name);
    double t_ksmt_1 = 0.0, t_two_1 = 0.0;
    vid_t reference_card = -1;
    for (const int t : threads) {
      ThreadCountGuard guard(t);
      const RunStats t_ksmt = bench::time_runs(
          [&](int) { (void)karp_sipser_mt(g.num_rows(), g.num_cols(), unified); },
          runs, 1);
      const RunStats t_two = bench::time_runs(
          [&](int r) { (void)two_sided_match(g, 1, static_cast<std::uint64_t>(r)); },
          runs, 1);
      const vid_t card =
          karp_sipser_mt(g.num_rows(), g.num_cols(), unified).cardinality();
      if (reference_card < 0) reference_card = card;
      if (card != reference_card) quality_stable = false;
      if (t == 1) {
        t_ksmt_1 = t_ksmt.median();
        t_two_1 = t_two.median();
        ksmt_table.add(t_ksmt_1 * 1e3, 3);
        twosided_table.add(t_two_1 * 1e3, 3);
      }
      ksmt_table.add(bench::speedup_spread(t_ksmt_1, t_ksmt));
      twosided_table.add(bench::speedup_spread(t_two_1, t_two));
    }
  }

  const std::string cells = "; t=1 median time, then the speedup over it, median [min..max] "
                            "over " + std::to_string(runs) + " runs";
  ksmt_table.print(std::cout, "(4a) KarpSipserMT speedup on fixed choice subgraphs" + cells);
  std::cout << '\n';
  twosided_table.print(std::cout, "(4b) TwoSidedMatch speedup (includes ScaleSK)" + cells);
  std::cout << "\nmatching cardinality invariant across thread counts: "
            << (quality_stable ? "yes (as the paper requires)" : "NO — BUG") << '\n';
  return quality_stable ? 0 : 1;
}
