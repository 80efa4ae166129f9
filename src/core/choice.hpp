#pragma once
/// \file choice.hpp
/// \brief Randomized neighbour selection from the scaled probability
/// density functions (the sampling step shared by Algorithms 2 and 3).
///
/// Row i picks column j in A_i* with probability s_ij / sum_l s_il where
/// s_ij = dr[i]·dc[j]. The dr[i] factor is common to the whole row, so the
/// density reduces to dc[j] / sum_l dc[l] — each row only needs the column
/// multipliers (and symmetrically columns only need dr). Sampling is a
/// single prefix-sum walk over the adjacency list: draw r uniform in
/// (0, rowsum], return the first neighbour where the running sum reaches r
/// (the inverse-CDF method the paper describes in §3.1).
///
/// The walk needs each list's total first. Sinkhorn–Knopp has already
/// computed it (ScalingResult::row_total / col_total, same values and same
/// order), so with known totals sampling is one walk up to the pick (to the
/// end, without branching, for lists shorter than kSweepDegreeCap); without
/// them each list is summed first and then walked. Lists are visited in the
/// graph's sweep schedule; every list draws from its own forked stream, so
/// the visiting order changes no choice.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

namespace detail {

/// The inverse-CDF pick for a draw r in (0, total]: the first neighbour
/// whose running weight sum reaches r, or the last one when rounding leaves
/// every sum short of r.
[[nodiscard]] inline vid_t early_exit_pick(std::span<const vid_t> nbrs,
                                           const std::vector<double>& weight, double r) {
  double acc = 0.0;
  for (const vid_t v : nbrs) {
    acc += weight[static_cast<std::size_t>(v)];
    if (acc >= r) return v;
  }
  return nbrs.back();
}

/// The same pick with no data-dependent branch, for short lists whose
/// length the sweep schedule makes predictable. The running sum never
/// decreases (weights >= 0), so the first k with acc_k >= r is the count of
/// k with !(acc_k >= r), clamped to the last index. A NaN r (a NaN weight
/// makes the total NaN) picks the last neighbour in both.
[[nodiscard]] inline vid_t branchless_pick(std::span<const vid_t> nbrs,
                                           const std::vector<double>& weight, double r) {
  double acc = 0.0;
  std::size_t below = 0;
  for (const vid_t v : nbrs) {
    acc += weight[static_cast<std::size_t>(v)];
    below += static_cast<std::size_t>(!(acc >= r));
  }
  return nbrs[std::min(below, nbrs.size() - 1)];
}

} // namespace detail

/// One column choice per row, sampled ∝ dc over each row's neighbours.
/// Rows with no neighbours get kNil. Deterministic in (graph, dc, seed) and
/// independent of the thread count (per-row forked streams).
[[nodiscard]] std::vector<vid_t> sample_row_choices(const BipartiteGraph& g,
                                                    const std::vector<double>& dc,
                                                    std::uint64_t seed);

/// One row choice per column, sampled ∝ dr over each column's neighbours.
[[nodiscard]] std::vector<vid_t> sample_col_choices(const BipartiteGraph& g,
                                                    const std::vector<double>& dr,
                                                    std::uint64_t seed);

/// Allocation-free variants: the choices land in `out` (capacity reused —
/// pass a workspace-leased vector). Identical output for the same seed.
/// `totals`, when not empty, gives each list's weight sum in place of
/// summing it (one per row for the row side, one per column for the column
/// side); it must equal the sum taken in adjacency order, as the
/// ScalingResult totals do, for the choices to stay identical.
void sample_row_choices(const BipartiteGraph& g, const std::vector<double>& dc,
                        std::uint64_t seed, std::vector<vid_t>& out,
                        std::span<const double> totals = {});
void sample_col_choices(const BipartiteGraph& g, const std::vector<double>& dr,
                        std::uint64_t seed, std::vector<vid_t>& out,
                        std::span<const double> totals = {});

} // namespace bmh
