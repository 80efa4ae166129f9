#include "core/choice.hpp"

#include <span>
#include <stdexcept>

#include "util/rng.hpp"

namespace bmh {

namespace {

/// Inverse-CDF pick over `weights[nbrs[k]]` (detail::early_exit_pick, or
/// detail::branchless_pick for short lists with known totals). Each list's
/// total comes from `totals` when kKnownTotals, else from a sum over the
/// list. Lists are visited block by block in `schedule` order (the graph's
/// sweep schedule); every list gets its own forked stream, so the order
/// changes no choice. Writes into `choice` (capacity reused by
/// workspace-leased callers).
template <bool kKnownTotals, typename NeighborsOf>
void sample_lists(std::span<const vid_t> schedule, NeighborsOf&& neighbors_of,
                  const std::vector<double>& weight, std::span<const double> totals,
                  std::uint64_t seed, std::uint64_t lane_salt,
                  std::vector<vid_t>& choice) {
  const auto n = static_cast<vid_t>(schedule.size());
  choice.assign(static_cast<std::size_t>(n), kNil);
  const Rng root(seed);
#pragma omp parallel for schedule(dynamic, 1)
  for (vid_t b = 0; b < sweep_block_count(n); ++b)
    for (const vid_t u : sweep_block(schedule, b)) {
      const std::span<const vid_t> nbrs = neighbors_of(u);
      if (nbrs.empty()) continue;
      Rng rng = root.fork(lane_salt ^ static_cast<std::uint64_t>(u));
      double total = 0.0;
      if constexpr (kKnownTotals) {
        total = totals[static_cast<std::size_t>(u)];
      } else {
        for (const vid_t v : nbrs) total += weight[static_cast<std::size_t>(v)];
      }
      if (total <= 0.0) {
        // Degenerate multipliers (all zero): fall back to uniform.
        choice[static_cast<std::size_t>(u)] =
            nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];
        continue;
      }
      const double r = rng.next_double_open0() * total;
      const bool short_list = nbrs.size() < static_cast<std::size_t>(kSweepDegreeCap);
      choice[static_cast<std::size_t>(u)] = kKnownTotals && short_list
                                                ? detail::branchless_pick(nbrs, weight, r)
                                                : detail::early_exit_pick(nbrs, weight, r);
    }
}

/// sample_lists with the totals when given. The choice is made once per
/// call, not per list, so the summing loop compiles as it did alone.
template <typename NeighborsOf>
void sample_side(std::span<const vid_t> schedule, NeighborsOf&& neighbors_of,
                 const std::vector<double>& weight, std::span<const double> totals,
                 std::uint64_t seed, std::uint64_t lane_salt,
                 std::vector<vid_t>& choice) {
  if (totals.empty())
    sample_lists<false>(schedule, neighbors_of, weight, totals, seed, lane_salt, choice);
  else
    sample_lists<true>(schedule, neighbors_of, weight, totals, seed, lane_salt, choice);
}

} // namespace

std::vector<vid_t> sample_row_choices(const BipartiteGraph& g,
                                      const std::vector<double>& dc,
                                      std::uint64_t seed) {
  std::vector<vid_t> choice;
  sample_row_choices(g, dc, seed, choice);
  return choice;
}

void sample_row_choices(const BipartiteGraph& g, const std::vector<double>& dc,
                        std::uint64_t seed, std::vector<vid_t>& out,
                        std::span<const double> totals) {
  if (dc.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("sample_row_choices: dc size mismatch");
  if (!totals.empty() && totals.size() != static_cast<std::size_t>(g.num_rows()))
    throw std::invalid_argument("sample_row_choices: totals size mismatch");
  sample_side(
      g.row_schedule(), [&](vid_t i) { return g.row_neighbors(i); }, dc, totals, seed,
      0x524f575f5349444full /* "ROW_SIDO" salt: row-side lanes */, out);
}

std::vector<vid_t> sample_col_choices(const BipartiteGraph& g,
                                      const std::vector<double>& dr,
                                      std::uint64_t seed) {
  std::vector<vid_t> choice;
  sample_col_choices(g, dr, seed, choice);
  return choice;
}

void sample_col_choices(const BipartiteGraph& g, const std::vector<double>& dr,
                        std::uint64_t seed, std::vector<vid_t>& out,
                        std::span<const double> totals) {
  if (dr.size() != static_cast<std::size_t>(g.num_rows()))
    throw std::invalid_argument("sample_col_choices: dr size mismatch");
  if (!totals.empty() && totals.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("sample_col_choices: totals size mismatch");
  sample_side(
      g.col_schedule(), [&](vid_t j) { return g.col_neighbors(j); }, dr, totals, seed,
      0x434f4c5f53494445ull /* "COL_SIDE" salt: column-side lanes */, out);
}

} // namespace bmh
