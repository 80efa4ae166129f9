#include "core/choice.hpp"

#include <span>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/threading.hpp"

namespace bmh {

namespace {

/// Inverse-CDF pick over `weight[v]` for v in each list (idx[ptr[u] ..
/// ptr[u + 1]) for list u): detail::early_exit_pick, or
/// detail::branchless_pick for short lists with known totals, two equal-
/// length lists at a time (detail::branchless_pick_pair) where both totals
/// are positive. Each list's total comes from `totals` when kKnownTotals,
/// else from a sum over the list. Lists are visited block by block in
/// `schedule` order (the graph's sweep schedule); every list gets its own
/// forked stream, so neither the order nor the pairing changes a choice.
/// Writes into `choice` (capacity reused by workspace-leased callers).
template <bool kKnownTotals>
void sample_lists(std::span<const vid_t> schedule, std::span<const eid_t> ptr,
                  std::span<const vid_t> idx, const std::vector<double>& weight,
                  std::span<const double> totals, std::uint64_t seed,
                  std::uint64_t lane_salt, std::vector<vid_t>& choice) {
  const auto n = static_cast<vid_t>(schedule.size());
  choice.assign(static_cast<std::size_t>(n), kNil);
  const Rng root(seed);
  // The walks capture raw pointers by value: through references GCC
  // reloads each array's address on every list.
  vid_t* const picks = choice.data();
  const double* const total_of = totals.data();
  const auto neighbors = [=](vid_t u) {
    return idx.subspan(static_cast<std::size_t>(ptr[u]),
                       static_cast<std::size_t>(ptr[u + 1] - ptr[u]));
  };
  const auto stream = [=](vid_t u) {
    return root.fork(lane_salt ^ static_cast<std::uint64_t>(u));
  };
  const auto one = [=, &weight](vid_t u) {
    const std::span<const vid_t> nbrs = neighbors(u);
    if (nbrs.empty()) return;
    Rng rng = stream(u);
    double total = 0.0;
    if constexpr (kKnownTotals) {
      total = total_of[u];
    } else {
      for (const vid_t v : nbrs) total += weight[static_cast<std::size_t>(v)];
    }
    if (total <= 0.0) {
      // Degenerate multipliers (all zero): fall back to uniform.
      picks[u] = nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];
      return;
    }
    const double r = rng.next_double_open0() * total;
    const bool short_list = nbrs.size() < static_cast<std::size_t>(kSweepDegreeCap);
    picks[u] = kKnownTotals && short_list ? detail::branchless_pick(nbrs, weight, r)
                                          : detail::early_exit_pick(nbrs, weight, r);
  };
  const auto pair = [=, &weight](vid_t u, vid_t v, eid_t d) {
    if constexpr (kKnownTotals) {
      const double tu = total_of[u];
      const double tv = total_of[v];
      if (d > 0 && tu > 0.0 && tv > 0.0) {
        const double ru = stream(u).next_double_open0() * tu;
        const double rv = stream(v).next_double_open0() * tv;
        const auto [cu, cv] =
            detail::branchless_pick_pair(neighbors(u), ru, neighbors(v), rv, weight);
        picks[u] = cu;
        picks[v] = cv;
        return;
      }
    }
    one(u);
    one(v);
  };

  vid_t next_block = 0;
  run_team([&](auto mem, int, int) {
    for (vid_t b; (b = mem.claim(next_block)) < sweep_block_count(n);)
      visit_list_pairs(sweep_block(schedule, b), ptr, pair, one);
  });
}

/// sample_lists with the totals when given. The choice is made once per
/// call, not per list, so the summing loop compiles as it did alone.
void sample_side(std::span<const vid_t> schedule, std::span<const eid_t> ptr,
                 std::span<const vid_t> idx, const std::vector<double>& weight,
                 std::span<const double> totals, std::uint64_t seed,
                 std::uint64_t lane_salt, std::vector<vid_t>& choice) {
  if (totals.empty())
    sample_lists<false>(schedule, ptr, idx, weight, totals, seed, lane_salt, choice);
  else
    sample_lists<true>(schedule, ptr, idx, weight, totals, seed, lane_salt, choice);
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
  sample_side(g.row_schedule(), g.row_ptr(), g.col_idx(), dc, totals, seed,
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
  sample_side(g.col_schedule(), g.col_ptr(), g.row_idx(), dr, totals, seed,
              0x434f4c5f53494445ull /* "COL_SIDE" salt: column-side lanes */, out);
}

} // namespace bmh
