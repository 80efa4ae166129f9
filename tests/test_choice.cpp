/// Tests for the scaled-PDF neighbour sampling shared by both heuristics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/choice.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"

namespace bmh {
namespace {

TEST(Choice, EveryNonEmptyRowPicksANeighbor) {
  const BipartiteGraph g = make_erdos_renyi(500, 500, 2000, 3);
  const ScalingResult s = identity_scaling(g);
  const std::vector<vid_t> choice = sample_row_choices(g, s.dc, 7);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (g.row_degree(i) == 0) {
      EXPECT_EQ(choice[static_cast<std::size_t>(i)], kNil);
    } else {
      EXPECT_TRUE(g.has_edge(i, choice[static_cast<std::size_t>(i)])) << "row " << i;
    }
  }
}

TEST(Choice, ColumnSideSymmetric) {
  const BipartiteGraph g = make_erdos_renyi(300, 400, 1500, 5);
  const ScalingResult s = identity_scaling(g);
  const std::vector<vid_t> choice = sample_col_choices(g, s.dr, 9);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    if (g.col_degree(j) == 0) {
      EXPECT_EQ(choice[static_cast<std::size_t>(j)], kNil);
    } else {
      EXPECT_TRUE(g.has_edge(choice[static_cast<std::size_t>(j)], j)) << "col " << j;
    }
  }
}

TEST(Choice, DeterministicInSeed) {
  const BipartiteGraph g = make_erdos_renyi(400, 400, 1600, 1);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  EXPECT_EQ(sample_row_choices(g, s.dc, 42), sample_row_choices(g, s.dc, 42));
  EXPECT_NE(sample_row_choices(g, s.dc, 42), sample_row_choices(g, s.dc, 43));
}

TEST(Choice, RowAndColumnStreamsAreIndependent) {
  // With the same seed, the row-side and column-side lanes must not be
  // correlated (different salts). On a symmetric structure correlated
  // streams would produce suspiciously many reciprocal picks.
  const BipartiteGraph g = make_full(200);
  const ScalingResult s = identity_scaling(g);
  const std::vector<vid_t> rc = sample_row_choices(g, s.dc, 11);
  const std::vector<vid_t> cc = sample_col_choices(g, s.dr, 11);
  int reciprocal = 0;
  for (vid_t i = 0; i < 200; ++i)
    if (cc[static_cast<std::size_t>(rc[static_cast<std::size_t>(i)])] == i) ++reciprocal;
  EXPECT_LT(reciprocal, 10);  // expectation is 1
}

TEST(Choice, FollowsScaledDistribution) {
  // Row 0 has two columns; force dc so column 1 carries 90% of the mass and
  // check the empirical pick frequency over many seeds.
  const BipartiteGraph g = graph_from_rows(1, 2, {{0, 1}});
  std::vector<double> dc = {0.1, 0.9};
  int picked_heavy = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const auto choice = sample_row_choices(g, dc, static_cast<std::uint64_t>(t));
    if (choice[0] == 1) ++picked_heavy;
  }
  const double freq = static_cast<double>(picked_heavy) / kTrials;
  EXPECT_NEAR(freq, 0.9, 0.03);
}

TEST(Choice, UniformWhenUnscaled) {
  const BipartiteGraph g = graph_from_rows(1, 4, {{0, 1, 2, 3}});
  const std::vector<double> dc(4, 1.0);
  std::vector<int> hist(4, 0);
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t)
    ++hist[static_cast<std::size_t>(sample_row_choices(g, dc, static_cast<std::uint64_t>(t))[0])];
  for (const int h : hist) EXPECT_NEAR(h, kTrials / 4, 5 * std::sqrt(kTrials / 4.0));
}

TEST(Choice, ZeroWeightNeighborsAlmostNeverPicked) {
  const BipartiteGraph g = graph_from_rows(1, 3, {{0, 1, 2}});
  const std::vector<double> dc = {0.0, 1.0, 0.0};
  for (int t = 0; t < 50; ++t) {
    const auto choice = sample_row_choices(g, dc, static_cast<std::uint64_t>(t));
    EXPECT_EQ(choice[0], 1);
  }
}

TEST(Choice, AllZeroWeightsFallBackToUniform) {
  const BipartiteGraph g = graph_from_rows(1, 3, {{0, 1, 2}});
  const std::vector<double> dc = {0.0, 0.0, 0.0};
  const auto choice = sample_row_choices(g, dc, 3);
  EXPECT_NE(choice[0], kNil);
  EXPECT_TRUE(g.has_edge(0, choice[0]));
}

TEST(Choice, KnownTotalsGiveIdenticalChoices) {
  // Sinkhorn–Knopp's totals replace the samplers' own sums bit for bit, so
  // the choices on both sides must not change.
  for (const BipartiteGraph& g :
       {make_erdos_renyi(600, 800, 3000, 2), make_power_law(1200, 8.0, 1.5, 4)}) {
    for (const int k : {1, 5}) {
      const ScalingResult s = scale_sinkhorn_knopp(g, {k, 0.0});
      ASSERT_EQ(s.row_total.size(), static_cast<std::size_t>(g.num_rows()));
      ASSERT_EQ(s.col_total.size(), static_cast<std::size_t>(g.num_cols()));
      for (const std::uint64_t seed : {1u, 17u, 99u}) {
        std::vector<vid_t> summed, known;
        sample_row_choices(g, s.dc, seed, summed);
        sample_row_choices(g, s.dc, seed, known, s.row_total);
        EXPECT_EQ(known, summed) << "rows k=" << k << " seed=" << seed;
        sample_col_choices(g, s.dr, seed, summed);
        sample_col_choices(g, s.dr, seed, known, s.col_total);
        EXPECT_EQ(known, summed) << "cols k=" << k << " seed=" << seed;
      }
    }
  }
}

TEST(Choice, ShortWalkMatchesEarlyExitWalk) {
  // The branch-free walk must pick what the early-exit walk picks: lists of
  // every length 1..17, weights with zeros at the front, inside and at the
  // end, and draws exactly at every running sum (acc == r ties), one ulp
  // either side of it, just above 0, at and past the total, and NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (vid_t len = 1; len <= 17; ++len) {
    std::vector<vid_t> nbrs;
    for (vid_t k = len - 1; k >= 0; --k) nbrs.push_back(k);  // ids reversed
    for (int pattern = 0; pattern < 5; ++pattern) {
      std::vector<double> weight(static_cast<std::size_t>(len));
      for (vid_t v = 0; v < len; ++v) {
        const auto k = static_cast<std::size_t>(len - 1 - v);  // v's position
        weight[static_cast<std::size_t>(v)] =
            pattern == 0   ? 1.0
            : pattern == 1 ? (k % 3 == 0 ? 0.0 : 0.1 * static_cast<double>(k + 1))
            : pattern == 2 ? (k + 1 == static_cast<std::size_t>(len) ? 0.0 : 0.5)
            : pattern == 3 ? (k == 0 ? 0.0 : 1.0 / 3.0)
                           : 0.0;
      }
      std::vector<double> draws = {std::numeric_limits<double>::denorm_min(),
                                   std::numeric_limits<double>::quiet_NaN()};
      double acc = 0.0;
      for (const vid_t v : nbrs) {
        acc += weight[static_cast<std::size_t>(v)];
        draws.insert(draws.end(), {acc, std::nextafter(acc, 0.0), std::nextafter(acc, inf)});
      }
      for (const double r : draws)
        EXPECT_EQ(detail::branchless_pick(nbrs, weight, r),
                  detail::early_exit_pick(nbrs, weight, r))
            << "len=" << len << " pattern=" << pattern << " r=" << r;
    }
  }

  // Through the samplers: rows of every length 1..17 over weights with
  // zeros, known totals (branch-free below the cap) against summed ones.
  std::vector<std::vector<vid_t>> rows;
  for (vid_t i = 0; i < 17 * 40; ++i) {
    rows.emplace_back();
    for (vid_t d = 0; d <= i % 17; ++d) rows.back().push_back((i * 7 + d * 11) % 200);
  }
  const BipartiteGraph g = graph_from_rows(static_cast<vid_t>(rows.size()), 200, rows);
  std::vector<double> dc(200);
  for (std::size_t j = 0; j < dc.size(); ++j) dc[j] = j % 4 == 0 ? 0.0 : 0.5 + 0.01 * static_cast<double>(j);
  std::vector<double> totals(rows.size(), 0.0);
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      totals[static_cast<std::size_t>(i)] += dc[static_cast<std::size_t>(j)];
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<vid_t> summed, known;
    sample_row_choices(g, dc, seed, summed);
    sample_row_choices(g, dc, seed, known, totals);
    EXPECT_EQ(known, summed) << "seed=" << seed;
  }
}

TEST(Choice, TotalsSizeMismatchThrows) {
  const BipartiteGraph g = graph_from_rows(2, 3, {{0}, {1, 2}});
  const std::vector<double> dr(2, 1.0), dc(3, 1.0), wrong(4, 1.0);
  std::vector<vid_t> out;
  EXPECT_THROW(sample_row_choices(g, dc, 1, out, wrong), std::invalid_argument);
  EXPECT_THROW(sample_col_choices(g, dr, 1, out, wrong), std::invalid_argument);
}

TEST(Choice, SizeMismatchThrows) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW((void)sample_row_choices(g, wrong, 1), std::invalid_argument);
  EXPECT_THROW((void)sample_col_choices(g, wrong, 1), std::invalid_argument);
}

} // namespace
} // namespace bmh
