/// Tests for the scaled-PDF neighbour sampling shared by both heuristics.

#include <gtest/gtest.h>

#include <cmath>
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
