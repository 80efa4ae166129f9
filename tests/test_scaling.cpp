/// Tests for Sinkhorn-Knopp and Ruiz scaling: convergence to doubly
/// stochastic form, the paper's error metric, behaviour without total
/// support (DM "*"-entry suppression, §3.3), and the SK-vs-Ruiz comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/dulmage_mendelsohn.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "scaling/ruiz.hpp"
#include "scaling/scaling.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

ScalingOptions iters(int n) {
  ScalingOptions o;
  o.max_iterations = n;
  return o;
}

TEST(IdentityScaling, AllOnesMultipliers) {
  const BipartiteGraph g = make_erdos_renyi(50, 60, 300, 1);
  const ScalingResult r = identity_scaling(g);
  EXPECT_EQ(r.iterations, 0);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(IdentityScaling, ErrorIsMaxDegreeMinusOne) {
  // For an unscaled (0,1)-matrix the row/col sums are the degrees, so the
  // error is max(deg) - 1 (the paper notes n-1 for a full matrix).
  const BipartiteGraph g = make_full(10);
  const ScalingResult r = identity_scaling(g);
  EXPECT_NEAR(r.error, 9.0, 1e-12);
}

TEST(SinkhornKnopp, FullMatrixScalesInOneIteration) {
  // For the all-ones matrix the doubly stochastic limit is s_ij = 1/n,
  // reached immediately.
  const BipartiteGraph g = make_full(8);
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(1));
  for (vid_t i = 0; i < 8; ++i)
    for (vid_t j = 0; j < 8; ++j) EXPECT_NEAR(r.entry(i, j), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(r.error, 0.0, 1e-12);
}

TEST(SinkhornKnopp, PermutationMatrixIsFixedPoint) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{1}, {2}, {0}});
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(3));
  EXPECT_NEAR(r.error, 0.0, 1e-12);
  EXPECT_NEAR(r.entry(0, 1), 1.0, 1e-12);
}

TEST(SinkhornKnopp, RowSumsAreOneAfterEachIteration) {
  const BipartiteGraph g = make_planted_perfect(300, 4, 5);
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(3));
  const std::vector<double> rs = scaled_row_sums(g, r);
  for (const double s : rs) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(SinkhornKnopp, ErrorDecreasesWithIterations) {
  const BipartiteGraph g = make_planted_perfect(500, 5, 11);
  const double e1 = scale_sinkhorn_knopp(g, iters(1)).error;
  const double e5 = scale_sinkhorn_knopp(g, iters(5)).error;
  const double e20 = scale_sinkhorn_knopp(g, iters(20)).error;
  EXPECT_LT(e5, e1);
  EXPECT_LT(e20, e5);
  EXPECT_LT(e20, 0.1);  // rate depends on the 2nd singular value; be lenient
}

TEST(SinkhornKnopp, ConvergesOnTotalSupportMatrix) {
  // Cycle matrices have total support; SK must converge to error ~ 0.
  const BipartiteGraph g = make_cycle(100);
  ScalingOptions o;
  o.max_iterations = 200;
  o.tolerance = 1e-10;
  const ScalingResult r = scale_sinkhorn_knopp(g, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.error, 1e-10);
  // The unique scaling of the 2-regular cycle is s_ij = 1/2 everywhere.
  for (vid_t i = 0; i < 100; ++i)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_NEAR(r.entry(i, j), 0.5, 1e-6);
}

TEST(SinkhornKnopp, ToleranceStopsEarly) {
  const BipartiteGraph g = make_cycle(50);
  ScalingOptions o;
  o.max_iterations = 1000;
  o.tolerance = 1e-6;
  const ScalingResult r = scale_sinkhorn_knopp(g, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 1000);
}

TEST(SinkhornKnopp, EmptyRowsAndColumnsAreTolerated) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0}, {}, {0, 2}});
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(10));
  EXPECT_TRUE(std::isfinite(r.error));
  for (const double d : r.dr) EXPECT_TRUE(std::isfinite(d));
  for (const double d : r.dc) EXPECT_TRUE(std::isfinite(d));
}

TEST(SinkhornKnopp, EdgelessGraphConvergesImmediately) {
  // An edgeless matrix is vacuously doubly stochastic; the kernel used to
  // burn max_iterations of no-op sweeps and report converged = false.
  const BipartiteGraph g = graph_from_rows(3, 4, {{}, {}, {}});
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(50));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.error, 0.0);
  ASSERT_EQ(r.dr.size(), 3u);
  ASSERT_EQ(r.dc.size(), 4u);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(Ruiz, EdgelessGraphConvergesImmediately) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  const ScalingResult r = scale_ruiz(g, iters(50));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.error, 0.0);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(ScalingError, EdgelessGraphIsZero) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{}, {}, {}});
  EXPECT_EQ(scaling_error(g, identity_scaling(g)), 0.0);
}

TEST(ScalingError, ZeroDegreeRowsAreExcluded) {
  // A zero-degree row keeps multiplier 1 and must not contribute a spurious
  // |0 - 1| = 1 term to the error of an otherwise perfectly scaled matrix.
  const BipartiteGraph g = graph_from_rows(3, 2, {{0}, {}, {1}});
  ScalingOptions o;
  o.max_iterations = 20;
  o.tolerance = 1e-12;
  for (const ScalingResult& r : {scale_sinkhorn_knopp(g, o), scale_ruiz(g, o)}) {
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.error, 1e-12);
    EXPECT_EQ(r.dr[1], 1.0);  // untouched empty row
  }
}

TEST(SinkhornKnopp, SuppressesEntriesOutsideMaximumMatchings) {
  // §3.3: on a DM-structured matrix the "*" coupling entries tend to zero.
  const BipartiteGraph g = make_dm_structured(20, 30, 40, 35, 25, 3, 7);
  const DmDecomposition dm = dulmage_mendelsohn(g);
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(200));

  // The paper's claim is about the coupling ("*") entries: they tend to
  // zero. We check it two ways: absolutely, and relative to each row's
  // total probability mass (what the sampling step actually sees). Note
  // that *within* a non-square block, individual matchable entries may
  // legitimately become small too (degree-1 rows absorb their columns'
  // mass), so no lower bound is asserted on those.
  double max_star = 0.0, max_coupling_fraction = 0.0;
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    double coupling_mass = 0.0, total_mass = 0.0;
    for (const vid_t j : g.row_neighbors(i)) {
      const double e = r.entry(i, j);
      total_mass += e;
      if (dm.row_part[static_cast<std::size_t>(i)] !=
          dm.col_part[static_cast<std::size_t>(j)]) {
        coupling_mass += e;
        max_star = std::max(max_star, e);
      }
    }
    if (total_mass > 0.0)
      max_coupling_fraction = std::max(max_coupling_fraction, coupling_mass / total_mass);
  }
  EXPECT_LT(max_star, 0.05);
  EXPECT_LT(max_coupling_fraction, 0.1);
}

TEST(Ruiz, ConvergesOnTotalSupportMatrix) {
  const BipartiteGraph g = make_cycle(60);
  ScalingOptions o;
  o.max_iterations = 500;
  o.tolerance = 1e-8;
  const ScalingResult r = scale_ruiz(g, o);
  EXPECT_TRUE(r.converged);
}

TEST(Ruiz, FullMatrixConvergesImmediately) {
  const BipartiteGraph g = make_full(6);
  const ScalingResult r = scale_ruiz(g, iters(2));
  for (vid_t i = 0; i < 6; ++i)
    for (vid_t j = 0; j < 6; ++j) EXPECT_NEAR(r.entry(i, j), 1.0 / 6.0, 1e-9);
}

TEST(Ruiz, SlowerThanSinkhornKnoppOnUnsymmetricMatrix) {
  // The paper (§2.2, citing Knight-Ruiz-Uçar) reports SK converges faster
  // on unsymmetric matrices; verify the error ordering after equal sweeps.
  const BipartiteGraph g = make_planted_perfect(400, 6, 3);
  const double sk = scale_sinkhorn_knopp(g, iters(5)).error;
  const double rz = scale_ruiz(g, iters(5)).error;
  EXPECT_LT(sk, rz);
}

class ScalingIterationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScalingIterationSweep, ErrorWithinTheoryBoundForErdosRenyi) {
  const int it = GetParam();
  const BipartiteGraph g = make_planted_perfect(1000, 3, 13);
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(it));
  EXPECT_EQ(r.iterations, it);
  EXPECT_GE(r.error, 0.0);
  EXPECT_TRUE(std::isfinite(r.error));
}

INSTANTIATE_TEST_SUITE_P(Iterations, ScalingIterationSweep, ::testing::Values(1, 2, 5, 10, 20));

/// Sinkhorn–Knopp as three sweeps per iteration (column balance, row
/// balance, error pass), each summing its lists from scratch: the oracle
/// for the fused kernel, which reuses the error pass's sums.
ScalingResult three_sweep_sinkhorn_knopp(const BipartiteGraph& g, const ScalingOptions& o) {
  ScalingResult r;
  r.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  r.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  if (g.num_edges() == 0) {
    r.converged = true;
    return r;
  }
  for (int it = 0; it < o.max_iterations; ++it) {
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      double csum = 0.0;
      for (const vid_t i : g.col_neighbors(j)) csum += r.dr[static_cast<std::size_t>(i)];
      if (csum > 0.0) r.dc[static_cast<std::size_t>(j)] = 1.0 / csum;
    }
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      double rsum = 0.0;
      for (const vid_t j : g.row_neighbors(i)) rsum += r.dc[static_cast<std::size_t>(j)];
      if (rsum > 0.0) r.dr[static_cast<std::size_t>(i)] = 1.0 / rsum;
    }
    r.iterations = it + 1;
    double err = 0.0;
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      if (g.col_degree(j) == 0) continue;
      double csum = 0.0;
      for (const vid_t i : g.col_neighbors(j)) csum += r.dr[static_cast<std::size_t>(i)];
      err = std::max(err, std::abs(csum * r.dc[static_cast<std::size_t>(j)] - 1.0));
    }
    r.error = err;
    if (o.tolerance > 0.0 && err <= o.tolerance) {
      r.converged = true;
      break;
    }
  }
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SinkhornKnopp, FusedSweepsMatchThreeSweepReference) {
  const std::vector<std::pair<const char*, BipartiteGraph>> graphs = {
      {"empty rows and columns", graph_from_rows(5, 7, {{0, 2}, {}, {0, 2, 6}, {2}, {}})},
      {"edgeless", graph_from_rows(3, 4, {{}, {}, {}})},
      {"erdos-renyi", make_erdos_renyi(700, 900, 2800, 3)},
      {"power-law", make_power_law(1500, 8.0, 1.5, 5)},
  };
  for (const auto& [name, g] : graphs) {
    for (const int k : {1, 2, 5, 10}) {
      // Tolerance 0 runs all k iterations; the oracle's error after two
      // iterations as the tolerance makes k > 2 exit early at two.
      const double early = three_sweep_sinkhorn_knopp(g, {2, 0.0}).error;
      for (const double tol : {0.0, early}) {
        const ScalingOptions o{k, tol};
        const ScalingResult ref = three_sweep_sinkhorn_knopp(g, o);
        for (const int threads : {1, 4}) {
          const ThreadCountGuard guard(threads);
          const ScalingResult r = scale_sinkhorn_knopp(g, o);
          SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k) +
                       " tol=" + std::to_string(tol) + " t=" + std::to_string(threads));
          EXPECT_TRUE(same_bits(r.dr, ref.dr));
          EXPECT_TRUE(same_bits(r.dc, ref.dc));
          EXPECT_EQ(r.error, ref.error);
          EXPECT_EQ(r.iterations, ref.iterations);
          EXPECT_EQ(r.converged, ref.converged);
          if (g.num_edges() == 0) {
            EXPECT_TRUE(r.row_total.empty());
            EXPECT_TRUE(r.col_total.empty());
            continue;
          }
          // The totals are the samplers' sums: adjacency order, final
          // multipliers, same bits.
          std::vector<double> rows(static_cast<std::size_t>(g.num_rows()), 0.0);
          std::vector<double> cols(static_cast<std::size_t>(g.num_cols()), 0.0);
          for (vid_t i = 0; i < g.num_rows(); ++i)
            for (const vid_t j : g.row_neighbors(i))
              rows[static_cast<std::size_t>(i)] += r.dc[static_cast<std::size_t>(j)];
          for (vid_t j = 0; j < g.num_cols(); ++j)
            for (const vid_t i : g.col_neighbors(j))
              cols[static_cast<std::size_t>(j)] += r.dr[static_cast<std::size_t>(i)];
          EXPECT_TRUE(same_bits(r.row_total, rows));
          EXPECT_TRUE(same_bits(r.col_total, cols));
        }
      }
    }
  }
}

/// The fused kernel's loops in natural vertex order: the oracle for the
/// scheduled sweeps, which visit each block's lists in degree order and
/// must give the same bits.
ScalingResult natural_order_sinkhorn_knopp(const BipartiteGraph& g, int k) {
  ScalingResult r;
  r.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  r.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  if (g.num_edges() == 0) return r;
  r.row_total.resize(static_cast<std::size_t>(g.num_rows()));
  for (vid_t j = 0; j < g.num_cols(); ++j)
    r.col_total.push_back(static_cast<double>(g.col_degree(j)));
  for (int it = 0; it < k; ++it) {
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      const double csum = r.col_total[static_cast<std::size_t>(j)];
      if (csum > 0.0) r.dc[static_cast<std::size_t>(j)] = 1.0 / csum;
    }
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      double rsum = 0.0;
      for (const vid_t j : g.row_neighbors(i)) rsum += r.dc[static_cast<std::size_t>(j)];
      r.row_total[static_cast<std::size_t>(i)] = rsum;
      if (rsum > 0.0) r.dr[static_cast<std::size_t>(i)] = 1.0 / rsum;
    }
    double err = 0.0;
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      if (g.col_degree(j) == 0) continue;
      double csum = 0.0;
      for (const vid_t i : g.col_neighbors(j)) csum += r.dr[static_cast<std::size_t>(i)];
      r.col_total[static_cast<std::size_t>(j)] = csum;
      err = std::max(err, std::abs(csum * r.dc[static_cast<std::size_t>(j)] - 1.0));
    }
    r.error = err;
  }
  return r;
}

TEST(SinkhornKnopp, ScheduledSweepsMatchNaturalOrder) {
  for (const auto& [name, g] : testing::sweep_schedule_graphs()) {
    for (const int k : {1, 2, 5, 10}) {
      const ScalingResult ref = natural_order_sinkhorn_knopp(g, k);
      for (const int threads : {1, 2, 4}) {
        const ThreadCountGuard guard(threads);
        const ScalingResult r = scale_sinkhorn_knopp(g, {k, 0.0});
        SCOPED_TRACE(name + " k=" + std::to_string(k) + " t=" + std::to_string(threads));
        EXPECT_TRUE(same_bits(r.dr, ref.dr));
        EXPECT_TRUE(same_bits(r.dc, ref.dc));
        EXPECT_TRUE(same_bits(r.row_total, ref.row_total));
        EXPECT_TRUE(same_bits(r.col_total, ref.col_total));
        EXPECT_EQ(r.error, ref.error);
      }
    }
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(SinkhornKnopp, SharedTeamsMatchTheTeamOfOne) {
  // One team body runs at every budget: a team of one on the calling
  // thread, or one region whose members claim sweep blocks. Every output
  // must have the team of one's bits, through a tolerance exit too, which
  // every member has to take in the same iteration.
  for (const auto& [name, g] : testing::sweep_schedule_graphs()) {
    double early = 0.0;
    {
      const ThreadCountGuard guard(1);
      early = scale_sinkhorn_knopp(g, {2, 0.0}).error;
    }
    for (const int k : {1, 5, 12})
      for (const double tol : {0.0, early}) {
        ScalingResult ref;
        {
          const ThreadCountGuard guard(1);
          ref = scale_sinkhorn_knopp(g, {k, tol});
        }
        if (tol > 0.0 && k >= 2) {
          EXPECT_TRUE(ref.converged) << name << " k=" << k;
          EXPECT_LE(ref.iterations, 2) << name << " k=" << k;
        }
        for (const int threads : {2, 3, 4}) {
          const ThreadCountGuard guard(threads);
          const ScalingResult r = scale_sinkhorn_knopp(g, {k, tol});
          SCOPED_TRACE(name + " k=" + std::to_string(k) + " tol=" + std::to_string(tol) +
                       " t=" + std::to_string(threads));
          EXPECT_TRUE(same_bits(r.dr, ref.dr));
          EXPECT_TRUE(same_bits(r.dc, ref.dc));
          EXPECT_TRUE(same_bits(r.row_total, ref.row_total));
          EXPECT_TRUE(same_bits(r.col_total, ref.col_total));
          EXPECT_TRUE(same_bits(r.error, ref.error));
          EXPECT_EQ(r.iterations, ref.iterations);
          EXPECT_EQ(r.converged, ref.converged);
        }
      }
  }
}

TEST(SinkhornKnopp, NoIterationLeavesNoTotals) {
  const BipartiteGraph g = make_erdos_renyi(50, 60, 300, 1);
  const ScalingResult r = scale_sinkhorn_knopp(g, iters(0));
  EXPECT_TRUE(r.row_total.empty());
  EXPECT_TRUE(r.col_total.empty());
  EXPECT_EQ(r.error, identity_scaling(g).error);
}

} // namespace
} // namespace bmh
