/// Cross-cutting parallel-correctness tests: results must not depend on the
/// OpenMP thread count (the property the paper highlights — quality does
/// not deteriorate with parallelism), and repeated parallel runs must stay
/// valid under race-heavy schedules.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "engine/pipeline.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "undirected/graph.hpp"
#include "undirected/matching.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

class ThreadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweepTest, ScalingIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(2000, 4, 3);
  const ScalingResult r = scale_sinkhorn_knopp(g, {5, 0.0});
  // Reference from a single-threaded run.
  ScalingResult ref;
  {
    ThreadCountGuard inner(1);
    ref = scale_sinkhorn_knopp(g, {5, 0.0});
  }
  ASSERT_EQ(r.dr.size(), ref.dr.size());
  for (std::size_t i = 0; i < r.dr.size(); ++i)
    EXPECT_NEAR(r.dr[i], ref.dr[i], 1e-12 * std::abs(ref.dr[i]) + 1e-300) << i;
  EXPECT_NEAR(r.error, ref.error, 1e-12);
}

TEST_P(ThreadSweepTest, ChoiceSamplingIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 12000, 5);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 11);
  TwoSidedChoices ref;
  {
    ThreadCountGuard inner(1);
    ref = sample_two_sided_choices(g, s, 11);
  }
  EXPECT_EQ(ch.rchoice, ref.rchoice);
  EXPECT_EQ(ch.cchoice, ref.cchoice);
}

TEST_P(ThreadSweepTest, GeneratorsAreThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 10000, 7);
  BipartiteGraph ref;
  {
    ThreadCountGuard inner(1);
    ref = make_erdos_renyi(2000, 2000, 10000, 7);
  }
  EXPECT_TRUE(g.structurally_equal(ref));
}

TEST_P(ThreadSweepTest, OneSidedCardinalityIsThreadCountInvariant) {
  // Each row's pick is deterministic; |M| = #distinct picked columns does
  // not depend on which of a column's pickers is kept.
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(3000, 3, 9);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const vid_t card = one_sided_from_scaling(g, s, 13).cardinality();
  vid_t ref;
  {
    ThreadCountGuard inner(1);
    ref = one_sided_from_scaling(g, s, 13).cardinality();
  }
  EXPECT_EQ(card, ref);
}

TEST_P(ThreadSweepTest, TwoSidedCardinalityIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(3000, 3, 15);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const vid_t card = two_sided_from_scaling(g, s, 17).cardinality();
  vid_t ref;
  {
    ThreadCountGuard inner(1);
    ref = two_sided_from_scaling(g, s, 17).cardinality();
  }
  EXPECT_EQ(card, ref);
}

// The pairs themselves, not just their number, are thread-count invariant:
// OneSided keeps the largest row id per column, and KarpSipserMT's Phase 1
// elects the smallest claimant per vertex in deterministic rounds.

TEST_P(ThreadSweepTest, OneSidedPairsAreThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 12000, 21);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const Matching m = one_sided_from_scaling(g, s, 13);
  Matching ref;
  {
    ThreadCountGuard inner(1);
    ref = one_sided_from_scaling(g, s, 13);
  }
  EXPECT_EQ(m.row_match, ref.row_match);
}

TEST_P(ThreadSweepTest, TwoSidedPairsAreThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 12000, 23);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const Matching m = two_sided_from_scaling(g, s, 17);
  Matching ref;
  {
    ThreadCountGuard inner(1);
    ref = two_sided_from_scaling(g, s, 17);
  }
  EXPECT_EQ(m.row_match, ref.row_match);
}

TEST_P(ThreadSweepTest, UndirectedOneOutPairsAreThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const UndirectedGraph g = make_undirected_erdos_renyi(6000, 24000, 25);
  const SymmetricScaling s = scale_symmetric(g, 3);
  const std::vector<vid_t> choice = sample_choices(g, s.d, 5);
  const UndirectedMatching m = one_out_karp_sipser(g.num_vertices(), choice);
  UndirectedMatching ref;
  {
    ThreadCountGuard inner(1);
    ref = one_out_karp_sipser(g.num_vertices(), choice);
  }
  EXPECT_EQ(m.mate, ref.mate);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweepTest, ::testing::Values(1, 2, 4, 8, 16));

// Every name a job spec can name, in every registry, yields the same result
// at any stage thread budget. Iterating the registries themselves means a
// name registered later is covered without touching this test.

/// Every scalar a non-match pipeline reports, for comparison.
auto extras_fields(const AnalysisExtras& e) {
  return std::tie(e.symmetric_view, e.vertices, e.undirected_edges, e.h_rows, e.h_cols,
                  e.s_size, e.v_rows, e.v_cols, e.fine_blocks, e.total_support,
                  e.fully_indecomposable, e.cover_size, e.cover_valid, e.maximum);
}

/// What one pipeline run produced: the cardinalities and extras it reports,
/// plus the pairs (bipartite row_match, or the undirected mate array).
struct RunOutcome {
  vid_t cardinality = 0;
  vid_t sprank = 0;
  bool valid = false;
  AnalysisExtras extras;
  std::vector<vid_t> pairs;

  bool operator==(const RunOutcome& o) const {
    return std::tie(cardinality, sprank, valid, pairs) ==
               std::tie(o.cardinality, o.sprank, o.valid, o.pairs) &&
           extras_fields(extras) == extras_fields(o.extras);
  }
};

enum class PipelineKind { kMatch, kUndirected, kAnalyze };

RunOutcome run_at_threads(PipelineKind kind, const std::string& name, int threads,
                          std::uint64_t graph_seed) {
  // A fresh graph per run, so no sprank memo carries over between counts.
  const BipartiteGraph g = make_erdos_renyi(1500, 1800, 7000, graph_seed);
  PipelineConfig config;
  config.algorithm = name;
  config.options.seed = 29;
  config.options.threads = threads;
  Workspace ws;
  PipelineResult out;
  RunOutcome r;
  switch (kind) {
    case PipelineKind::kMatch:
      run_pipeline_ws(g, config, ws, out);
      r.pairs = out.matching.row_match;
      break;
    case PipelineKind::kUndirected:
      run_undirected_pipeline_ws(g, config, ws, out);
      r.pairs = ws.obj<UndirectedMatching>("und.matching").mate;
      break;
    case PipelineKind::kAnalyze:
      run_analyze_pipeline_ws(g, config, ws, out);
      if (name == "koenig") r.pairs = ws.obj<Matching>("analyze.matching").row_match;
      break;
  }
  r.cardinality = out.cardinality;
  r.sprank = out.sprank;
  r.valid = out.valid;
  r.extras = out.extras;
  return r;
}

TEST(RegistryDeterminism, EveryRegisteredNameIsThreadCountInvariant) {
  const std::vector<std::pair<PipelineKind, std::vector<std::string>>> registries = {
      {PipelineKind::kMatch, matching_algorithms().names()},
      {PipelineKind::kUndirected, undirected_algorithms().names()},
      {PipelineKind::kAnalyze, analysis_type_names()},
  };
  int covered = 0;
  for (const auto& [kind, names] : registries) {
    for (const std::string& name : names) {
      for (const std::uint64_t graph_seed : {3u, 4u}) {
        const RunOutcome ref = run_at_threads(kind, name, 1, graph_seed);
        EXPECT_TRUE(ref.valid) << name;
        for (const int threads : {2, 4, 8})
          EXPECT_EQ(run_at_threads(kind, name, threads, graph_seed), ref)
              << name << " at " << threads << " threads, graph seed " << graph_seed;
      }
      ++covered;
    }
  }
  EXPECT_GE(covered, 16);  // 10 matching + 3 undirected + 3 analysis built-ins
}

TEST(RaceStress, OneSidedStaysValidUnderManyParallelRuns) {
  const BipartiteGraph g = make_erdos_renyi(4000, 4000, 16000, 3);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  for (int rep = 0; rep < 10; ++rep) {
    const Matching m = one_sided_from_scaling(g, s, static_cast<std::uint64_t>(rep));
    testing::expect_valid(g, m, "one_sided stress");
  }
}

TEST(RaceStress, TwoSidedStaysValidAndExactUnderManyParallelRuns) {
  const BipartiteGraph g = make_erdos_renyi(4000, 4000, 16000, 5);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  for (int rep = 0; rep < 10; ++rep) {
    const Matching m = two_sided_from_scaling(g, s, static_cast<std::uint64_t>(rep));
    testing::expect_valid(g, m, "two_sided stress");
  }
}

} // namespace
} // namespace bmh
