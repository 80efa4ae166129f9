/// Tests for KarpSipserMT (Algorithm 4). The central property — the paper's
/// Lemmas 1-3 — is that it is an *exact* maximum matching algorithm on the
/// choice subgraphs, for any thread count. We certify against Hopcroft-Karp
/// on the materialized subgraph across many random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/one_out_structure.hpp"
#include "core/karp_sipser_mt.hpp"
#include "core/two_sided.hpp"
#include "core/workspace.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

/// Toy graph of the paper's Figure 1: 9 rows (circles) and 9 columns
/// (squares) with each vertex's single outgoing choice. Vertex labels 1-18
/// in the figure map to rows 1..9 -> ids 0..8 and columns 10..18 -> 9..17
/// here. The exact arrows are not printed in the text, so we use a
/// same-shape instance: chains feeding a cycle, exercising out-one chains,
/// in-one targets, and Phase-2 cycle resolution.
std::vector<vid_t> figure1_like_choice() {
  // Rows are ids 0..8, columns are ids 9..17.
  std::vector<vid_t> choice(18, kNil);
  // A 6-cycle: r0 -> c0 -> r1 -> c1 -> r2 -> c2 -> r0.
  choice[0] = 9;
  choice[9] = 1;
  choice[1] = 10;
  choice[10] = 2;
  choice[2] = 11;
  choice[11] = 0;
  // A chain of out-ones feeding the cycle: r3 -> c3 -> r4 -> c0 (in cycle).
  choice[3] = 12;
  choice[12] = 4;
  choice[4] = 9;
  // A reciprocal 2-clique: r5 <-> c4.
  choice[5] = 13;
  choice[13] = 5;
  // A tree: c5 -> r6, r6 -> c6, c6 -> r6's target... keep it simple:
  choice[14] = 6;
  choice[6] = 15;
  choice[15] = 7;
  choice[7] = 16;
  choice[16] = 7;  // reciprocal with r7
  // r8/c8 isolated pair choosing each other.
  choice[8] = 17;
  choice[17] = 8;
  return choice;
}

TEST(KarpSipserMT, ExactOnFigure1LikeToyGraph) {
  const std::vector<vid_t> choice = figure1_like_choice();
  const Matching m = karp_sipser_mt(9, 9, choice);

  // Materialize and compare against the exact solver.
  std::vector<vid_t> rchoice(9, kNil), cchoice(9, kNil);
  for (vid_t i = 0; i < 9; ++i)
    rchoice[static_cast<std::size_t>(i)] =
        choice[static_cast<std::size_t>(i)] == kNil ? kNil
                                                    : choice[static_cast<std::size_t>(i)] - 9;
  for (vid_t j = 0; j < 9; ++j)
    cchoice[static_cast<std::size_t>(j)] = choice[static_cast<std::size_t>(9 + j)];
  const BipartiteGraph sub = materialize_choice_graph(9, 9, rchoice, cchoice);
  testing::expect_valid(sub, m, "figure1");
  EXPECT_EQ(m.cardinality(), sprank(sub));
}

TEST(KarpSipserMT, HandlesAllNilChoices) {
  const std::vector<vid_t> choice(10, kNil);
  const Matching m = karp_sipser_mt(5, 5, choice);
  EXPECT_EQ(m.cardinality(), 0);
}

TEST(KarpSipserMT, SizeMismatchThrows) {
  const std::vector<vid_t> choice(7, kNil);
  EXPECT_THROW((void)karp_sipser_mt(5, 5, choice), std::invalid_argument);
}

TEST(KarpSipserMT, SameSideChoiceRejected) {
  // Row 0 "choosing" row 1 would violate bipartiteness and corrupt the
  // phase invariants; the algorithm must reject it, as a team of one and
  // as a shared team.
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    std::vector<vid_t> choice(4, kNil);
    choice[0] = 1;  // row -> row
    EXPECT_THROW((void)karp_sipser_mt(2, 2, choice), std::invalid_argument) << threads;
    choice[0] = kNil;
    choice[2] = 3;  // column -> column
    EXPECT_THROW((void)karp_sipser_mt(2, 2, choice), std::invalid_argument) << threads;
    choice[2] = 7;  // out of range entirely
    EXPECT_THROW((void)karp_sipser_mt(2, 2, choice), std::invalid_argument) << threads;
  }
}

TEST(KarpSipserMT, ChosenVertexWithoutChoiceRejected) {
  // Rows 0-1, columns 2-3. Row 0 chose nothing, yet columns 2 and 3 chose
  // it: a vertex with an edge cannot be isolated, and Phase 1 would follow
  // row 0's missing choice out of bounds.
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    const std::vector<vid_t> choice = {kNil, 2, 0, 0};
    EXPECT_THROW((void)karp_sipser_mt(2, 2, choice), std::invalid_argument) << threads;
  }
}

/// A choice array over m rows and n columns (unified ids).
struct ChoiceCase {
  vid_t m;
  vid_t n;
  std::vector<vid_t> choice;
};

/// `copies` side-by-side copies of the gadget whose round-1 frontier is out
/// of id order, with two of its vertices claiming one target. Per copy g:
/// rows a, b, w2, w1, z = 5g + 0..4 and columns x, y, t = 3g + 0..2 (local
/// ids); a -> x -> w1 -> t, b -> y -> w2 -> t, and t <-> z. Round 0's
/// frontier is [a, b]; matching a-x and then b-y elects w1 and then w2, so
/// round 1's frontier is [w1, w2] with w1 > w2, and both claim t.
ChoiceCase unordered_frontier(vid_t copies) {
  std::vector<vid_t> rchoice(static_cast<std::size_t>(5 * copies));
  std::vector<vid_t> cchoice(static_cast<std::size_t>(3 * copies));
  for (vid_t g = 0; g < copies; ++g) {
    const auto r = static_cast<std::size_t>(5 * g);
    const auto c = static_cast<std::size_t>(3 * g);
    const vid_t x = 3 * g, y = 3 * g + 1, t = 3 * g + 2;
    rchoice[r + 0] = x;                     // a -> x
    rchoice[r + 1] = y;                     // b -> y
    rchoice[r + 2] = t;                     // w2 -> t
    rchoice[r + 3] = t;                     // w1 -> t
    rchoice[r + 4] = t;                     // z -> t
    cchoice[c + 0] = static_cast<vid_t>(r + 3);  // x -> w1
    cchoice[c + 1] = static_cast<vid_t>(r + 2);  // y -> w2
    cchoice[c + 2] = static_cast<vid_t>(r + 4);  // t -> z
  }
  return {5 * copies, 3 * copies, unify_choices(5 * copies, 3 * copies, rchoice, cchoice)};
}

TEST(KarpSipserMT, SmallestClaimantWinsOutOfOrderFrontier) {
  // The smallest claimant, w2, must take t at every thread count. A round
  // that let the first claimant in frontier order win (w1) would give other
  // pairs, and those would depend on the order the frontier was built in.
  const ChoiceCase c = unordered_frontier(1);
  for (const int threads : {1, 2, 3, 4}) {
    ThreadCountGuard guard(threads);
    KarpSipserMTStats stats;
    const Matching m = karp_sipser_mt(c.m, c.n, c.choice, &stats);
    EXPECT_EQ(m.row_match, (std::vector<vid_t>{0, 1, 2, kNil, kNil})) << threads;
    EXPECT_EQ(m.col_match, (std::vector<vid_t>{0, 1, 2})) << threads;
    EXPECT_EQ(stats.phase1_matches, 3) << threads;
    EXPECT_EQ(stats.phase2_matches, 0) << threads;
  }
}

/// Choice arrays for the team-size equality test: SK-5 choices on several
/// families, and hand-built arrays that stress the rounds.
std::vector<std::pair<std::string, ChoiceCase>> team_cases() {
  std::vector<std::pair<std::string, ChoiceCase>> cases;
  const std::pair<const char*, BipartiteGraph> graphs[] = {
      {"er", make_erdos_renyi(2048, 2048, 6 * 2048, 5)},
      {"powerlaw", make_power_law(2048, 8.0, 1.8, 6)},
      {"road", make_road_like(3000, 0.1, 0.05, 7)},
      {"rect", make_erdos_renyi(1700, 2300, 4000, 8)},
  };
  for (const auto& [name, g] : graphs) {
    const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
    const TwoSidedChoices ch = sample_two_sided_choices(g, s, 9);
    cases.push_back({name, {g.num_rows(), g.num_cols(),
                            unify_choices(g.num_rows(), g.num_cols(), ch.rchoice,
                                          ch.cchoice)}});
  }
  // Reciprocal pairs reached from both sides in one round: t1 -> y,
  // t2 -> x, x <-> y, per copy (rows t1, x; columns t2, y).
  const vid_t pairs = 500;
  std::vector<vid_t> rchoice(2 * pairs), cchoice(2 * pairs);
  for (vid_t g = 0; g < pairs; ++g) {
    rchoice[static_cast<std::size_t>(2 * g)] = 2 * g + 1;
    rchoice[static_cast<std::size_t>(2 * g + 1)] = 2 * g + 1;
    cchoice[static_cast<std::size_t>(2 * g)] = 2 * g + 1;
    cchoice[static_cast<std::size_t>(2 * g + 1)] = 2 * g + 1;
  }
  cases.push_back({"reciprocal frontier pairs",
                   {2 * pairs, 2 * pairs, unify_choices(2 * pairs, 2 * pairs, rchoice, cchoice)}});
  // One chain r0 -> c0 -> r1 -> c1 -> ... ending in a reciprocal pair: one
  // new frontier vertex per round.
  const vid_t length = 300;
  rchoice.assign(length, 0);
  cchoice.assign(length, 0);
  for (vid_t i = 0; i < length; ++i) {
    rchoice[static_cast<std::size_t>(i)] = i;
    cchoice[static_cast<std::size_t>(i)] = std::min(i + 1, length - 1);
  }
  cases.push_back({"long chain", {length, length, unify_choices(length, length, rchoice, cchoice)}});
  // Pure cycles of 2 * 7 vertices: nothing for phase 1.
  const vid_t cycles = 150, len = 7;
  rchoice.assign(cycles * len, 0);
  cchoice.assign(cycles * len, 0);
  for (vid_t q = 0; q < cycles; ++q)
    for (vid_t i = 0; i < len; ++i) {
      rchoice[static_cast<std::size_t>(q * len + i)] = q * len + i;
      cchoice[static_cast<std::size_t>(q * len + i)] = q * len + (i + 1) % len;
    }
  cases.push_back({"pure cycles", {cycles * len, cycles * len,
                                   unify_choices(cycles * len, cycles * len, rchoice, cchoice)}});
  cases.push_back({"all nil", {300, 200, std::vector<vid_t>(500, kNil)}});
  cases.push_back({"unordered frontier", unordered_frontier(400)});
  return cases;
}

TEST(KarpSipserMT, TeamOfOneMatchesSharedTeam) {
  // A one-thread budget runs the rounds with plain loads and stores; a
  // larger one runs them in a shared team. Both must give the same pairs,
  // statistics and phase-1 match arrays, also when the team splits the
  // work unevenly (three threads).
  Workspace ws;
  for (const auto& [name, c] : team_cases()) {
    SCOPED_TRACE(name);
    Matching alone;
    KarpSipserMTStats alone_stats;
    std::vector<vid_t> alone_phase1;
    {
      ThreadCountGuard guard(1);
      alone = karp_sipser_mt(c.m, c.n, c.choice, &alone_stats);
      ASSERT_TRUE(karp_sipser_mt_phase1_ws(c.choice, alone_phase1, ws));
    }
    EXPECT_EQ(alone_stats.phase1_matches + alone_stats.phase2_matches, alone.cardinality());
    for (const int threads : {2, 3, 4}) {
      ThreadCountGuard guard(threads);
      KarpSipserMTStats stats;
      const Matching shared = karp_sipser_mt(c.m, c.n, c.choice, &stats);
      EXPECT_EQ(shared.row_match, alone.row_match) << threads;
      EXPECT_EQ(shared.col_match, alone.col_match) << threads;
      EXPECT_EQ(stats.phase1_matches, alone_stats.phase1_matches) << threads;
      EXPECT_EQ(stats.phase2_matches, alone_stats.phase2_matches) << threads;
      std::vector<vid_t> phase1;
      ASSERT_TRUE(karp_sipser_mt_phase1_ws(c.choice, phase1, ws));
      EXPECT_EQ(phase1, alone_phase1) << threads;
    }
  }
}

TEST(KarpSipserMT, UnifyChoicesValidatesRanges) {
  const std::vector<vid_t> bad_row = {5};   // column 5 does not exist
  const std::vector<vid_t> ok_col = {kNil};
  EXPECT_THROW((void)unify_choices(1, 1, bad_row, ok_col), std::out_of_range);
  const std::vector<vid_t> ok_row = {0};
  const std::vector<vid_t> bad_col = {3};   // row 3 does not exist
  EXPECT_THROW((void)unify_choices(1, 1, ok_row, bad_col), std::out_of_range);
}

TEST(KarpSipserMT, PureCycleResolvedEntirelyInPhase2) {
  // rows 0..3, cols 4..7 forming one 8-cycle; no degree-one vertex exists,
  // so Phase 1 must match nothing and Phase 2 must match everything.
  std::vector<vid_t> choice(8);
  choice[0] = 4;
  choice[4] = 1;
  choice[1] = 5;
  choice[5] = 2;
  choice[2] = 6;
  choice[6] = 3;
  choice[3] = 7;
  choice[7] = 0;
  KarpSipserMTStats stats;
  const Matching m = karp_sipser_mt(4, 4, choice, &stats);
  EXPECT_EQ(m.cardinality(), 4);
  EXPECT_EQ(stats.phase1_matches, 0);
  EXPECT_EQ(stats.phase2_matches, 4);
}

TEST(KarpSipserMT, PureChainResolvedEntirelyInPhase1) {
  // r0 -> c0, c0 -> r1, r1 -> c1, c1 -> r1 (reciprocal at the end).
  std::vector<vid_t> choice(4);
  const vid_t m_rows = 2;
  choice[0] = m_rows + 0;  // r0 -> c0
  choice[2] = 1;           // c0 -> r1
  choice[1] = m_rows + 1;  // r1 -> c1
  choice[3] = 1;           // c1 -> r1 (in-one)
  KarpSipserMTStats stats;
  const Matching m = karp_sipser_mt(2, 2, choice, &stats);
  EXPECT_EQ(m.cardinality(), 2);
  EXPECT_EQ(stats.phase2_matches, 0);
}

TEST(KarpSipserMT, ReciprocalCliqueReachedFromBothSidesCountsOnce) {
  // Regression test for a reciprocal 2-clique {x, y} reached from both
  // sides at once: two out-one tails t1 -> y and t2 -> x claim the two
  // sides in the same Phase-1 round and both win. The phase statistics
  // must count every matched pair exactly once. Structure: t1 -> y,
  // t2 -> x, x <-> y.
  //
  // Unified ids: rows {t1=0, x=1}, columns {t2=2 -> local 0, y=3 -> 1}.
  std::vector<vid_t> choice(4, kNil);
  choice[0] = 3;  // row t1 chooses column y
  choice[1] = 3;  // row x chooses column y  (x <-> y reciprocal)
  choice[3] = 1;  // column y chooses row x
  choice[2] = 1;  // column t2 chooses row x
  for (int rep = 0; rep < 50; ++rep) {
    KarpSipserMTStats stats;
    const Matching m = karp_sipser_mt(2, 2, choice, &stats);
    EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality()) << rep;
    // The component is a path t1 - y - x - t2 plus the reciprocal edge;
    // its maximum matching has 2 pairs.
    EXPECT_EQ(m.cardinality(), 2) << rep;
  }
}

TEST(KarpSipserMT, StatsSumUnderHeavyRepetition) {
  // Stress the counting under real parallel schedules on a large random
  // instance (the configuration above occurs organically here).
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 8000, 3);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 5);
  const std::vector<vid_t> choice =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  for (int rep = 0; rep < 30; ++rep) {
    KarpSipserMTStats stats;
    const Matching m = karp_sipser_mt(g.num_rows(), g.num_cols(), choice, &stats);
    ASSERT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality()) << rep;
  }
}

TEST(KarpSipserMT, StatsSumToCardinality) {
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 8000, 3);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 5);
  const std::vector<vid_t> choice =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  KarpSipserMTStats stats;
  const Matching m = karp_sipser_mt(g.num_rows(), g.num_cols(), choice, &stats);
  EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality());
}

/// The heart of the exactness claim, swept over instance families, seeds
/// and thread counts: KarpSipserMT's cardinality equals Hopcroft-Karp's on
/// the materialized choice subgraph.
class KsmtExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(KsmtExactnessTest, MatchesExactSolverOnChoiceSubgraphs) {
  const auto [threads, seed] = GetParam();
  ThreadCountGuard guard(threads);

  struct Case {
    BipartiteGraph g;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({make_erdos_renyi(1500, 1500, 6000, seed), "er"});
  cases.push_back({make_erdos_renyi(900, 1100, 3500, seed + 1), "rect"});
  cases.push_back({make_planted_perfect(1200, 3, seed + 2), "planted"});
  cases.push_back({make_ks_adversarial(256, 8), "adversarial"});
  cases.push_back({make_road_like(2000, 0.1, 0.05, seed + 3), "road"});

  for (const auto& c : cases) {
    const ScalingResult s = scale_sinkhorn_knopp(c.g, {5, 0.0});
    const TwoSidedChoices ch = sample_two_sided_choices(c.g, s, seed + 7);
    const std::vector<vid_t> choice =
        unify_choices(c.g.num_rows(), c.g.num_cols(), ch.rchoice, ch.cchoice);

    const Matching m = karp_sipser_mt(c.g.num_rows(), c.g.num_cols(), choice);
    const BipartiteGraph sub =
        materialize_choice_graph(c.g.num_rows(), c.g.num_cols(), ch.rchoice, ch.cchoice);
    testing::expect_valid(sub, m, c.name);
    EXPECT_EQ(m.cardinality(), sprank(sub))
        << c.name << " threads=" << threads << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndSeeds, KsmtExactnessTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0ULL, 1ULL, 2ULL, 3ULL)));

TEST(KarpSipserMT, CardinalityIndependentOfThreadCount) {
  const BipartiteGraph g = make_erdos_renyi(5000, 5000, 20000, 9);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 11);
  const std::vector<vid_t> choice =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);

  vid_t reference = -1;
  for (const int threads : {1, 2, 4, 8, 16}) {
    ThreadCountGuard guard(threads);
    const vid_t card = karp_sipser_mt(g.num_rows(), g.num_cols(), choice).cardinality();
    if (reference < 0) reference = card;
    EXPECT_EQ(card, reference) << "threads=" << threads;
  }
}

TEST(KarpSipserMT, RepeatedParallelRunsStayExact) {
  // Stress the Phase-1 races: many repetitions on the same instance at max
  // threads must all remain exact and valid.
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 9000, 21);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 13);
  const std::vector<vid_t> choice =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  const BipartiteGraph sub =
      materialize_choice_graph(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  const vid_t exact = sprank(sub);
  for (int rep = 0; rep < 20; ++rep) {
    const Matching m = karp_sipser_mt(g.num_rows(), g.num_cols(), choice);
    testing::expect_valid(sub, m, "stress");
    EXPECT_EQ(m.cardinality(), exact) << "rep " << rep;
  }
}

} // namespace
} // namespace bmh
