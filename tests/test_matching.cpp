/// Tests for the Matching value type and validity machinery.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "matching/matching.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(Matching, FreshMatchingIsEmptyAndValid) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0}, {1}, {2}});
  const Matching m(3, 3);
  EXPECT_EQ(m.cardinality(), 0);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST(Matching, MatchUpdatesBothViews) {
  Matching m(2, 2);
  m.match(0, 1);
  EXPECT_TRUE(m.row_matched(0));
  EXPECT_TRUE(m.col_matched(1));
  EXPECT_FALSE(m.row_matched(1));
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(Matching, ValidityRejectsInconsistentViews) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {0, 1}});
  Matching m(2, 2);
  m.row_match[0] = 1;  // col_match[1] not updated
  const std::string why = describe_matching_violation(g, m);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("col_match"), std::string::npos);
}

TEST(Matching, ValidityRejectsNonEdgePairs) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching m(2, 2);
  m.match(0, 1);  // (0,1) is not an edge
  EXPECT_FALSE(is_valid_matching(g, m));
  EXPECT_NE(describe_matching_violation(g, m).find("not an edge"), std::string::npos);
}

TEST(Matching, ValidityRejectsSizeMismatch) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const Matching m(3, 2);
  EXPECT_FALSE(is_valid_matching(g, m));
}

TEST(Matching, ValidityRejectsOutOfRangePartner) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching m(2, 2);
  m.row_match[0] = 7;
  EXPECT_FALSE(is_valid_matching(g, m));
}

TEST(Matching, ViolationMessagesAreExact) {
  // Every violation's text, byte for byte, so tests and logs that quote
  // them stay stable.
  const BipartiteGraph g = graph_from_rows(2, 3, {{0}, {1, 2}});
  const auto why = [&](auto&& edit, vid_t rows = 2, vid_t cols = 3) {
    Matching m(rows, cols);
    edit(m);
    return describe_matching_violation(g, m);
  };
  const auto none = [](Matching&) {};
  EXPECT_EQ(why(none), "");
  EXPECT_EQ(why(none, 3, 3), "row_match size 3 != num_rows 2");
  EXPECT_EQ(why(none, 2, 4), "col_match size 4 != num_cols 3");
  EXPECT_EQ(why([](Matching& m) { m.row_match[1] = 7; }),
            "row 1 matched to out-of-range column 7");
  EXPECT_EQ(why([](Matching& m) { m.row_match[1] = 2; }),
            "row 1 matched to column 2 but col_match[2] = -1");
  EXPECT_EQ(why([](Matching& m) { m.match(0, 2); }), "matched pair (0, 2) is not an edge");
  EXPECT_EQ(why([](Matching& m) { m.col_match[1] = -5; }),
            "column 1 matched to out-of-range row -5");
  EXPECT_EQ(why([](Matching& m) { m.col_match[1] = 1; }),
            "column 1 matched to row 1 but row_match[1] = -1");
  try {
    (void)matching_from_col_view(2, {1, 4});
    ADD_FAILURE() << "no throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "matching_from_col_view: col_match[1] = 4 is out of range [0, 2)");
  }
}

TEST(MatchingFromColView, ReconstructsRowView) {
  // Columns 0 and 2 claim rows 1 and 0 respectively.
  const Matching m = matching_from_col_view(2, {1, kNil, 0});
  EXPECT_EQ(m.row_match[0], 2);
  EXPECT_EQ(m.row_match[1], 0);
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(MatchingFromColView, SurvivingWriteWins) {
  // If two columns claimed the same row the input col view itself would be
  // inconsistent; the reconstruction keeps the *last* column's claim in the
  // row view. OneSidedMatch never produces that case (each row writes at
  // most one column), which this test documents by construction.
  const Matching m = matching_from_col_view(1, {0, 0});
  EXPECT_EQ(m.row_match[0], 1);
}

TEST(MatchingFromColView, RejectsOutOfRangeRowIds) {
  EXPECT_THROW((void)matching_from_col_view(2, {2}), std::out_of_range);
  EXPECT_THROW((void)matching_from_col_view(2, {kNil, -7}), std::out_of_range);
  EXPECT_NO_THROW((void)matching_from_col_view(2, {kNil, 1}));
}

TEST(Maximality, DetectsAugmentableEdge) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {1}});
  Matching empty(2, 2);
  EXPECT_FALSE(is_maximal_matching(g, empty));
  Matching m(2, 2);
  m.match(0, 0);
  m.match(1, 1);
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(Maximality, EmptyGraphIsTriviallyMaximal) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  EXPECT_TRUE(is_maximal_matching(g, Matching(2, 2)));
}

} // namespace
} // namespace bmh
