/// Unit tests for the CSR/CSC bipartite graph structure: construction
/// validation, dual-view consistency, transpose, and lookup helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(BipartiteGraph, EmptyGraphIsValid) {
  const BipartiteGraph g(0, 0, {0}, {});
  EXPECT_EQ(g.num_rows(), 0);
  EXPECT_EQ(g.num_cols(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(BipartiteGraph, RejectsBadRowPtrSize) {
  EXPECT_THROW(BipartiteGraph(2, 2, {0, 1}, {0}), std::invalid_argument);
}

TEST(BipartiteGraph, RejectsNonMonotoneRowPtr) {
  EXPECT_THROW(BipartiteGraph(2, 2, {0, 2, 1}, {0, 1}), std::invalid_argument);
}

TEST(BipartiteGraph, RejectsOutOfRangeColumn) {
  EXPECT_THROW(BipartiteGraph(2, 2, {0, 1, 2}, {0, 5}), std::invalid_argument);
}

TEST(BipartiteGraph, RejectsBoundsMismatch) {
  EXPECT_THROW(BipartiteGraph(1, 1, {0, 2}, {0}), std::invalid_argument);
}

TEST(BipartiteGraph, CscMirrorsCsr) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1}, {1, 2}, {0}});
  // Column 0 is touched by rows 0 and 2; column 1 by rows 0 and 1; etc.
  std::vector<vid_t> c0(g.col_neighbors(0).begin(), g.col_neighbors(0).end());
  std::vector<vid_t> c1(g.col_neighbors(1).begin(), g.col_neighbors(1).end());
  std::vector<vid_t> c2(g.col_neighbors(2).begin(), g.col_neighbors(2).end());
  EXPECT_EQ(c0, (std::vector<vid_t>{0, 2}));
  EXPECT_EQ(c1, (std::vector<vid_t>{0, 1}));
  EXPECT_EQ(c2, (std::vector<vid_t>{1}));
}

TEST(BipartiteGraph, DegreesAgreeAcrossViews) {
  const BipartiteGraph g = make_erdos_renyi(200, 150, 1000, 7);
  eid_t row_total = 0, col_total = 0;
  for (vid_t i = 0; i < g.num_rows(); ++i) row_total += g.row_degree(i);
  for (vid_t j = 0; j < g.num_cols(); ++j) col_total += g.col_degree(j);
  EXPECT_EQ(row_total, g.num_edges());
  EXPECT_EQ(col_total, g.num_edges());
}

TEST(BipartiteGraph, EveryCsrEdgeAppearsInCsc) {
  const BipartiteGraph g = make_erdos_renyi(64, 80, 400, 3);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    for (const vid_t j : g.row_neighbors(i)) {
      const auto nbrs = g.col_neighbors(j);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), i), nbrs.end())
          << "edge (" << i << "," << j << ") missing from CSC";
    }
  }
}

TEST(BipartiteGraph, HasEdgeMatchesStructure) {
  const BipartiteGraph g = graph_from_rows(2, 3, {{0, 2}, {1}});
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(BipartiteGraph, TransposeSwapsDimensionsAndEdges) {
  const BipartiteGraph g = make_erdos_renyi(50, 70, 300, 11);
  const BipartiteGraph t = g.transposed();
  EXPECT_EQ(t.num_rows(), g.num_cols());
  EXPECT_EQ(t.num_cols(), g.num_rows());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_TRUE(t.has_edge(j, i));
}

TEST(BipartiteGraph, DoubleTransposeIsIdentity) {
  const BipartiteGraph g = make_erdos_renyi(40, 40, 200, 13);
  EXPECT_TRUE(g.structurally_equal(g.transposed().transposed()));
}

TEST(BipartiteGraph, StructuralEqualityDetectsDifference) {
  const BipartiteGraph a = graph_from_rows(2, 2, {{0}, {1}});
  const BipartiteGraph b = graph_from_rows(2, 2, {{1}, {0}});
  EXPECT_TRUE(a.structurally_equal(a));
  EXPECT_FALSE(a.structurally_equal(b));
}

TEST(BipartiteGraph, SquareDetection) {
  EXPECT_TRUE(graph_from_rows(2, 2, {{0}, {1}}).square());
  EXPECT_FALSE(graph_from_rows(2, 3, {{0}, {1}}).square());
}

TEST(BipartiteGraph, CscRowIndicesAreSortedPerColumn) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 3000, 17);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const auto nbrs = g.col_neighbors(j);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "column " << j;
  }
}

// ------------------------------------------------------------ sprank memo ---

TEST(BipartiteGraphSprankMemo, FreshAndMappedGraphsAreUnknown) {
  EXPECT_EQ(BipartiteGraph().known_sprank(), kNil);
  const BipartiteGraph g = make_erdos_renyi(50, 50, 200, 3);
  EXPECT_EQ(g.known_sprank(), kNil);

  // A graph loaded from a store file is a fresh object, even when the graph
  // it was saved from had its memo filled.
  g.remember_sprank(49);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bmh_graph_memo_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".bmhg");
  save_graph(g, path.string());
  const BipartiteGraph mapped = load_graph_mapped(path.string());
  std::filesystem::remove(path);
  EXPECT_FALSE(mapped.owns_storage());
  EXPECT_EQ(mapped.known_sprank(), kNil);
}

TEST(BipartiteGraphSprankMemo, RememberedValueReadsBack) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1}, {1}, {1}});
  g.remember_sprank(2);
  EXPECT_EQ(g.known_sprank(), 2);
  g.remember_sprank(kNil);
  EXPECT_EQ(g.known_sprank(), kNil);
}

TEST(BipartiteGraphSprankMemo, CopiesAndMovesCarryTheMemo) {
  BipartiteGraph source = make_erdos_renyi(30, 30, 120, 5);
  source.remember_sprank(27);

  const BipartiteGraph copied(source);
  EXPECT_EQ(copied.known_sprank(), 27);
  EXPECT_EQ(source.known_sprank(), 27);

  BipartiteGraph copy_assigned;
  copy_assigned = source;
  EXPECT_EQ(copy_assigned.known_sprank(), 27);
  EXPECT_EQ(source.known_sprank(), 27);

  // A moved-from graph is a valid empty graph, so its rank is unknown.
  BipartiteGraph moved(std::move(source));
  EXPECT_EQ(moved.known_sprank(), 27);
  EXPECT_EQ(source.known_sprank(), kNil);

  BipartiteGraph move_assigned = graph_from_rows(1, 1, {{0}});
  move_assigned.remember_sprank(1);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.known_sprank(), 27);
  EXPECT_EQ(moved.known_sprank(), kNil);

  // Assigning a graph whose rank is unknown clears the target's memo.
  const BipartiteGraph unknown = make_erdos_renyi(10, 10, 30, 1);
  move_assigned = unknown;
  EXPECT_EQ(move_assigned.known_sprank(), kNil);
}

TEST(BipartiteGraphSprankMemo, AssignCsrClearsTheMemo) {
  BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  g.remember_sprank(2);
  // Same shape, different edges: rank 1, so a stale memo would lie.
  const std::vector<eid_t> row_ptr{0, 1, 2};
  const std::vector<vid_t> col_idx{0, 0};
  g.assign_csr(2, 2, row_ptr, col_idx);
  EXPECT_EQ(g.known_sprank(), kNil);

  // A rejected reassignment leaves the graph, memo included, unchanged.
  g.remember_sprank(1);
  const std::vector<vid_t> bad_idx{0, 7};
  EXPECT_THROW(g.assign_csr(2, 2, row_ptr, bad_idx), std::invalid_argument);
  EXPECT_EQ(g.known_sprank(), 1);

  // The pooled rebuild path clears it too.
  GraphBuilder builder(3, 3);
  builder.add_edge(0, 0);
  builder.add_edge(1, 1);
  builder.build_into(g);
  EXPECT_EQ(g.num_rows(), 3);
  EXPECT_EQ(g.known_sprank(), kNil);
}

// ------------------------------------------------------- sweep schedules ---

/// The schedule a side should have: each block of kSweepBlock ids, stably
/// sorted by min(degree, kSweepDegreeCap).
std::vector<vid_t> expected_schedule(vid_t n, const std::function<eid_t(vid_t)>& degree) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t first = 0; first < order.size(); first += kSweepBlock) {
    const std::size_t last = std::min(order.size(), first + kSweepBlock);
    std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(first),
                     order.begin() + static_cast<std::ptrdiff_t>(last), [&](vid_t a, vid_t b) {
                       return std::min(degree(a), kSweepDegreeCap) <
                              std::min(degree(b), kSweepDegreeCap);
                     });
  }
  return order;
}

void expect_schedules_of(const BipartiteGraph& g) {
  const auto rows = g.row_schedule();
  const auto cols = g.col_schedule();
  EXPECT_EQ(std::vector<vid_t>(rows.begin(), rows.end()),
            expected_schedule(g.num_rows(), [&](vid_t i) { return g.row_degree(i); }));
  EXPECT_EQ(std::vector<vid_t>(cols.begin(), cols.end()),
            expected_schedule(g.num_cols(), [&](vid_t j) { return g.col_degree(j); }));
}

TEST(BipartiteGraph, SweepScheduleLifecycle) {
  for (const auto& [name, graph] : testing::sweep_schedule_graphs()) {
    SCOPED_TRACE(name);
    expect_schedules_of(graph);
  }

  // Built once: later calls serve the same buffer.
  const BipartiteGraph g = make_power_law(1500, 8.0, 1.8, 5);
  const auto first = g.row_schedule();
  EXPECT_EQ(g.row_schedule().data(), first.data());
  EXPECT_EQ(g.col_schedule().data(), g.col_schedule().data());

  // A copy serves its own schedule of the same edges.
  const BipartiteGraph copied(g);
  EXPECT_NE(copied.row_schedule().data(), first.data());
  expect_schedules_of(copied);

  // Assignment replaces a schedule built for other edges.
  BipartiteGraph target = make_erdos_renyi(900, 700, 2000, 1);
  expect_schedules_of(target);
  target = g;
  expect_schedules_of(target);
  BipartiteGraph moved_from = make_erdos_renyi(600, 800, 9000, 4);
  expect_schedules_of(moved_from);
  target = std::move(moved_from);
  expect_schedules_of(target);
  EXPECT_TRUE(moved_from.row_schedule().empty());
  EXPECT_TRUE(moved_from.col_schedule().empty());
  BipartiteGraph move_constructed(std::move(target));
  expect_schedules_of(move_constructed);
  EXPECT_TRUE(target.row_schedule().empty());

  // Pooled reassignment (assign_csr, GraphBuilder::build_into) drops it:
  // same shape, other degrees.
  BipartiteGraph pooled = graph_from_rows(3, 3, {{0}, {0, 1, 2}, {}});
  expect_schedules_of(pooled);
  const std::vector<eid_t> row_ptr{0, 3, 3, 4};
  const std::vector<vid_t> col_idx{0, 1, 2, 2};
  pooled.assign_csr(3, 3, row_ptr, col_idx);
  expect_schedules_of(pooled);
  GraphBuilder builder(1030, 1030);
  for (vid_t i = 0; i < 1030; ++i)
    for (vid_t d = 0; d < i % 23; ++d) builder.add_edge(i, (i + d * 41) % 1030);
  builder.build_into(pooled);
  expect_schedules_of(pooled);

  // Eight threads racing on first use all get the one finished schedule.
  const BipartiteGraph shared = make_power_law(5000, 8.0, 1.8, 9);
  std::vector<const vid_t*> rows_seen(8), cols_seen(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      rows_seen[t] = (t % 2 == 0 ? shared.row_schedule() : shared.col_schedule()).data();
      cols_seen[t] = (t % 2 == 0 ? shared.col_schedule() : shared.row_schedule()).data();
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(t % 2 == 0 ? rows_seen[t] : cols_seen[t], shared.row_schedule().data());
    EXPECT_EQ(t % 2 == 0 ? cols_seen[t] : rows_seen[t], shared.col_schedule().data());
  }
  expect_schedules_of(shared);
}

TEST(BipartiteGraph, MemoryBytesCountsSweepSchedules) {
  // Owned storage: the arrays' capacity plus both schedules, charged before
  // either is built, so building them leaves the figure as it was.
  const BipartiteGraph g = make_power_law(1500, 8.0, 1.8, 5);
  const std::size_t arrays =
      (g.row_ptr().size() + g.col_ptr().size()) * sizeof(eid_t) +
      (g.col_idx().size() + g.row_idx().size()) * sizeof(vid_t);
  const std::size_t before = g.memory_bytes();
  EXPECT_GE(before, arrays + testing::schedule_bytes(g));
  EXPECT_EQ(testing::schedule_bytes(g), std::size_t{4} * (1500 + 1500));
  (void)g.row_schedule();
  (void)g.col_schedule();
  EXPECT_EQ(g.memory_bytes(), before);

  // Mapped storage: the file plus both schedules, built or not.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bmh_graph_bytes_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".bmhg");
  save_graph(g, path.string());
  const std::size_t file_bytes = std::filesystem::file_size(path);
  const BipartiteGraph mapped = load_graph_mapped(path.string());
  std::filesystem::remove(path);
  ASSERT_FALSE(mapped.owns_storage());
  EXPECT_EQ(mapped.memory_bytes(), file_bytes + testing::schedule_bytes(g));
  (void)mapped.row_schedule();
  (void)mapped.col_schedule();
  EXPECT_EQ(mapped.memory_bytes(), file_bytes + testing::schedule_bytes(g));

  // An edgeless graph still charges its vertices' schedule entries.
  const BipartiteGraph edgeless = graph_from_rows(3, 4, {{}, {}, {}});
  EXPECT_GE(edgeless.memory_bytes(), std::size_t{4} * 7);
}

} // namespace
} // namespace bmh
