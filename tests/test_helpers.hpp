#pragma once
/// \file test_helpers.hpp
/// \brief Shared fixtures and helpers for the bmh test suite.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bmh.hpp"

namespace bmh::testing {

/// Asserts validity with a readable failure message.
inline void expect_valid(const BipartiteGraph& g, const Matching& m,
                         const char* context) {
  const std::string violation = describe_matching_violation(g, m);
  EXPECT_TRUE(violation.empty()) << context << ": " << violation;
}

/// Exhaustive maximum matching by recursion over rows — the independent
/// oracle used to certify Hopcroft–Karp and MC21 on small instances.
inline vid_t brute_force_max_matching(const BipartiteGraph& g) {
  std::vector<bool> col_used(static_cast<std::size_t>(g.num_cols()), false);
  // Recursive lambda over rows: either skip row i or match it to a free
  // neighbour; returns the best cardinality.
  auto rec = [&](auto&& self, vid_t i) -> vid_t {
    if (i == g.num_rows()) return 0;
    vid_t best = self(self, i + 1);  // leave row i unmatched
    for (const vid_t j : g.row_neighbors(i)) {
      if (col_used[static_cast<std::size_t>(j)]) continue;
      col_used[static_cast<std::size_t>(j)] = true;
      best = std::max(best, static_cast<vid_t>(1 + self(self, i + 1)));
      col_used[static_cast<std::size_t>(j)] = false;
    }
    return best;
  };
  return rec(rec, 0);
}

/// A small deterministic zoo of graphs exercising edge cases: empty rows,
/// empty columns, rectangular shapes, paths, cycles, cliques.
inline std::vector<BipartiteGraph> small_graph_zoo() {
  std::vector<BipartiteGraph> zoo;
  zoo.push_back(graph_from_rows(1, 1, {{0}}));                         // single edge
  zoo.push_back(graph_from_rows(2, 2, {{0, 1}, {0, 1}}));              // 2x2 full
  zoo.push_back(graph_from_rows(3, 3, {{0}, {0, 1}, {1, 2}}));         // path
  zoo.push_back(graph_from_rows(3, 3, {{0, 1}, {1, 2}, {2, 0}}));      // 6-cycle
  zoo.push_back(graph_from_rows(3, 3, {{}, {0, 1, 2}, {1}}));          // empty row
  zoo.push_back(graph_from_rows(3, 4, {{0, 3}, {1}, {1, 2}}));         // rectangular
  zoo.push_back(graph_from_rows(4, 3, {{0}, {0}, {1, 2}, {2}}));       // tall
  zoo.push_back(graph_from_rows(4, 4, {{0, 1, 2, 3}, {0}, {0}, {0}})); // star clash
  zoo.push_back(make_full(4));
  zoo.push_back(make_cycle(5));
  return zoo;
}

/// A 1300x1500 graph whose row schedule exercises visit_list_pairs: block
/// 0 (rows 0..511) ends in an odd run of degree-4 lists that block 1
/// begins with (a run straddling the 512-vertex boundary), block 1 holds an
/// odd run at kSweepDegreeCap - 1 and lists at the cap and above it, and
/// the partial block 2 mixes degrees 0..17. Columns 1450.. are empty, rows
/// 0..4 too.
inline BipartiteGraph list_pairing_graph() {
  const auto degree = [](vid_t i) -> vid_t {
    if (i < 512) return i < 5 ? 0 : i < 205 ? 3 : 4;  // 307 lists of degree 4 close block 0
    if (i < 1024) {
      const vid_t k = i - 512;
      if (k < 101) return 4;  // an odd run opening block 1
      if (k < 108) return static_cast<vid_t>(kSweepDegreeCap) - 1;
      if (k < 114) return static_cast<vid_t>(kSweepDegreeCap);
      if (k < 117) return static_cast<vid_t>(kSweepDegreeCap) + 1;
      return k == 117 ? 40 : 5;
    }
    return (i * 7) % 18;
  };
  std::vector<std::vector<vid_t>> rows(1300);
  for (vid_t i = 0; i < 1300; ++i)
    for (vid_t d = 0; d < degree(i); ++d)
      rows[static_cast<std::size_t>(i)].push_back((i * 13 + d * 97) % 1450);
  return graph_from_rows(1300, 1500, rows);
}

/// Graphs that exercise the sweep schedules (BipartiteGraph::row_schedule):
/// blocks whose degrees lie on both sides of kSweepDegreeCap, power-law
/// hubs, empty rows and columns, fewer vertices than one block, partial last
/// blocks, rectangular shapes and an edgeless graph.
inline std::vector<std::pair<std::string, BipartiteGraph>> sweep_schedule_graphs() {
  std::vector<std::vector<vid_t>> rows(1100);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t d = 0; d < i * 7 % 41; ++d)
      rows[i].push_back(static_cast<vid_t>((i * 13 + d * 31) % 1300));
  std::vector<std::pair<std::string, BipartiteGraph>> graphs;
  graphs.emplace_back("degrees 0..40 in every block, 1100x1300",
                      graph_from_rows(1100, 1300, rows));
  graphs.emplace_back("power-law hubs, n=1500", make_power_law(1500, 8.0, 1.8, 5));
  graphs.emplace_back("sparse 700x1200, empty rows and columns",
                      make_erdos_renyi(700, 1200, 1000, 3));
  graphs.emplace_back("fewer vertices than one block", make_erdos_renyi(300, 300, 1500, 2));
  graphs.emplace_back("edgeless", graph_from_rows(3, 4, {{}, {}, {}}));
  graphs.emplace_back("list pairing, 1300x1500", list_pairing_graph());
  graphs.emplace_back("list pairing, transposed", list_pairing_graph().transposed());
  return graphs;
}

/// The bytes memory_bytes() charges for a graph's two sweep schedules,
/// built or not: 4 per row and per column.
inline std::size_t schedule_bytes(const BipartiteGraph& g) {
  return (static_cast<std::size_t>(g.num_rows()) + static_cast<std::size_t>(g.num_cols())) *
         sizeof(vid_t);
}

} // namespace bmh::testing
