#pragma once
/// \file one_sided.hpp
/// \brief OneSidedMatch (paper Algorithm 2): the synchronization-free
/// 0.632-approximation heuristic.
///
/// Every row independently picks one column from the scaled probability
/// density; concurrent rows may pick the same column, and any one of them
/// is a valid matching edge, so no conflict resolution beyond a single
/// write per row is needed (the heuristic's headline property). The write
/// is a priority update: the largest row id survives in `cmatch[j]`, which
/// is also what a sequential run's last writer leaves, so the pairs do not
/// depend on the thread count. For a doubly stochastic scaling the expected
/// number of unmatched columns is at most n/e, giving the 1 − 1/e ≈ 0.632
/// guarantee of Theorem 1.

#include <cstdint>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// Runs Algorithm 2 on a pre-scaled matrix. The `cmatch` writes are
/// write-max priority updates (Shun, Blelloch, Fineman & Gibbons, SPAA
/// 2013): a relaxed load, then a CAS only while the row id is larger than
/// the value held, so a contested column costs one CAS per improvement (a
/// single-thread team stores plainly: its last writer is the largest id).
[[nodiscard]] Matching one_sided_from_scaling(const BipartiteGraph& g,
                                              const ScalingResult& scaling,
                                              std::uint64_t seed);

/// Convenience: Sinkhorn–Knopp for `scaling_iterations` then Algorithm 2.
/// `scaling_iterations = 0` reproduces the "no scaling / uniform pick"
/// baseline columns of the paper's tables.
[[nodiscard]] Matching one_sided_match(const BipartiteGraph& g, int scaling_iterations,
                                       std::uint64_t seed);

/// Workspace-aware variants: scratch (choices, the column view, and for the
/// convenience form the scaling vectors) is leased from `ws` and the result
/// lands in `out`; warm calls are allocation-free. Identical output to the
/// classic entry points for the same seed.
void one_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, Workspace& ws, Matching& out);
void one_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, Workspace& ws, Matching& out);

} // namespace bmh
