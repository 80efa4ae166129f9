#pragma once
/// \file sinkhorn_knopp.hpp
/// \brief Parallel Sinkhorn–Knopp scaling (paper Algorithm 1, "ScaleSK").

#include "scaling/scaling.hpp"

namespace bmh {

/// Runs the Sinkhorn–Knopp iteration: at each step, first the columns are
/// balanced (dc[j] = 1 / sum_i dr[i]·a_ij), then the rows (dr[i] = 1 /
/// sum_j a_ij·dc[j]), each in an OpenMP parallel-for over the corresponding
/// compressed view. After every iteration the row sums are exactly one
/// (modulo round-off), so the reported error is the maximum deviation of the
/// column sums from one.
///
/// Cost: k iterations make 2k sweeps over the edges. The error pass sums dr
/// over each column, with the final dr and in adjacency order; those sums
/// are exactly the next column balance's, so that balance is one divide per
/// column (the first one divides by the degrees, the sums of dr = 1). The
/// last row sums and column sums are left in row_total/col_total for the
/// choice samplers.
///
/// The row sweep and the error pass visit the lists through the graph's
/// sweep schedules (BipartiteGraph::row_schedule / col_schedule): degree
/// order inside each 512-vertex block, so a list's loop exit is predictable.
/// Every list is summed in adjacency order, so the multipliers, totals and
/// error have the natural-order sweep's bits at any thread count.
///
/// Empty rows/columns keep multiplier 1 and are excluded from the error.
/// Edgeless matrices converge immediately (error 0, zero iterations), and
/// then, like max_iterations = 0, leave the sampling totals empty.
[[nodiscard]] ScalingResult scale_sinkhorn_knopp(const BipartiteGraph& g,
                                                 const ScalingOptions& opts = {});

/// Workspace-aware variant: the multipliers are written into `out` (whose
/// vectors' capacity is reused), so a warm call performs no heap allocation
/// (the first call on a graph object builds its sweep schedules).
void scale_sinkhorn_knopp_ws(const BipartiteGraph& g, const ScalingOptions& opts,
                             Workspace& ws, ScalingResult& out);

} // namespace bmh
