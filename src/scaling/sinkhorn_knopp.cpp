#include "scaling/sinkhorn_knopp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace bmh {

ScalingResult scale_sinkhorn_knopp(const BipartiteGraph& g, const ScalingOptions& opts) {
  ScalingResult r;
  scale_sinkhorn_knopp_ws(g, opts, Workspace::for_this_thread(), r);
  return r;
}

void scale_sinkhorn_knopp_ws(const BipartiteGraph& g, const ScalingOptions& opts,
                             Workspace& ws, ScalingResult& out) {
  out.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  out.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  out.row_total.clear();
  out.col_total.clear();
  out.iterations = 0;
  out.error = 0.0;
  out.converged = false;

  // An edgeless matrix is already (vacuously) doubly stochastic: every
  // row/column sum constraint is over an empty support. Report immediate
  // convergence instead of burning max_iterations no-op sweeps.
  if (g.num_edges() == 0) {
    out.converged = true;
    return;
  }
  if (opts.max_iterations <= 0) {
    if (opts.max_iterations == 0) out.error = scaling_error_ws(g, out, ws);
    return;
  }

  std::vector<double>& row_total = out.row_total;
  std::vector<double>& col_total = out.col_total;
  row_total.resize(static_cast<std::size_t>(g.num_rows()));
  col_total.resize(static_cast<std::size_t>(g.num_cols()));
  // col_total[j] holds the sum of dr over column j for the current dr. With
  // dr = 1 that sum is the degree, exactly (a sum of ones is exact).
#pragma omp parallel for schedule(static)
  for (vid_t j = 0; j < g.num_cols(); ++j)
    col_total[static_cast<std::size_t>(j)] = static_cast<double>(g.col_degree(j));

  // The row and error sweeps visit each block's lists in degree order (see
  // BipartiteGraph::row_schedule); each list is still summed in adjacency
  // order, so every sum has the natural-order sweep's bits.
  const std::span<const vid_t> row_order = g.row_schedule();
  const std::span<const vid_t> col_order = g.col_schedule();
  const vid_t row_blocks = sweep_block_count(g.num_rows());
  const vid_t col_blocks = sweep_block_count(g.num_cols());

  for (int it = 0; it < opts.max_iterations; ++it) {
    // Balance columns: dc[j] <- 1 / (sum of dr over the column's rows). The
    // sums are the previous error pass's, made with this dr in this order.
#pragma omp parallel for schedule(static)
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      const double csum = col_total[static_cast<std::size_t>(j)];
      if (csum > 0.0) out.dc[static_cast<std::size_t>(j)] = 1.0 / csum;
    }

    // Balance rows: dr[i] <- 1 / (sum of dc over the row's columns).
#pragma omp parallel for schedule(dynamic, 1)
    for (vid_t b = 0; b < row_blocks; ++b)
      for (const vid_t i : sweep_block(row_order, b)) {
        double rsum = 0.0;
        for (const vid_t j : g.row_neighbors(i)) rsum += out.dc[static_cast<std::size_t>(j)];
        row_total[static_cast<std::size_t>(i)] = rsum;
        if (rsum > 0.0) out.dr[static_cast<std::size_t>(i)] = 1.0 / rsum;
      }

    out.iterations = it + 1;

    // Column sums drifted when the rows were re-balanced; their max
    // deviation from 1 is the convergence error (row sums are exactly 1).
    // The sums are kept for the next column balance.
    double err = 0.0;
#pragma omp parallel for schedule(dynamic, 1) reduction(max : err)
    for (vid_t b = 0; b < col_blocks; ++b)
      for (const vid_t j : sweep_block(col_order, b)) {
        if (g.col_degree(j) == 0) continue;
        double csum = 0.0;
        for (const vid_t i : g.col_neighbors(j)) csum += out.dr[static_cast<std::size_t>(i)];
        col_total[static_cast<std::size_t>(j)] = csum;
        err = std::max(err, std::abs(csum * out.dc[static_cast<std::size_t>(j)] - 1.0));
      }
    out.error = err;

    if (opts.tolerance > 0.0 && err <= opts.tolerance) {
      out.converged = true;
      break;
    }
  }
}

} // namespace bmh
