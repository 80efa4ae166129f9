#include "scaling/sinkhorn_knopp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "util/threading.hpp"

namespace bmh {

namespace {

/// Calls done(u, s) for every list u of a sweep block, where s is the sum
/// of w over u's neighbours in adjacency order. A pair of equal-length
/// short lists (visit_list_pairs) is summed in lockstep with two
/// accumulators, which gives each sum the bits it has alone.
template <typename Done>
void sum_lists(std::span<const vid_t> block, std::span<const eid_t> ptr, const vid_t* idx,
               const double* w, Done&& done) {
  visit_list_pairs(
      block, ptr,
      [&](vid_t u, vid_t v, eid_t d) {
        const vid_t* const a = idx + ptr[u];
        const vid_t* const b = idx + ptr[v];
        double su = 0.0;
        double sv = 0.0;
        for (eid_t e = 0; e < d; ++e) {
          su += w[a[e]];
          sv += w[b[e]];
        }
        done(u, su);
        done(v, sv);
      },
      [&](vid_t u) {
        double su = 0.0;
        for (eid_t e = ptr[u]; e < ptr[u + 1]; ++e) su += w[idx[e]];
        done(u, su);
      });
}

} // namespace

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

  out.row_total.resize(static_cast<std::size_t>(g.num_rows()));
  out.col_total.resize(static_cast<std::size_t>(g.num_cols()));
  // The error pass also makes the next column balance's divides, while its
  // add chains leave the divider idle. It writes them into a second buffer,
  // as the pass still reads the current dc; the buffers swap roles every
  // iteration. Empty columns are never balanced, so both hold 1 there.
  std::vector<double>& spare_dc =
      ws.vec<double>("sk.spare_dc", static_cast<std::size_t>(g.num_cols()), 1.0);
  double* const dr = out.dr.data();
  double* const row_total = out.row_total.data();
  double* const col_total = out.col_total.data();
  const std::span<const eid_t> row_ptr = g.row_ptr();
  const std::span<const eid_t> col_ptr = g.col_ptr();
  const vid_t* const col_idx = g.col_idx().data();
  const vid_t* const row_idx = g.row_idx().data();

  // The row and error sweeps visit each block's lists in degree order (see
  // BipartiteGraph::row_schedule); each list is still summed in adjacency
  // order, so every sum has the natural-order sweep's bits.
  const std::span<const vid_t> row_order = g.row_schedule();
  const std::span<const vid_t> col_order = g.col_schedule();
  const vid_t row_blocks = sweep_block_count(g.num_rows());
  const vid_t col_blocks = sweep_block_count(g.num_cols());
  const vid_t num_cols = g.num_cols();

  // Iteration `it` claims its sweep blocks from sweeps[it & 1] and combines
  // its error there. Member 0 clears the other slot for iteration it + 1
  // once every member is past iteration it's first barrier, by which point
  // all of them have read iteration it - 1's error from that slot.
  struct Sweeps {
    vid_t next_row_block = 0;
    vid_t next_col_block = 0;
    double error = 0.0;
  };
  Sweeps sweeps[2];

  run_team([&](auto mem, int tid, int nth) {
    const vid_t my_cols = part(num_cols, tid, nth);
    const vid_t my_cols_end = part(num_cols, tid + 1, nth);
    double* dc = out.dc.data();
    double* next_dc = spare_dc.data();
    // The first column balance divides by the degrees: the column sums of
    // dr = 1, exactly (a sum of ones is exact).
    for (vid_t j = my_cols; j < my_cols_end; ++j) {
      col_total[j] = static_cast<double>(col_ptr[j + 1] - col_ptr[j]);
      if (col_total[j] > 0.0) dc[j] = 1.0 / col_total[j];
    }
    mem.barrier();

    for (int it = 0; it < opts.max_iterations; ++it) {
      Sweeps& sweep = sweeps[it & 1];
      // The previous error pass balanced the columns into next_dc.
      if (it > 0) std::swap(dc, next_dc);

      // Balance rows: dr[i] <- 1 / (sum of dc over the row's columns). The
      // per-list callbacks capture the array pointers by value: through
      // references GCC reloads them on every list.
      for (vid_t b; (b = mem.claim(sweep.next_row_block)) < row_blocks;)
        sum_lists(sweep_block(row_order, b), row_ptr, col_idx, dc,
                  [=](vid_t i, double rsum) {
                    row_total[i] = rsum;
                    if (rsum > 0.0) dr[i] = 1.0 / rsum;
                  });
      mem.barrier();
      if (tid == 0) sweeps[(it + 1) & 1] = Sweeps{};

      // Column sums drifted when the rows were re-balanced; their max
      // deviation from 1 is the convergence error (row sums are exactly 1).
      // Balance columns for the next iteration from the same sums:
      // dc[j] <- 1 / (sum of dr over the column's rows).
      double err = 0.0;
      for (vid_t b; (b = mem.claim(sweep.next_col_block)) < col_blocks;)
        sum_lists(sweep_block(col_order, b), col_ptr, row_idx, dr,
                  [=, &err](vid_t j, double csum) {
                    if (col_ptr[j + 1] == col_ptr[j]) return;
                    col_total[j] = csum;
                    err = std::max(err, std::abs(csum * dc[j] - 1.0));
                    next_dc[j] = csum > 0.0 ? 1.0 / csum : dc[j];
                  });
      mem.write_max(sweep.error, err);
      mem.barrier();

      // Every member reads the combined error, so all leave together.
      err = mem.load(sweep.error);
      if (tid == 0) {
        out.iterations = it + 1;
        out.error = err;
      }
      if (opts.tolerance > 0.0 && err <= opts.tolerance) {
        if (tid == 0) out.converged = true;
        break;
      }
    }

    // The result is the dc the last row sweep read.
    if (dc != out.dc.data())
      std::copy(dc + my_cols, dc + my_cols_end, out.dc.data() + my_cols);
  });
}

} // namespace bmh
