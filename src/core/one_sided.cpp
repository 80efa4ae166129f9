#include "core/one_sided.hpp"

#include <omp.h>

#include <atomic>
#include <vector>

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "scaling/sinkhorn_knopp.hpp"

namespace bmh {

Matching one_sided_from_scaling(const BipartiteGraph& g, const ScalingResult& scaling,
                                std::uint64_t seed) {
  Matching m;
  one_sided_from_scaling_ws(g, scaling, seed, Workspace::for_this_thread(), m);
  return m;
}

void one_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, Workspace& ws, Matching& out) {
  // Each row's pick; kNil for empty rows.
  std::vector<vid_t>& rchoice = ws.buf<vid_t>("os.rchoice");
  sample_row_choices(g, scaling.dc, seed, rchoice, scaling.row_total);

  // cmatch[j] <- i for every row pick. Where the paper lets the last racy
  // writer win, a write-max lets the largest row id win: the same column
  // set (so the same cardinality and guarantee), and the same pairs as a
  // sequential run, whose last writer is the largest id, at any thread
  // count.
  std::vector<vid_t>& cmatch =
      ws.vec<vid_t>("os.cmatch", static_cast<std::size_t>(g.num_cols()), kNil);
#pragma omp parallel
  {
    // A team of one visits the rows in ascending order, so its plain
    // stores already leave the largest id; it skips the CAS.
    const bool alone = omp_get_num_threads() == 1;
#pragma omp for schedule(static)
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      const vid_t j = rchoice[static_cast<std::size_t>(i)];
      if (j == kNil) continue;
      std::atomic_ref<vid_t> slot(cmatch[static_cast<std::size_t>(j)]);
      if (alone) {
        slot.store(i, std::memory_order_relaxed);
      } else {
        vid_t seen = slot.load(std::memory_order_relaxed);
        while (i > seen && !slot.compare_exchange_weak(seen, i, std::memory_order_relaxed)) {
        }
      }
    }
  }

  matching_from_col_view(g.num_rows(), cmatch, out);
}

Matching one_sided_match(const BipartiteGraph& g, int scaling_iterations,
                         std::uint64_t seed) {
  Matching m;
  one_sided_match_ws(g, scaling_iterations, seed, Workspace::for_this_thread(), m);
  return m;
}

void one_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, Workspace& ws, Matching& out) {
  ScalingOptions opts;
  opts.max_iterations = scaling_iterations;
  ScalingResult& scaling = ws.obj<ScalingResult>("os.scaling");
  if (scaling_iterations > 0)
    scale_sinkhorn_knopp_ws(g, opts, ws, scaling);
  else
    identity_scaling_ws(g, ws, scaling, /*compute_error=*/false);
  one_sided_from_scaling_ws(g, scaling, seed, ws, out);
}

} // namespace bmh
