#include "core/one_sided.hpp"

#include <vector>

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "util/threading.hpp"

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
  const vid_t rows = g.num_rows();
  const vid_t* const pick = rchoice.data();
  vid_t* const col = cmatch.data();
  run_team([&](auto mem, int tid, int nth) {
    for (vid_t i = part(rows, tid, nth); i < part(rows, tid + 1, nth); ++i)
      if (pick[i] != kNil) mem.write_max(col[pick[i]], i);
  });

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
