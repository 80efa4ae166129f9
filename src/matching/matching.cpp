#include "matching/matching.hpp"

#include <sstream>
#include <stdexcept>

#include "util/threading.hpp"

namespace bmh {

namespace {

/// The parts streamed into one string. Built only once a check has failed,
/// so a valid matching costs no stream.
template <typename... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

} // namespace

vid_t Matching::cardinality() const noexcept {
  vid_t count = 0;
  const auto n = static_cast<vid_t>(row_match.size());
  run_team([&](auto mem, int tid, int nth) {
    vid_t mine = 0;
    for (vid_t i = part(n, tid, nth); i < part(n, tid + 1, nth); ++i)
      mine += static_cast<vid_t>(row_match[static_cast<std::size_t>(i)] != kNil);
    mem.add(count, mine);
  });
  return count;
}

Matching matching_from_col_view(vid_t num_rows, const std::vector<vid_t>& col_match) {
  Matching m;
  matching_from_col_view(num_rows, col_match, m);
  return m;
}

void matching_from_col_view(vid_t num_rows, const std::vector<vid_t>& col_match,
                            Matching& out) {
  out.row_match.assign(static_cast<std::size_t>(num_rows), kNil);
  out.col_match = col_match;
  const auto num_cols = static_cast<vid_t>(col_match.size());
  for (vid_t j = 0; j < num_cols; ++j) {
    const vid_t i = col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= num_rows)
      throw std::out_of_range(message("matching_from_col_view: col_match[", j, "] = ", i,
                                      " is out of range [0, ", num_rows, ")"));
    // Duplicate claims keep the last column's write (see the col-view test:
    // OneSidedMatch's column writes never produce them, but the reconstruction
    // stays total on inconsistent views rather than throwing).
    out.row_match[static_cast<std::size_t>(i)] = j;
  }
}

std::string describe_matching_violation(const BipartiteGraph& g, const Matching& m) {
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows()))
    return message("row_match size ", m.row_match.size(), " != num_rows ", g.num_rows());
  if (m.col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return message("col_match size ", m.col_match.size(), " != num_cols ", g.num_cols());
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    const vid_t j = m.row_match[static_cast<std::size_t>(i)];
    if (j == kNil) continue;
    if (j < 0 || j >= g.num_cols())
      return message("row ", i, " matched to out-of-range column ", j);
    if (m.col_match[static_cast<std::size_t>(j)] != i)
      return message("row ", i, " matched to column ", j, " but col_match[", j,
                     "] = ", m.col_match[static_cast<std::size_t>(j)]);
    if (!g.has_edge(i, j)) return message("matched pair (", i, ", ", j, ") is not an edge");
  }
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const vid_t i = m.col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= g.num_rows())
      return message("column ", j, " matched to out-of-range row ", i);
    if (m.row_match[static_cast<std::size_t>(i)] != j)
      return message("column ", j, " matched to row ", i, " but row_match[", i,
                     "] = ", m.row_match[static_cast<std::size_t>(i)]);
  }
  return {};
}

bool is_valid_matching(const BipartiteGraph& g, const Matching& m) {
  return describe_matching_violation(g, m).empty();
}

bool is_maximal_matching(const BipartiteGraph& g, const Matching& m) {
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (m.row_matched(i)) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (!m.col_matched(j)) return false;
  }
  return true;
}

} // namespace bmh
