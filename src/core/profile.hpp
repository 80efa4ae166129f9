#pragma once
/// \file profile.hpp
/// \brief Instrumented heuristic runs with per-phase breakdowns.
///
/// The paper's Table 3 decomposes TwoSidedMatch's cost into ScaleSK +
/// sampling + KarpSipserMT; this module packages that decomposition as a
/// library feature so downstream users (and the bench harnesses) can see
/// where the time goes without re-implementing the pipeline.

#include <cstdint>

#include "core/karp_sipser_mt.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

struct OneSidedProfile {
  double scaling_seconds = 0.0;
  double matching_seconds = 0.0;  ///< sampling + cmatch priority writes
  int scaling_iterations = 0;
  double scaling_error = 0.0;
  Matching matching;

  [[nodiscard]] double total_seconds() const noexcept {
    return scaling_seconds + matching_seconds;
  }
};

struct TwoSidedProfile {
  double scaling_seconds = 0.0;
  double sampling_seconds = 0.0;  ///< both sides' choice draws
  double ksmt_seconds = 0.0;      ///< KarpSipserMT phases 1 + 2
  int scaling_iterations = 0;
  double scaling_error = 0.0;
  KarpSipserMTStats ksmt;
  Matching matching;

  [[nodiscard]] double total_seconds() const noexcept {
    return scaling_seconds + sampling_seconds + ksmt_seconds;
  }
};

/// Runs OneSidedMatch with phase timing.
[[nodiscard]] OneSidedProfile profile_one_sided(const BipartiteGraph& g,
                                                int scaling_iterations,
                                                std::uint64_t seed);

/// Runs TwoSidedMatch with phase timing and KarpSipserMT phase counts.
[[nodiscard]] TwoSidedProfile profile_two_sided(const BipartiteGraph& g,
                                                int scaling_iterations,
                                                std::uint64_t seed);

} // namespace bmh
