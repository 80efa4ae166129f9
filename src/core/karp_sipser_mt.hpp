#pragma once
/// \file karp_sipser_mt.hpp
/// \brief KarpSipserMT (paper Algorithm 4): the specialized multithreaded
/// Karp–Sipser that is *exact* on TwoSidedMatch's choice subgraphs.
///
/// The input graph is given implicitly by the `choice` array over unified
/// vertex ids (rows `[0, m)`, columns `[m, m+n)`): the edge set is
/// {{u, choice[u]}}. Every component of such a graph contains at most one
/// simple cycle (Lemma 1), which makes Karp–Sipser exact on it and allows
/// two crucial simplifications (paper §3.2):
///
///  * Phase 1 tracks only *out-one* vertices (unmatched u whose choice
///    target is unmatched and whom no unmatched vertex chose). Consuming an
///    out-one vertex creates at most one new out-one vertex (Lemma 4). The
///    phase runs as deterministic-reservation rounds (Blelloch, Fineman,
///    Gibbons & Shun, PPoPP 2012): each frontier vertex write-mins its id
///    into its target, the smallest id wins, and the atomic decrement on
///    `deg` that leaves one elects the new out-one vertex into the next
///    round's frontier. The pairs are therefore the same at any thread
///    count and on every run.
///  * Phase 2 is a plain parallel-for: in the remaining graph (singletons,
///    2-cliques and simple cycles) the column-side choice edges form a
///    maximum matching (Lemma 3), so each free column just takes its choice.
///
/// Every pass is one body run through `run_team` (util/threading.hpp): with
/// a one-thread OpenMP budget it runs on the calling thread with plain
/// loads, stores and selects, otherwise in a parallel region with relaxed
/// atomics. Both run the same rounds, so they produce the same pairs.

#include <cstdint>
#include <span>
#include <vector>

#include "core/workspace.hpp"
#include "matching/matching.hpp"
#include "util/types.hpp"

namespace bmh {

struct KarpSipserMTStats {
  vid_t phase1_matches = 0;  ///< pairs matched by out-one chain consumption
  vid_t phase2_matches = 0;  ///< pairs matched in the cycle-resolution phase
};

/// Runs Algorithm 4. `choice[u]` is a unified vertex id (the partner chosen
/// by u) or kNil for isolated vertices; `m`/`n` are the row/column counts.
/// The returned matching is maximum on the choice subgraph, and its pairs do
/// not depend on the number of threads. Throws std::invalid_argument when a
/// choice stays on its own side or leaves the id range, or when a chosen
/// vertex's own choice is kNil (a chosen vertex has an edge, so it is not
/// isolated).
[[nodiscard]] Matching karp_sipser_mt(vid_t m, vid_t n, std::span<const vid_t> choice,
                                      KarpSipserMTStats* stats = nullptr);

/// Workspace-aware variant of Algorithm 4: the match array and the phase-1
/// scratch are leased from `ws` (plain vectors, driven through std::atomic_ref
/// in a shared team, so they can be reused) and the result lands in `out`;
/// warm calls allocate nothing.
void karp_sipser_mt_ws(vid_t m, vid_t n, std::span<const vid_t> choice,
                       KarpSipserMTStats* stats, Workspace& ws, Matching& out);

/// Phase 1 of Algorithm 4 on any functional graph, shared with the
/// undirected one-out Karp–Sipser (whose proof never uses bipartiteness):
/// `match` is resized to `choice.size()` and left holding the phase-1 pairs
/// (partner or kNil). Every entry must be kNil or another vertex's id (the
/// callers check this). Returns false, with `match` unspecified, when a
/// chosen vertex's own choice is kNil. Scratch is leased from `ws` under
/// "ks1." tags.
[[nodiscard]] bool karp_sipser_mt_phase1_ws(std::span<const vid_t> choice,
                                            std::vector<vid_t>& match, Workspace& ws);

/// Builds the unified choice array from per-side local choices (rchoice[i]
/// is a column id or kNil; cchoice[j] is a row id or kNil).
[[nodiscard]] std::vector<vid_t> unify_choices(vid_t m, vid_t n,
                                               std::span<const vid_t> rchoice,
                                               std::span<const vid_t> cchoice);

/// Allocation-free variant: writes into `out` (capacity reused).
void unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                   std::span<const vid_t> cchoice, std::vector<vid_t>& out);

} // namespace bmh
