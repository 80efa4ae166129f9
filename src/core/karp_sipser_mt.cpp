#include "core/karp_sipser_mt.hpp"

#include <omp.h>

#include <atomic>
#include <limits>
#include <stdexcept>

#include "core/workspace.hpp"
#include "util/threading.hpp"

namespace bmh {

std::vector<vid_t> unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                                 std::span<const vid_t> cchoice) {
  std::vector<vid_t> choice;
  unify_choices(m, n, rchoice, cchoice, choice);
  return choice;
}

void unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                   std::span<const vid_t> cchoice, std::vector<vid_t>& out) {
  if (rchoice.size() != static_cast<std::size_t>(m) ||
      cchoice.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("unify_choices: size mismatch");
  out.resize(static_cast<std::size_t>(m) + static_cast<std::size_t>(n));
  for (vid_t i = 0; i < m; ++i) {
    const vid_t j = rchoice[static_cast<std::size_t>(i)];
    if (j != kNil && (j < 0 || j >= n))
      throw std::out_of_range("unify_choices: row choice out of range");
    out[static_cast<std::size_t>(i)] = (j == kNil) ? kNil : m + j;
  }
  for (vid_t j = 0; j < n; ++j) {
    const vid_t i = cchoice[static_cast<std::size_t>(j)];
    if (i != kNil && (i < 0 || i >= m))
      throw std::out_of_range("unify_choices: column choice out of range");
    out[static_cast<std::size_t>(m) + static_cast<std::size_t>(j)] = i;
  }
}

namespace {

// A reservation of v by frontier vertex u is parked in match[v] as
// kClaim + u: below kNil, so `match[v] < 0` still reads "v is unmatched",
// and ordered like u, so a write-min elects the smallest claimant.
constexpr vid_t kClaim = std::numeric_limits<vid_t>::min();

// A chain's vertices are visited in different rounds, long after their
// lines were last touched, so each round loop fetches the lines of the
// items kAhead, 2 kAhead and 3 kAhead positions on, one dependent level
// (frontier -> choice -> match/deg) per distance.
constexpr vid_t kAhead = 8;

/// Where thread `tid`'s share starts when `size` items are split `nth`
/// ways; it ends where thread tid + 1's starts.
constexpr vid_t part(vid_t size, int tid, int nth) noexcept {
  return static_cast<vid_t>(static_cast<std::int64_t>(size) * tid / nth);
}

/// Ends a round: each thread has left `count` next-frontier vertices at
/// next[lo, lo + count); they are packed, in thread order, into
/// front[0, size), and size is returned. Every team member calls it (it
/// holds two barriers).
vid_t pack_frontier(std::vector<vid_t>& front, const std::vector<vid_t>& next,
                    std::vector<vid_t>& seg, vid_t lo, vid_t count, int tid, int nth) {
  seg[static_cast<std::size_t>(tid)] = count;
#pragma omp barrier
  vid_t offset = 0;
  vid_t size = 0;
  for (int t = 0; t < nth; ++t) {
    if (t == tid) offset = size;
    size += seg[static_cast<std::size_t>(t)];
  }
  for (vid_t k = 0; k < count; ++k)
    front[static_cast<std::size_t>(offset + k)] = next[static_cast<std::size_t>(lo + k)];
#pragma omp barrier
  return size;
}

} // namespace

bool karp_sipser_mt_phase1_ws(std::span<const vid_t> choice, std::vector<vid_t>& match,
                              Workspace& ws) {
  const auto total = static_cast<vid_t>(choice.size());
  const auto sz = choice.size();
  match.resize(sz);
  // deg is decremented concurrently; mark only ever transitions 1 -> 0.
  // Plain vectors driven through std::atomic_ref so the storage can live in
  // the workspace (std::vector<std::atomic<T>> cannot be resized).
  std::vector<vid_t>& deg = ws.vec<vid_t>("ks1.deg", sz);
  std::vector<char>& mark = ws.vec<char>("ks1.mark", sz);
  std::vector<vid_t>& front = ws.vec<vid_t>("ks1.front", sz);
  std::vector<vid_t>& next = ws.vec<vid_t>("ks1.next", sz);
  std::vector<vid_t>& seg =
      ws.vec<vid_t>("ks1.seg", static_cast<std::size_t>(max_threads()));

#pragma omp parallel for schedule(static)
  for (vid_t u = 0; u < total; ++u) {
    match[static_cast<std::size_t>(u)] = kNil;
    const bool isolated = choice[static_cast<std::size_t>(u)] == kNil;
    std::atomic_ref<char>(mark[static_cast<std::size_t>(u)])
        .store(isolated ? 0 : 1, std::memory_order_relaxed);
    std::atomic_ref<vid_t>(deg[static_cast<std::size_t>(u)])
        .store(isolated ? 0 : 1, std::memory_order_relaxed);
  }

  // deg[v] = 1 (v's own choice edge) + number of vertices that chose v,
  // counting a reciprocal pair {u ↔ v} as the single edge it is. The read
  // of v's own choice also checks that a chosen vertex has one.
  bool well_formed = true;
#pragma omp parallel for schedule(static) reduction(&& : well_formed)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    std::atomic_ref<char>(mark[static_cast<std::size_t>(v)])
        .store(0, std::memory_order_relaxed);
    const vid_t back = choice[static_cast<std::size_t>(v)];
    well_formed = well_formed && back != kNil;
    if (back != u)
      std::atomic_ref<vid_t>(deg[static_cast<std::size_t>(v)])
          .fetch_add(1, std::memory_order_relaxed);
  }
  if (!well_formed) return false;

  // Deterministic-reservation rounds over the out-one frontier. Every
  // frontier vertex write-mins a claim into its target; the smallest
  // claimant wins and both are matched; a target's own choice that thereby
  // drops to degree one joins the next frontier. Which vertex wins depends
  // only on the ids, never on thread timing, so the pairs are the same at
  // any thread count. Matching an out-one vertex to its only choice is a
  // safe Karp–Sipser reduction whoever wins, so exactness is kept.
#pragma omp parallel
  {
    const int nth = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    // A team of one has nobody to race with and skips the locked
    // instructions (same result: it is the sequential order).
    const bool alone = nth == 1;
    const auto at = [](const auto& a, vid_t i) { return a[static_cast<std::size_t>(i)]; };
    const auto prefetch = [](const auto& a, vid_t i) {
      __builtin_prefetch(a.data() + i);
    };

    // Round 0's frontier: the vertices nobody chose. Each thread's finds
    // fit in its own share of `next`, so the shares are the segments.
    vid_t lo = part(total, tid, nth);
    vid_t count = 0;
    for (vid_t u = lo; u < part(total, tid + 1, nth); ++u)
      if (mark[static_cast<std::size_t>(u)] == 1)
        next[static_cast<std::size_t>(lo + count++)] = u;

    for (vid_t size = pack_frontier(front, next, seg, lo, count, tid, nth); size > 0;
         size = pack_frontier(front, next, seg, lo, count, tid, nth)) {
      lo = part(size, tid, nth);
      const vid_t hi = part(size, tid + 1, nth);

      // Reserve. match is read-only apart from the claims here; a frontier
      // vertex that a previous round matched (as a target) sits out.
      for (vid_t k = lo; k < hi; ++k) {
        if (k + 2 * kAhead < hi) {
          const vid_t x = at(front, k + 2 * kAhead);
          prefetch(choice, x);
          prefetch(match, x);
        }
        if (k + kAhead < hi) prefetch(match, at(choice, at(front, k + kAhead)));
        const vid_t u = front[static_cast<std::size_t>(k)];
        if (std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
                .load(std::memory_order_relaxed) >= 0)
          continue;
        const vid_t claim = kClaim + u;
        std::atomic_ref<vid_t> slot(match[static_cast<std::size_t>(
            choice[static_cast<std::size_t>(u)])]);
        vid_t seen = slot.load(std::memory_order_relaxed);
        if (alone) {
          if (seen < 0 && claim < seen) slot.store(claim, std::memory_order_relaxed);
        } else {
          while (seen < 0 && claim < seen &&
                 !slot.compare_exchange_weak(seen, claim, std::memory_order_relaxed)) {
          }
        }
      }
#pragma omp barrier

      // Commit. A reciprocal pair {u ↔ v} on the frontier claims from both
      // ends, wins both, and stores the same pair twice; a side that finds
      // its claim already replaced by the other side's commit skips.
      count = 0;
      for (vid_t k = lo; k < hi; ++k) {
        if (k + 3 * kAhead < hi) prefetch(choice, at(front, k + 3 * kAhead));
        if (k + 2 * kAhead < hi) {
          const vid_t x = at(front, k + 2 * kAhead);
          const vid_t y = at(choice, x);
          prefetch(match, x);
          prefetch(match, y);
          prefetch(choice, y);
        }
        if (k + kAhead < hi) prefetch(deg, at(choice, at(choice, at(front, k + kAhead))));
        const vid_t u = front[static_cast<std::size_t>(k)];
        const vid_t v = choice[static_cast<std::size_t>(u)];
        if (std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
                .load(std::memory_order_relaxed) != kClaim + u)
          continue;
        std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
            .store(v, std::memory_order_relaxed);
        std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
            .store(u, std::memory_order_relaxed);
        // v is gone, so its own choice w loses one neighbour; the decrement
        // that leaves exactly one elects w into the next frontier (Lemma 4:
        // at most one new out-one vertex per match). w == u is a
        // reciprocal pair, already matched. Each win yields at most one
        // entry, so this thread's fit in its share of `next`.
        const vid_t w = choice[static_cast<std::size_t>(v)];
        if (w == u) continue;
        vid_t& dw = deg[static_cast<std::size_t>(w)];
        const vid_t left =
            alone ? --dw
                  : std::atomic_ref<vid_t>(dw).fetch_sub(1, std::memory_order_relaxed) - 1;
        if (left == 1) next[static_cast<std::size_t>(lo + count++)] = w;
      }
    }
  }
  return true;
}

Matching karp_sipser_mt(vid_t m, vid_t n, std::span<const vid_t> choice,
                        KarpSipserMTStats* stats) {
  Matching result;
  karp_sipser_mt_ws(m, n, choice, stats, Workspace::for_this_thread(), result);
  return result;
}

void karp_sipser_mt_ws(vid_t m, vid_t n, std::span<const vid_t> choice,
                       KarpSipserMTStats* stats, Workspace& ws, Matching& out) {
  const vid_t total = m + n;
  if (m < 0 || n < 0)
    throw std::invalid_argument("karp_sipser_mt: negative dimension");
  if (choice.size() != static_cast<std::size_t>(total))
    throw std::invalid_argument("karp_sipser_mt: choice size mismatch");
  // The graph must be bipartite: rows choose columns and vice versa. A
  // same-side choice would silently corrupt the phase invariants, so it is
  // rejected up front (O(n) scan, negligible next to the phases).
  bool well_formed = true;
#pragma omp parallel for schedule(static) reduction(&& : well_formed)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    const bool u_is_row = u < m;
    const bool v_is_col = v >= m && v < total;
    well_formed = well_formed && (u_is_row ? v_is_col : (v >= 0 && v < m));
  }
  if (!well_formed)
    throw std::invalid_argument("karp_sipser_mt: choice crosses to the same side");

  std::vector<vid_t>& match = ws.vec<vid_t>("ksmt.match", static_cast<std::size_t>(total));
  if (!karp_sipser_mt_phase1_ws(choice, match, ws))
    throw std::invalid_argument("karp_sipser_mt: a chosen vertex has no choice");

  // Snapshot the phase-1 cardinality (the parallel region above ended with
  // an implicit barrier, so the match array is settled).
  vid_t phase1 = 0;
  if (stats != nullptr) {
#pragma omp parallel for schedule(static) reduction(+ : phase1)
    for (vid_t i = 0; i < m; ++i)
      if (match[static_cast<std::size_t>(i)] != kNil) ++phase1;
  }

  // ---- Phase 2: remaining components are singletons, 2-cliques, or simple
  // cycles; each free column takes its own choice (paper lines 24–28). ----
#pragma omp parallel for schedule(static)
  for (vid_t u = m; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    if (std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
                .load(std::memory_order_relaxed) == kNil &&
        std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
                .load(std::memory_order_relaxed) == kNil) {
      std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
          .store(v, std::memory_order_relaxed);
      std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
          .store(u, std::memory_order_relaxed);
    }
  }

  if (stats != nullptr) {
    vid_t final_count = 0;
#pragma omp parallel for schedule(static) reduction(+ : final_count)
    for (vid_t i = 0; i < m; ++i)
      if (match[static_cast<std::size_t>(i)] != kNil) ++final_count;
    stats->phase1_matches = phase1;
    stats->phase2_matches = final_count - phase1;
  }

  out.reset(m, n);
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < m; ++i) {
    const vid_t p = match[static_cast<std::size_t>(i)];
    if (p != kNil) {
      out.row_match[static_cast<std::size_t>(i)] = p - m;
      out.col_match[static_cast<std::size_t>(p - m)] = i;
    }
  }
}

} // namespace bmh
