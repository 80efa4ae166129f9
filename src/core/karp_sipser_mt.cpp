#include "core/karp_sipser_mt.hpp"

#include <algorithm>
#include <cstdint>
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

// Read as unsigned, a match slot orders a partner (0 .. total - 1) below
// every claim and kNil above them all, so one write-min of a claim reserves
// v exactly when v is unmatched and holds no smaller claim; a claim of kNil
// changes nothing.
std::uint32_t& as_unsigned(vid_t& slot) noexcept {
  return reinterpret_cast<std::uint32_t&>(slot);
}

// A chain's vertices are visited in different rounds, long after their
// lines were last touched, so each round loop fetches the lines of the
// items kAhead, 2 kAhead and 3 kAhead positions on, one dependent level
// (frontier -> choice -> match/deg) per distance. Below kFetchFrom
// vertices the arrays stay in cache, and the fetches only cost time.
constexpr vid_t kAhead = 8;
constexpr vid_t kFetchFrom = vid_t{1} << 16;

/// Ends a round: each member has left `count` next-frontier vertices at
/// next[lo, lo + count); they are packed, in member order, into
/// front[0, size), and size is returned. Every member calls it.
template <typename Mem>
vid_t pack_frontier(Mem mem, vid_t* front, const vid_t* next, vid_t* seg, vid_t lo,
                    vid_t count, int tid, int nth) {
  seg[tid] = count;
  mem.barrier();
  vid_t offset = 0;
  vid_t size = 0;
  for (int t = 0; t < nth; ++t) {
    if (t == tid) offset = size;
    size += seg[t];
  }
  std::copy(next + lo, next + lo + count, front + offset);
  mem.barrier();
  return size;
}

} // namespace

bool karp_sipser_mt_phase1_ws(std::span<const vid_t> choice, std::vector<vid_t>& match,
                              Workspace& ws) {
  const auto total = static_cast<vid_t>(choice.size());
  const auto sz = choice.size();
  match.resize(sz);
  const vid_t* const ch = choice.data();
  vid_t* const mt = match.data();
  vid_t* const deg = ws.vec<vid_t>("ks1.deg", sz).data();
  vid_t* const front = ws.vec<vid_t>("ks1.front", sz).data();
  vid_t* const next = ws.vec<vid_t>("ks1.next", sz).data();
  vid_t* const seg = ws.vec<vid_t>("ks1.seg", static_cast<std::size_t>(max_threads())).data();
  bool well_formed = true;

  run_team([&](auto mem, int tid, int nth) {
    const vid_t mine = part(total, tid, nth);
    const vid_t mine_end = part(total, tid + 1, nth);
    for (vid_t u = mine; u < mine_end; ++u) {
      mt[u] = kNil;
      deg[u] = ch[u] == kNil ? 0 : 1;
    }
    mem.barrier();

    // deg[v] = 1 (v's own choice edge) + number of vertices that chose v,
    // counting a reciprocal pair {u ↔ v} as the single edge it is. The read
    // of v's own choice also checks that a chosen vertex has one.
    bool ok = true;
    for (vid_t u = mine; u < mine_end; ++u) {
      const vid_t v = ch[u];
      if (v == kNil) continue;
      const vid_t back = ch[v];
      ok = ok && back != kNil;
      mem.add(deg[v], static_cast<vid_t>(back != u));
    }
    if (!ok) mem.store(well_formed, false);
    mem.barrier();
    if (!mem.load(well_formed)) return;

    // Deterministic-reservation rounds over the out-one frontier. Every
    // frontier vertex write-mins a claim into its target; the smallest
    // claimant wins and both are matched; a target's own choice that
    // thereby drops to degree one joins the next frontier. Which vertex
    // wins depends only on the ids, never on thread timing, so the pairs
    // are the same at any thread count. Matching an out-one vertex to its
    // only choice is a safe Karp–Sipser reduction whoever wins, so
    // exactness is kept. Both passes are written without data-dependent
    // branches; a team of one runs them as selects.
    const auto prefetch = [](const vid_t* a, vid_t i) { __builtin_prefetch(a + i); };

    // Round 0's frontier: the vertices nobody chose, i.e. those whose only
    // edge is their own choice and whose choice did not choose them back
    // (an isolated u has degree 0 and reads its own entry instead). Each
    // member's finds fit in its own share of `next`, so the shares are the
    // segments.
    vid_t lo = mine;
    vid_t count = 0;
    for (vid_t u = mine; u < mine_end; ++u) {
      const vid_t v = ch[u];
      next[lo + count] = u;
      count += static_cast<vid_t>((deg[u] == 1) & (ch[v == kNil ? u : v] != u));
    }

    for (vid_t size = pack_frontier(mem, front, next, seg, lo, count, tid, nth); size > 0;
         size = pack_frontier(mem, front, next, seg, lo, count, tid, nth)) {
      lo = part(size, tid, nth);
      const vid_t hi = part(size, tid + 1, nth);
      const vid_t fetch_end = total >= kFetchFrom ? hi : lo;

      // Reserve. match is read-only apart from the claims here; a frontier
      // vertex that a previous round matched (as a target) claims kNil.
      for (vid_t k = lo; k < hi; ++k) {
        if (k + 2 * kAhead < fetch_end) {
          const vid_t x = front[k + 2 * kAhead];
          prefetch(ch, x);
          prefetch(mt, x);
        }
        if (k + kAhead < fetch_end) prefetch(mt, ch[front[k + kAhead]]);
        const vid_t u = front[k];
        const vid_t claim = mem.load(mt[u]) < 0 ? kClaim + u : kNil;
        mem.write_min(as_unsigned(mt[ch[u]]), static_cast<std::uint32_t>(claim));
      }
      mem.barrier();

      // Commit. A reciprocal pair {u ↔ v} on the frontier claims from both
      // ends, wins both, and stores the same pair twice; a side that finds
      // its claim already replaced by the other side's commit stores
      // nothing.
      count = 0;
      for (vid_t k = lo; k < hi; ++k) {
        if (k + 3 * kAhead < fetch_end) prefetch(ch, front[k + 3 * kAhead]);
        if (k + 2 * kAhead < fetch_end) {
          const vid_t x = front[k + 2 * kAhead];
          const vid_t y = ch[x];
          prefetch(mt, x);
          prefetch(mt, y);
          prefetch(ch, y);
        }
        if (k + kAhead < fetch_end) prefetch(deg, ch[ch[front[k + kAhead]]]);
        const vid_t u = front[k];
        const vid_t v = ch[u];
        const bool won = mem.load(mt[v]) == kClaim + u;
        mem.store_if(mt[u], won, v);
        mem.store_if(mt[v], won, u);
        // v is gone, so its own choice w loses one neighbour; the decrement
        // that leaves exactly one elects w into the next frontier (Lemma 4:
        // at most one new out-one vertex per match). w == u is a reciprocal
        // pair, already matched. Each win yields at most one entry, so this
        // member's fit in its share of `next`.
        const vid_t w = ch[v];
        const bool drop = won && w != u;
        const vid_t left = mem.decrement_if(deg[w], drop);
        next[lo + count] = w;
        count += static_cast<vid_t>(drop && left == 1);
      }
    }
  });
  return well_formed;
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
  const vid_t* const ch = choice.data();
  // The graph must be bipartite: rows choose columns and vice versa. A
  // same-side choice would silently corrupt the phase invariants, so it is
  // rejected up front (O(n) scan, negligible next to the phases).
  bool well_formed = true;
  run_team([&](auto mem, int tid, int nth) {
    const auto within = [](vid_t v, vid_t lo, vid_t hi) {
      return v == kNil || (v >= lo && v < hi);
    };
    bool ok = true;
    for (vid_t u = part(m, tid, nth); u < part(m, tid + 1, nth); ++u)
      ok &= within(ch[u], m, total);
    for (vid_t u = m + part(n, tid, nth); u < m + part(n, tid + 1, nth); ++u)
      ok &= within(ch[u], 0, m);
    if (!ok) mem.store(well_formed, false);
  });
  if (!well_formed)
    throw std::invalid_argument("karp_sipser_mt: choice crosses to the same side");

  std::vector<vid_t>& match = ws.vec<vid_t>("ksmt.match", static_cast<std::size_t>(total));
  if (!karp_sipser_mt_phase1_ws(choice, match, ws))
    throw std::invalid_argument("karp_sipser_mt: a chosen vertex has no choice");

  // Phase 2, then the output. Every pair is stored at both ends, so the
  // output copies each side's view and needs no reset; phase 2 matches one
  // new row per pair it takes, which splits the statistics.
  out.row_match.resize(static_cast<std::size_t>(m));
  out.col_match.resize(static_cast<std::size_t>(n));
  vid_t* const mt = match.data();
  vid_t* const row_match = out.row_match.data();
  vid_t* const col_match = out.col_match.data();
  vid_t matched = 0;
  vid_t phase2 = 0;
  run_team([&](auto mem, int tid, int nth) {
    const vid_t cols = m + part(n, tid, nth);
    const vid_t cols_end = m + part(n, tid + 1, nth);
    // ---- Phase 2: remaining components are singletons, 2-cliques, or
    // simple cycles; each free column takes its own choice (paper lines
    // 24–28). ----
    vid_t taken = 0;
    for (vid_t u = cols; u < cols_end; ++u) {
      const vid_t v = ch[u];
      if (v == kNil) continue;
      const bool take = mem.load(mt[u]) == kNil && mem.load(mt[v]) == kNil;
      mem.store_if(mt[u], take, v);
      mem.store_if(mt[v], take, u);
      taken += static_cast<vid_t>(take);
    }
    mem.barrier();

    vid_t pairs = 0;
    for (vid_t i = part(m, tid, nth); i < part(m, tid + 1, nth); ++i) {
      const vid_t p = mt[i];
      row_match[i] = p == kNil ? kNil : p - m;
      pairs += static_cast<vid_t>(p != kNil);
    }
    for (vid_t u = cols; u < cols_end; ++u) col_match[u - m] = mt[u];
    mem.add(matched, pairs);
    mem.add(phase2, taken);
  });

  if (stats != nullptr) {
    stats->phase1_matches = matched - phase2;
    stats->phase2_matches = phase2;
  }
}

} // namespace bmh
