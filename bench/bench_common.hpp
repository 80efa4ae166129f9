#pragma once
/// \file bench_common.hpp
/// \brief Shared plumbing for the table/figure reproduction harnesses.

#include <iostream>
#include <string>
#include <vector>

#include "bmh.hpp"

namespace bmh::bench {

/// Number of repetitions per data point (paper: 10 for quality minima,
/// 20-with-5-warmups for timings). Override with BMH_REPEATS.
inline int repeats(int fallback) {
  return static_cast<int>(env_int("BMH_REPEATS", fallback));
}

/// Thread counts {1, 2, 4, ..., cap}; the paper sweeps 1..16 on a 16-core
/// box, we sweep powers of two up to BMH_MAX_THREADS (default: hardware).
inline std::vector<int> thread_sweep() {
  const int cap = static_cast<int>(env_int("BMH_MAX_THREADS", num_procs()));
  std::vector<int> sweep;
  for (int t = 1; t <= cap; t *= 2) sweep.push_back(t);
  if (sweep.back() != cap && cap > 1) sweep.push_back(cap);
  return sweep;
}

/// The suite scale for Table 3 / Figs 3-5. Suite base sizes are ~1/10 of
/// the paper's instances; BMH_SCALE further multiplies them.
inline double suite_scale() { return env_double("BMH_SCALE", 1.0); }

/// Wall-clock seconds of `runs` executions of `fn(r)`, recorded after
/// `warmup` unrecorded executions (r counts from 0 across both).
template <typename Fn>
RunStats time_runs(Fn&& fn, int runs, int warmup) {
  RunStats stats;
  for (int r = 0; r < warmup + runs; ++r) {
    Timer t;
    fn(r);
    if (r >= warmup) stats.add(t.seconds());
  }
  return stats;
}

/// "median [min..max]" of a timing cell: a single run on a shared host
/// varies by more than a typical kernel change, so the spread is printed.
inline std::string spread(const RunStats& s) {
  return format_double(s.median(), 4) + " [" + format_double(s.min(), 4) + ".." +
         format_double(s.max(), 4) + "]";
}

/// "median [min..max]" of the speedup t1 / t, where t1 is the one-thread
/// median and t ranges over `s`'s runs (the slowest run gives the minimum).
inline std::string speedup_spread(double t1, const RunStats& s) {
  return format_double(t1 / s.median(), 2) + " [" + format_double(t1 / s.max(), 2) + ".." +
         format_double(t1 / s.min(), 2) + "]";
}

/// Banner shared by all benches.
inline void banner(const std::string& what) {
  std::cout << "==============================================================\n"
            << what << "\n"
            << "machine: " << num_procs() << " cores; " << thread_sweep_description()
            << "; BMH_SCALE=" << bench_scale() << "\n"
            << "==============================================================\n\n";
}

} // namespace bmh::bench
