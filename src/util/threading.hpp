#pragma once
/// \file threading.hpp
/// \brief Thin wrapper around OpenMP runtime controls, and the team helper
/// that compiles one kernel body for a team of one and for a shared team.
///
/// All parallel regions in the library use the ambient OpenMP thread count;
/// these helpers let tests and benches sweep thread counts deterministically
/// without touching environment variables mid-process.

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "util/types.hpp"

namespace bmh {

/// Sets the number of OpenMP threads used by subsequent parallel regions.
void set_num_threads(int n);

/// Maximum number of threads a parallel region would use right now.
[[nodiscard]] int max_threads() noexcept;

/// Number of physical processors visible to the OpenMP runtime.
[[nodiscard]] int num_procs() noexcept;

/// RAII guard that sets the thread count and restores the previous value.
class ThreadCountGuard {
public:
  explicit ThreadCountGuard(int n);
  ~ThreadCountGuard();
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

private:
  int previous_;
};

/// Where member `tid`'s share starts when `size` items are split `nth`
/// ways; it ends where member tid + 1's starts.
[[nodiscard]] constexpr vid_t part(vid_t size, int tid, int nth) noexcept {
  return static_cast<vid_t>(static_cast<std::int64_t>(size) * tid / nth);
}

/// The operations a team body performs on data that other members touch
/// too. In a shared team (kShared) they are relaxed std::atomic_ref
/// operations and `barrier` is an OpenMP barrier; a team of one has nobody
/// to race with, so they are plain loads, stores and arithmetic (the `_if`
/// forms become selects), and `barrier` is nothing. Derives from
/// std::bool_constant<kShared>, so a body can also test which it got.
template <bool kShared>
struct TeamMemory : std::bool_constant<kShared> {
  static void barrier() noexcept {
    if constexpr (kShared) {
#pragma omp barrier
    }
  }

  template <typename T>
  static T load(T& x) noexcept {
    if constexpr (kShared) return std::atomic_ref<T>(x).load(std::memory_order_relaxed);
    else return x;
  }

  template <typename T>
  static void store(T& x, T v) noexcept {
    if constexpr (kShared) std::atomic_ref<T>(x).store(v, std::memory_order_relaxed);
    else x = v;
  }

  /// Stores `v` into `x` when `c` holds; leaves `x` as it is otherwise.
  template <typename T>
  static void store_if(T& x, bool c, T v) noexcept {
    if constexpr (kShared) {
      if (c) std::atomic_ref<T>(x).store(v, std::memory_order_relaxed);
    } else {
      x = c ? v : x;
    }
  }

  template <typename T>
  static void add(T& x, T d) noexcept {
    if constexpr (kShared) std::atomic_ref<T>(x).fetch_add(d, std::memory_order_relaxed);
    else x += d;
  }

  /// Subtracts one from `x` when `c` holds and returns the new value; when
  /// `c` does not hold, `x` is left as it is and the result is unspecified.
  template <typename T>
  static T decrement_if(T& x, bool c) noexcept {
    if constexpr (kShared) {
      return c ? std::atomic_ref<T>(x).fetch_sub(1, std::memory_order_relaxed) - 1 : T{};
    } else {
      x -= static_cast<T>(c);
      return x;
    }
  }

  /// x = min(x, v): the smallest value written wins, whatever the order.
  template <typename T>
  static void write_min(T& x, T v) noexcept {
    if constexpr (kShared) {
      std::atomic_ref<T> slot(x);
      T seen = slot.load(std::memory_order_relaxed);
      while (v < seen && !slot.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
      }
    } else {
      x = std::min(x, v);
    }
  }

  /// x = max(x, v): the largest value written wins, whatever the order.
  template <typename T>
  static void write_max(T& x, T v) noexcept {
    if constexpr (kShared) {
      std::atomic_ref<T> slot(x);
      T seen = slot.load(std::memory_order_relaxed);
      while (seen < v && !slot.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
      }
    } else {
      x = std::max(x, v);
    }
  }
};

/// Runs `body(mem, tid, nth)` once per member of a team, where `mem` is a
/// TeamMemory. When the OpenMP budget is one thread it runs on the calling
/// thread as body(TeamMemory<false>{}, 0, 1) and opens no parallel region;
/// otherwise it runs inside `#pragma omp parallel` as
/// body(TeamMemory<true>{}, omp_get_thread_num(), omp_get_num_threads()).
/// The body is compiled once per case, so a kernel written once runs with
/// atomics only where another thread can see its data. It must not throw,
/// and it splits its loops itself (e.g. with `part`), since a worksharing
/// construct would call into the OpenMP runtime for the team of one too.
template <typename Body>
void run_team(Body&& body) {
  if (max_threads() == 1) {
    body(TeamMemory<false>{}, 0, 1);
    return;
  }
#pragma omp parallel
  body(TeamMemory<true>{}, omp_get_thread_num(), omp_get_num_threads());
}

} // namespace bmh
