#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing helpers for the benchmark harnesses.

#include <chrono>
#include <cstddef>
#include <vector>

namespace bmh {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() noexcept { reset(); }

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Aggregates repeated measurements, following the paper's protocol of
/// dropping warm-up runs and reporting the geometric mean of the rest.
class RunStats {
public:
  void add(double seconds) { samples_.push_back(seconds); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  /// Geometric mean of all samples after skipping the first `warmup`.
  [[nodiscard]] double geomean(std::size_t warmup = 0) const;

  /// Arithmetic minimum over all samples after skipping the first `warmup`.
  [[nodiscard]] double min(std::size_t warmup = 0) const;

  /// Maximum over all samples after skipping the first `warmup`.
  [[nodiscard]] double max(std::size_t warmup = 0) const;

  /// Median after skipping the first `warmup` (mean of the middle two when
  /// the count is even).
  [[nodiscard]] double median(std::size_t warmup = 0) const;

  /// Arithmetic mean after skipping the first `warmup`.
  [[nodiscard]] double mean(std::size_t warmup = 0) const;

private:
  std::vector<double> samples_;
};

} // namespace bmh
