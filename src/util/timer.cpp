#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bmh {

namespace {
void check_window(std::size_t n, std::size_t warmup) {
  if (warmup >= n) throw std::invalid_argument("RunStats: warmup consumes all samples");
}
} // namespace

double RunStats::geomean(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = warmup; i < samples_.size(); ++i) {
    log_sum += std::log(std::max(samples_[i], 1e-12));
    ++n;
  }
  return std::exp(log_sum / static_cast<double>(n));
}

double RunStats::min(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  return *std::min_element(samples_.begin() + static_cast<std::ptrdiff_t>(warmup),
                           samples_.end());
}

double RunStats::max(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  return *std::max_element(samples_.begin() + static_cast<std::ptrdiff_t>(warmup),
                           samples_.end());
}

double RunStats::median(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  std::vector<double> window(samples_.begin() + static_cast<std::ptrdiff_t>(warmup),
                             samples_.end());
  const std::size_t mid = window.size() / 2;
  std::nth_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(mid),
                   window.end());
  if (window.size() % 2 == 1) return window[mid];
  const double upper = window[mid];
  const double lower =
      *std::max_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double RunStats::mean(std::size_t warmup) const {
  check_window(samples_.size(), warmup);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = warmup; i < samples_.size(); ++i) {
    sum += samples_[i];
    ++n;
  }
  return sum / static_cast<double>(n);
}

} // namespace bmh
