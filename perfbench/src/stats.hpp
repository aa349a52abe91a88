#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers, not a
/// distribution.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank position (1-based) of percentile `p` (0 < p < 100) in `n`
/// sorted samples; the samples past it are the ones "beyond" it.
[[nodiscard]] inline std::size_t percentileRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::max<std::size_t>(1, static_cast<std::size_t>(rank));
}

/// True when `n` samples leave at least kMinSamplesBeyond beyond the
/// p-th percentile (p99 needs 1000 samples, p50 needs 20).
[[nodiscard]] inline bool supportsPercentile(std::size_t n, double p) {
  if (n == 0) return false;
  const std::size_t rank = percentileRank(n, p);
  return rank <= n && n - rank >= kMinSamplesBeyond;
}

/// Percentile `p` of a non-empty sample, interpolated linearly between the
/// two closest ranks, with no check of how many samples lie beyond it.
[[nodiscard]] inline double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double h = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = h - static_cast<double>(lo);
  // Equal neighbours (+infinity for failed requests included) need no
  // interpolation, and inf - inf would be NaN.
  if (frac == 0.0 || samples[hi] == samples[lo]) return samples[lo];
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

/// quantile(samples, p), or nullopt when the sample does not support p
/// (see supportsPercentile).
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<double> samples, double p) {
  if (!supportsPercentile(samples.size(), p)) return std::nullopt;
  return quantile(std::move(samples), p);
}

/// Median (the mean of the middle two for even sizes), with no sample-size
/// check; for summaries of a few values, such as set-up launches.
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 50);
}

}  // namespace perfbench
