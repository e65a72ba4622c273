#pragma once
// Order statistics for the benchmark's reports: medians, quartiles and the
// tail percentile rule (the highest percentile that still has at least ten
// samples beyond it, so a tail is never read off one or two outliers).

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Quartiles with the same "exclusive" interpolation as Python's
/// statistics.quantiles(data, n=4), so the benchmark's in-run spreads and
/// the ten-seed spread check read quartiles the same way. Needs >= 2
/// samples; a single sample yields q1 = q2 = q3 = that sample.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// The tail of a latency sample: the highest percentile on the ladder
/// 99.99, 99.9, 99, 98, ..., 51, 50 whose nearest-rank sample has at least
/// `kMinBeyond` samples strictly above its rank. `qualified` is false when
/// even the median has fewer (then the median is reported as the tail).
struct Tail {
  static constexpr std::size_t kMinBeyond = 10;
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool qualified = false;
  std::size_t windows = 1;
};
Tail tail(std::vector<double> v);

/// The same rule per window of `window` consecutive samples, reporting the
/// median of the windows' tails (percentile, samples and beyond describe
/// one window). Windows are as long as possible in whole multiples of
/// `window`, the last absorbing the remainder, so a burst of host load that
/// spoils a few windows does not move the result. With fewer than two
/// windows' worth of samples this is tail(v).
Tail windowed_tail(const std::vector<double>& v, std::size_t window);

}  // namespace perfbench
