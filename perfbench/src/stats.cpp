#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"), n = 4, in exact integer math.
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

namespace {

/// 1-based nearest rank of percentile p over n sorted samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  std::vector<double> ladder{99.99, 99.9};
  for (int p = 99; p >= 50; --p) ladder.push_back(p);
  for (const double p : ladder) {
    const std::size_t rank = nearest_rank(v.size(), p);
    const std::size_t beyond = v.size() - rank;
    if (beyond >= Tail::kMinBeyond || p == 50.0) {
      t.percentile = p;
      t.value = v[rank - 1];
      t.beyond = beyond;
      t.qualified = beyond >= Tail::kMinBeyond;
      return t;
    }
  }
  return t;
}

Tail windowed_tail(const std::vector<double>& v, std::size_t window) {
  const std::size_t windows = window == 0 ? 0 : v.size() / window;
  if (windows < 2) return tail(v);
  std::vector<double> values;
  Tail first;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? v.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    const Tail t = tail(std::vector<double>(begin, end));
    if (w == 0) first = t;
    values.push_back(t.value);
  }
  first.value = median(values);
  first.windows = windows;
  return first;
}

}  // namespace perfbench
