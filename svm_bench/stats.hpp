// Statistics helpers shared by svm_bench and bench_compare.  Header-only
// and free of library dependencies so bench_compare links nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace svmbench {

/// Latency of a request that failed or was refused: it misses every limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// A reported percentile keeps at least this many samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method), so the spread bench_compare reports is
/// the one the benchmark's acceptance rule is written against.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  /// Distance between the quartiles as a share of the median.
  [[nodiscard]] double spread() const noexcept {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

[[nodiscard]] inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  if (ld == 0) return {};
  if (ld == 1) return {v[0], v[0], v[0]};
  const long long m = ld + 1;
  double out[3] = {0.0, 0.0, 0.0};
  for (long long i = 1; i < 4; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    const auto lo = v[static_cast<std::size_t>(j - 1)];
    const auto hi = v[static_cast<std::size_t>(j)];
    // delta == 0 reads lo alone, so an infinite neighbour cannot make NaN.
    out[i - 1] = delta == 0 ? lo
                            : (lo * static_cast<double>(4 - delta) +
                               hi * static_cast<double>(delta)) / 4.0;
  }
  return {out[0], out[1], out[2]};
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quartiles(std::move(v)).median;
}

/// 1-based nearest rank of the q-quantile among n sorted samples.
[[nodiscard]] inline std::size_t nearest_rank(double q, std::size_t n) {
  const double size = static_cast<double>(n);
  return static_cast<std::size_t>(std::clamp(std::ceil(q * size - 1e-9), 1.0, size));
}

/// Latency on the serve workloads is the fast end of many short samples:
/// the 10th percentile of 50 ms blocks' p50s.  On a shared host
/// interference only ever slows a sample down — a stalled host delays
/// wake-ups by milliseconds — so the fast end tracks the program's own
/// speed, while the median tracks how busy the host was during the run.
/// (The kernel workloads go further and keep each call's fastest time.)
inline constexpr double kFastEnd = 0.9;

/// The 10th-percentile time (nearest rank); 0 when there are no samples.
[[nodiscard]] inline double fast_time(std::vector<double> times) {
  if (times.empty()) return 0.0;
  std::sort(times.begin(), times.end());
  return times[nearest_rank(1.0 - kFastEnd, times.size()) - 1];
}

/// A percentile as reported: the quantile actually used (lower than the one
/// asked for when the sample is too small) and the sample count.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  std::size_t samples = 0;
  bool fell_back = false;
};

/// Nearest-rank q-quantile of `samples`, keeping at least kMinBeyond samples
/// beyond it.  When too few lie beyond q, the highest lower quantile from
/// {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that keeps them is reported instead,
/// with fell_back set; below 21 samples even the median is flagged.  Missed
/// requests enter as kMissed, so a percentile that reaches them reads inf.
[[nodiscard]] inline Tail tail_quantile(std::vector<double> samples, double q) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double qq) { return nearest_rank(qq, samples.size()); };
  double used = q;
  if (samples.size() - rank(q) < kMinBeyond) {
    t.fell_back = true;
    used = 0.5;
    for (const double cand : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
      if (cand <= q && samples.size() - rank(cand) >= kMinBeyond) {
        used = cand;
        break;
      }
    }
  }
  t.q = used;
  t.value = samples[rank(used) - 1];
  return t;
}

/// One open-loop arrival, in seconds on the run's clock.
struct Arrival {
  double due = 0.0;     ///< when the schedule said to send it
  double submit = 0.0;  ///< when the generator called submit()
  double done = 0.0;    ///< when the generator saw its future ready
  bool ok = false;      ///< completed with a correct result
  bool traced = false;  ///< spans were recorded for it
};

/// Open-loop latency in ms, timed from each request's due time: a stalled
/// generator sends late, and that delay is charged to every request queued
/// behind the stall.  Failed or refused requests read kMissed.
[[nodiscard]] inline std::vector<double> due_latencies_ms(
    std::span<const Arrival> arrivals) {
  std::vector<double> out;
  out.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    out.push_back(a.ok ? (a.done - a.due) * 1e3 : kMissed);
  }
  return out;
}

/// How late the generator sent each request, in ms.
[[nodiscard]] inline std::vector<double> lateness_ms(
    std::span<const Arrival> arrivals) {
  std::vector<double> out;
  out.reserve(arrivals.size());
  for (const Arrival& a : arrivals) out.push_back((a.submit - a.due) * 1e3);
  return out;
}

}  // namespace svmbench
