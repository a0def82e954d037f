// svm_bench --self-test: pins the statistics helpers on synthetic samples.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace svmbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "self-test FAIL: " << what << '\n';
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

/// The percentile keeps at least ten samples beyond it, else falls back.
void percentile_fallback() {
  const Tail p99 = tail_quantile(ramp(1000), 0.99);
  expect(!p99.fell_back && near(p99.q, 0.99) && near(p99.value, 990.0),
         "p99 of 1000 samples is the 990th, ten beyond it");
  const Tail short_p99 = tail_quantile(ramp(100), 0.99);
  expect(short_p99.fell_back && near(short_p99.q, 0.9) &&
             near(short_p99.value, 90.0) && short_p99.samples == 100,
         "p99 of 100 samples falls back to p90");
  const Tail tiny = tail_quantile(ramp(15), 0.5);
  expect(tiny.fell_back && near(tiny.q, 0.5) && near(tiny.value, 8.0),
         "the median of 15 samples is reported and flagged");
}

/// Failed and refused requests miss every latency limit.
void failures_are_misses() {
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 100; ++i) {
    const double due = i * 1e-3;
    arrivals.push_back(Arrival{due, due, due + 1e-4, i % 5 != 0});
  }
  const std::vector<double> lat = due_latencies_ms(arrivals);
  expect(std::isinf(tail_quantile(lat, 0.9).value),
         "p90 reaches the 20% of requests that failed");
  expect(std::fabs(tail_quantile(lat, 0.5).value - 0.1) < 1e-6,
         "p50 of the completed majority is their latency");
}

/// Timing from the due time charges a generator stall to every request
/// queued behind it; timing from submit would hide it.
void stall_is_charged() {
  std::vector<Arrival> arrivals;
  const double stall_end = 15e-3;  // the generator froze from 5 ms to 15 ms
  for (int i = 0; i < 30; ++i) {
    const double due = i * 1e-3;
    const double submit = (due >= 5e-3 && due < stall_end) ? stall_end : due;
    arrivals.push_back(Arrival{due, submit, submit + 1e-4, true});
  }
  const std::vector<double> lat = due_latencies_ms(arrivals);
  expect(std::fabs(lat[5] - 10.1) < 1e-6, "first stalled request waits 10 ms");
  expect(std::fabs(lat[14] - 1.1) < 1e-6, "last stalled request waits 1 ms");
  expect(std::fabs(lat[20] - 0.1) < 1e-6, "requests after the stall are served at once");
  const std::vector<double> late = lateness_ms(arrivals);
  expect(std::fabs(late[5] - 10.0) < 1e-6, "generator lateness shows the stall");
}

/// The fast end ignores interference that slows a majority of samples,
/// and reads the slow level only when fewer than a tenth are fast.
void fast_end() {
  std::vector<double> times(100, 30.0);
  for (std::size_t i = 0; i < 80; ++i) times[i] = 45.0;  // 80% contended
  expect(near(fast_time(times), 30.0), "fast_time keeps the uncontended latency");
  for (std::size_t i = 80; i < 95; ++i) times[i] = 45.0;
  expect(near(fast_time(times), 45.0), "fast_time is the 10th percentile");
  expect(near(fast_time(ramp(20)), 2.0), "fast_time of 1..20 is the 10th percentile");
  expect(fast_time({}) == 0.0, "no samples read 0");
}

/// Quartiles equal Python's statistics.quantiles(values, n=4).
void python_quartiles() {
  const Quartiles four = quartiles({4.0, 1.0, 3.0, 2.0});
  expect(near(four.q1, 1.25) && near(four.median, 2.5) && near(four.q3, 3.75),
         "quartiles of 1..4 are 1.25, 2.5, 3.75");
  const Quartiles ten = quartiles(ramp(10));
  expect(near(ten.q1, 2.75) && near(ten.median, 5.5) && near(ten.q3, 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  expect(near(quartiles(ramp(5)).median, 3.0), "median of 1..5 is 3");
}

}  // namespace

int self_test() {
  failures = 0;
  percentile_fallback();
  failures_are_misses();
  stall_is_charged();
  fast_end();
  python_quartiles();
  std::cout << "self-test: " << (failures == 0 ? "ok" : "FAILED") << '\n';
  return failures == 0 ? 0 : 1;
}

}  // namespace svmbench
