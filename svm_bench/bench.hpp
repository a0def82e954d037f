// Shared types of the svm_bench workloads (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rvv/machine.hpp"
#include "sim/inst_counter.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace svmbench {

/// How one run was asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase; serve workloads split it evenly between
  /// the open-loop and closed-loop phases of their rounds.
  double seconds = 20.0;
  /// Non-empty: the traced run, which writes its Chrome trace here.
  std::string trace_path;
  /// A quick check: one set-up (two serve rounds) and shrunken fixed-size
  /// replays (modeled count, ladder).
  bool smoke = false;

  [[nodiscard]] bool traced() const noexcept { return !trace_path.empty(); }
};

/// A measured value; its unit comes from the metric catalog (svm_bench.cpp).
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What a run measured and whether every output was right.
struct Result {
  std::vector<Metric> metrics;
  /// Sample counts and fallbacks, printed as "# ..." lines.
  std::vector<std::string> notes;
  /// Operations attempted (kernel calls or requests) and those that failed,
  /// were refused or returned a wrong result.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Broken invariants other than per-operation failures (inexact bills).
  std::vector<std::string> violations;

  void add(std::string name, double value) {
    metrics.push_back(Metric{std::move(name), value});
  }
  /// Record a percentile, noting its sample count and any fallback.
  void add_tail(const std::string& name, const Tail& t);
  [[nodiscard]] bool correct() const noexcept {
    return failed == 0 && violations.empty();
  }
};

/// Deterministic input stream (splitmix64): the same seed gives the same
/// inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Inputs for the exact modeled-instruction count come from this seed in
/// every run: compared runs use different --seed values, and a count is
/// only comparable on identical inputs.
inline constexpr std::uint64_t kReferenceSeed = 0;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double nanos_between(Clock::time_point a,
                                          Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Execution-cache and buffer-pool counters summed over machines.
struct LayerCounters {
  rvvsvm::rvv::ExecCacheStats cache;
  std::uint64_t block_acquires = 0;
  std::uint64_t block_reuses = 0;
  std::size_t peak_bytes = 0;  ///< the largest machine's peak
};

[[nodiscard]] LayerCounters read_counters(
    std::span<const rvvsvm::rvv::Machine* const> machines);

/// The rvv, sim and tune per-layer metrics shared by every workload: the
/// counter changes from `before` to `after` over `calls` kernel calls or
/// requests, the spills and reloads of the modeled-count run, and the
/// global autotuner's totals.
void add_layer_metrics(const LayerCounters& before, const LayerCounters& after,
                       double calls, const rvvsvm::sim::CountSnapshot& modeled,
                       Result& r);

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// The kernel workloads ("fused", "interp").
[[nodiscard]] bool is_kernel_workload(std::string_view name);
[[nodiscard]] Result run_kernels(const Options& opt);
/// Every per-cell name "<kernel>.v<VLEN>.n<N>" of both kernel workloads.
[[nodiscard]] std::vector<std::string> kernel_cell_names();

/// The serve workloads ("serve_small", "serve_large").
[[nodiscard]] bool is_serve_workload(std::string_view name);
[[nodiscard]] Result run_serve(const Options& opt);

/// Pins the statistics helpers on synthetic samples; 0 when all hold.
[[nodiscard]] int self_test();

}  // namespace svmbench
