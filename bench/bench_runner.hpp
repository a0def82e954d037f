// Parallel wall-clock throughput driver for the emulator itself.
//
// Where the table benches report *modeled* dynamic-instruction counts, this
// driver measures how fast the *host* executes the emulation: emulated
// elements per second of wall-clock, for each kernel × VLEN configuration,
// with the execution cache on and off in the same process.  The cache-off
// rows are the interpreted path, so every run carries its own baseline and
// the JSON it writes records a trajectory future changes can regress
// against.  (The buffer pool's own speedup over the pre-pool emulator was
// frozen in DESIGN.md §6 when that emulator was deleted.)
//
// Configurations run on a thread pool: the active machine is thread-local
// (rvv::MachineScope) and each measurement owns a private Machine, so cells
// are fully independent — the same property the paper's VLEN/LMUL sweeps
// exploit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rvvsvm::bench {

/// One measured cell of the throughput sweep.
struct ThroughputResult {
  std::string kernel;
  unsigned vlen = 0;
  unsigned lmul = 1;
  std::size_t n = 0;
  bool cached = true;               ///< two-level execution cache on?
  double seconds_per_pass = 0.0;    ///< best timed window's per-pass wall-clock
  double elems_per_sec = 0.0;       ///< n / seconds_per_pass
  /// Raw seconds-per-pass of every timed window, in measurement order.  The
  /// best-of-N selection keeps only the minimum; recording the raw samples
  /// lets cross-PR diffs distinguish a real regression from a noisy host.
  std::vector<double> window_seconds;
  /// Population variance of window_seconds — a one-number noise figure for
  /// the cell (0 when a single window was taken).
  double window_variance = 0.0;
  std::uint64_t instructions = 0;   ///< modeled dynamic instructions per pass
  std::uint64_t spills = 0;         ///< modeled spill stores per pass
  std::uint64_t reloads = 0;        ///< modeled reload loads per pass
  std::uint64_t trace_replays = 0;  ///< fused-trace iterations replayed (total)
  std::uint64_t ops_replayed = 0;   ///< per-op charges satisfied from traces
};

struct SweepOptions {
  std::vector<unsigned> vlens{128, 256, 512, 1024};
  std::size_t n = 1u << 16;     ///< emulated elements per pass
  double min_seconds = 0.05;    ///< minimum timed window per repetition
  unsigned repetitions = 3;     ///< timed windows per cell; best one is kept
  unsigned threads = 0;         ///< worker threads; 0 = hardware concurrency
};

/// Version stamped into every JSON report this module writes, so
/// BENCH_emulator.json and BENCH_parallel.json are self-describing and
/// diffable across PRs.  Bump when a field changes meaning or moves.
/// v4: throughput cells carry per-window raw samples + window variance.
/// v5: the pool-off cell, the "pooled" field and speedup_pooled_vs_unpooled
/// are gone (two configurations per cell).
inline constexpr int kBenchSchemaVersion = 5;

/// Runs the kernel × VLEN × configuration sweep on a thread pool and
/// returns one result per cell (deterministic order: kernels outer, VLEN
/// middle; inner: uncached, cached).  The uncached cell is the interpreted
/// path — the pre-cache emulator — and the baseline the cached cell's
/// speedup is quoted against.
[[nodiscard]] std::vector<ThroughputResult> run_throughput_sweep(
    const SweepOptions& opt);

/// Cached-over-interpreted elements/sec ratio for one kernel at one VLEN;
/// returns 0 when either is missing.
[[nodiscard]] double cached_speedup(const std::vector<ThroughputResult>& results,
                                    const std::string& kernel, unsigned vlen);

/// Writes the machine-readable report (results plus per-cell speedups) to
/// `path` — the BENCH_emulator.json contract.
void write_bench_json(const std::vector<ThroughputResult>& results,
                      const SweepOptions& opt, const std::string& path);

/// Prints a human-readable summary table to stdout.
void print_summary(const std::vector<ThroughputResult>& results);

// ---------------------------------------------------------------------------
// Multi-hart scaling sweep (bench/parallel_scaling) — how emulated
// elements/sec scale with the hart count of the par:: sharded engine, per
// kernel and VLEN, at a fixed shard size.  Alongside wall-clock it records
// per-hart and merged dynamic instruction counts; merged counts must not
// move with the hart count (the engine's determinism invariant), so the
// JSON doubles as a cross-PR regression anchor for the modeled costs.

/// One measured cell of the hart-scaling sweep.
struct ParallelResult {
  std::string kernel;
  unsigned vlen = 0;
  unsigned harts = 0;
  std::size_t shard_size = 0;
  std::size_t n = 0;
  double seconds_per_pass = 0.0;
  double elems_per_sec = 0.0;
  std::uint64_t merged_instructions = 0;  ///< summed over harts, per pass
  std::vector<std::uint64_t> per_hart_instructions;  ///< per pass, hart order
};

struct ParallelSweepOptions {
  std::vector<unsigned> vlens{128, 256, 512, 1024};
  std::vector<unsigned> hart_counts{1, 2, 4, 8};
  std::size_t n = 1u << 16;        ///< emulated elements per pass
  std::size_t shard_size = 1u << 12;  ///< elements per shard (fixed across cells)
  double min_seconds = 0.05;       ///< minimum timed window per cell
};

/// Runs the kernel × VLEN × hart-count sweep.  Cells run one after another
/// (each cell is internally parallel across its harts) in deterministic
/// order: kernels outer, VLEN middle, hart count inner.
[[nodiscard]] std::vector<ParallelResult> run_parallel_sweep(
    const ParallelSweepOptions& opt);

/// Elements/sec of the cell over its harts=1 sibling; 0 when missing.
[[nodiscard]] double parallel_speedup(const std::vector<ParallelResult>& results,
                                      const std::string& kernel, unsigned vlen,
                                      unsigned harts);

/// Writes the machine-readable report — the BENCH_parallel.json contract.
void write_parallel_json(const std::vector<ParallelResult>& results,
                         const ParallelSweepOptions& opt, const std::string& path);

/// Prints a human-readable summary table to stdout.
void print_parallel_summary(const std::vector<ParallelResult>& results);

}  // namespace rvvsvm::bench
