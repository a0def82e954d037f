#include "bench/bench_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench/common.hpp"
#include "par/par.hpp"
#include "rvv/machine.hpp"
#include "svm/svm.hpp"

namespace rvvsvm::bench {

namespace {

using T = std::uint32_t;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::string kernel;
  unsigned vlen = 0;
  unsigned lmul = 1;
  bool cached = true;
};

/// One kernel pass over pre-built workload buffers.  Kernels run in place:
/// the emulator's cost per element is what is being measured, and reusing
/// the working set keeps host cache effects out of the comparison.
struct Workload {
  std::vector<T> data;
  std::vector<T> flags;
  std::vector<T> index;
  std::vector<T> scratch;

  explicit Workload(std::size_t n)
      : data(random_u32(n, 3)),
        flags(random_head_flags(n, 100, 4)),
        index(reversal_permutation(n)),
        scratch(n) {}

  void run(const std::string& kernel) {
    if (kernel == "elementwise") {
      svm::p_add<T>(std::span<T>(data), 1u);
    } else if (kernel == "scan") {
      svm::plus_scan<T>(std::span<T>(data));
    } else if (kernel == "permute") {
      svm::permute<T>(std::span<const T>(data), std::span<T>(scratch),
                      std::span<const T>(index));
    } else if (kernel == "seg_scan_m8") {
      svm::seg_plus_scan<T, 8>(std::span<T>(data),
                               std::span<const T>(flags));
    } else {
      throw std::logic_error("bench_runner: unknown kernel " + kernel);
    }
  }
};

ThroughputResult run_cell(const Cell& cell, const SweepOptions& opt) {
  ThroughputResult r;
  r.kernel = cell.kernel;
  r.vlen = cell.vlen;
  r.lmul = cell.lmul;
  r.n = opt.n;
  r.cached = cell.cached;

  Workload work(opt.n);
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = cell.vlen,
                                            .use_exec_cache = cell.cached});
  rvv::MachineScope scope(machine);

  // Warmup pass doubles as the modeled-count measurement (counts are
  // deterministic per pass, so one bracketed pass suffices).
  const auto spills_before = machine.regfile()->spill_count();
  const auto reloads_before = machine.regfile()->reload_count();
  const auto before = machine.counter().snapshot();
  work.run(cell.kernel);
  r.instructions = (machine.counter().snapshot() - before).total();
  r.spills = machine.regfile()->spill_count() - spills_before;
  r.reloads = machine.regfile()->reload_count() - reloads_before;

  // Best of `repetitions` timed windows: host-side interference (scheduler
  // preemption, VM steal time) only ever slows a pass down, so the fastest
  // window is the least-contaminated estimate of the emulator's own cost.
  // Every window's raw sample is kept alongside the minimum so the JSON
  // records how noisy the selection was.
  const unsigned reps = opt.repetitions == 0 ? 1 : opt.repetitions;
  double best = std::numeric_limits<double>::infinity();
  r.window_seconds.reserve(reps);
  for (unsigned rep = 0; rep < reps; ++rep) {
    std::size_t passes = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      work.run(cell.kernel);
      ++passes;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < opt.min_seconds);
    const double window = elapsed / static_cast<double>(passes);
    r.window_seconds.push_back(window);
    best = std::min(best, window);
  }
  double mean = 0.0;
  for (const double w : r.window_seconds) mean += w;
  mean /= static_cast<double>(r.window_seconds.size());
  for (const double w : r.window_seconds) {
    r.window_variance += (w - mean) * (w - mean);
  }
  r.window_variance /= static_cast<double>(r.window_seconds.size());

  r.seconds_per_pass = best;
  r.elems_per_sec = static_cast<double>(opt.n) / r.seconds_per_pass;
  r.trace_replays = machine.exec_cache().stats().trace_replays;
  r.ops_replayed = machine.exec_cache().stats().ops_replayed;
  return r;
}

unsigned worker_count(const SweepOptions& opt, std::size_t num_tasks) {
  unsigned n = opt.threads != 0 ? opt.threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  if (n > num_tasks) n = static_cast<unsigned>(num_tasks);
  return n;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

std::vector<ThroughputResult> run_throughput_sweep(const SweepOptions& opt) {
  static const char* kKernels[] = {"elementwise", "scan", "permute", "seg_scan_m8"};

  std::vector<Cell> cells;
  for (const char* kernel : kKernels) {
    const unsigned lmul = std::string(kernel) == "seg_scan_m8" ? 8u : 1u;
    for (const unsigned vlen : opt.vlens) {
      // uncached = interpreted path (the cached cell's baseline);
      // cached = full fast path.
      cells.push_back(Cell{kernel, vlen, lmul, /*cached=*/false});
      cells.push_back(Cell{kernel, vlen, lmul, /*cached=*/true});
    }
  }

  std::vector<ThroughputResult> results(cells.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < cells.size();
         i = next.fetch_add(1)) {
      results[i] = run_cell(cells[i], opt);
    }
  };

  const unsigned nthreads = worker_count(opt, cells.size());
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return results;
}

double cached_speedup(const std::vector<ThroughputResult>& results,
                      const std::string& kernel, unsigned vlen) {
  const ThroughputResult* cached = nullptr;
  const ThroughputResult* interpreted = nullptr;
  for (const auto& r : results) {
    if (r.kernel == kernel && r.vlen == vlen) {
      (r.cached ? cached : interpreted) = &r;
    }
  }
  if (cached == nullptr || interpreted == nullptr ||
      interpreted->elems_per_sec == 0.0) {
    return 0.0;
  }
  return cached->elems_per_sec / interpreted->elems_per_sec;
}

void write_bench_json(const std::vector<ThroughputResult>& results,
                      const SweepOptions& opt, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bench_runner: cannot write " + path);

  out << "{\n"
      << "  \"schema\": \"rvvsvm-bench-emulator\",\n"
      << "  \"schema_version\": " << kBenchSchemaVersion << ",\n"
      << "  \"n\": " << opt.n << ",\n"
      << "  \"threads\": " << worker_count(opt, results.size()) << ",\n"
      // Every cell of this sweep is a single-hart machine; shards do not
      // apply.  Recorded so the two BENCH_*.json files share one vocabulary.
      << "  \"harts\": 1,\n"
      << "  \"shard_size\": null,\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"vlen\": " << r.vlen
        << ", \"lmul\": " << r.lmul << ", \"n\": " << r.n
        << ", \"cached\": " << (r.cached ? "true" : "false")
        << ", \"seconds_per_pass\": " << json_number(r.seconds_per_pass)
        << ", \"elems_per_sec\": " << json_number(r.elems_per_sec)
        << ", \"instructions\": " << r.instructions
        << ", \"spills\": " << r.spills << ", \"reloads\": " << r.reloads
        << ", \"trace_replays\": " << r.trace_replays
        << ", \"ops_replayed\": " << r.ops_replayed
        << ", \"window_seconds_per_pass\": [";
    for (std::size_t w = 0; w < r.window_seconds.size(); ++w) {
      out << (w == 0 ? "" : ", ") << json_number(r.window_seconds[w]);
    }
    out << "], \"window_variance\": " << json_number(r.window_variance)
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }

  // One entry per (kernel, vlen) pair, in result order.
  std::vector<std::pair<std::string, unsigned>> pairs;
  for (const auto& r : results) {
    const auto key = std::make_pair(r.kernel, r.vlen);
    bool seen = false;
    for (const auto& p : pairs) seen = seen || p == key;
    if (!seen) pairs.push_back(key);
  }
  out << "  ],\n"
      << "  \"speedup_cached_vs_interpreted\": {\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out << "    \"" << pairs[i].first << "@vlen" << pairs[i].second
        << "\": " << json_number(cached_speedup(results, pairs[i].first, pairs[i].second))
        << (i + 1 < pairs.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

namespace {

/// One pass of a parallel kernel over prebuilt buffers.  As in Workload,
/// kernels rerun on their own (mutated) output: split radix sort and the
/// scans are data-oblivious, so instruction streams and wall-clock per pass
/// are unaffected.
struct ParallelWorkload {
  std::vector<T> data;
  std::vector<T> flags;
  std::vector<T> scratch;

  explicit ParallelWorkload(std::size_t n)
      : data(random_u32(n, 3)), flags(random_head_flags(n, 2, 4)), scratch(n) {}

  void run(par::HartPool& pool, const std::string& kernel) {
    if (kernel == "scan") {
      par::plus_scan<T>(pool, std::span<T>(data));
    } else if (kernel == "scan_exclusive") {
      par::plus_scan_exclusive<T>(pool, std::span<T>(data));
    } else if (kernel == "reduce") {
      static_cast<void>(par::reduce<svm::PlusOp, T>(
          pool, std::span<const T>(data)));
    } else if (kernel == "split") {
      static_cast<void>(par::split<T>(pool, std::span<const T>(data),
                                      std::span<T>(scratch),
                                      std::span<const T>(flags)));
    } else if (kernel == "radix_sort8") {
      par::split_radix_sort<T>(pool, std::span<T>(data), /*key_bits=*/8);
    } else {
      throw std::logic_error("bench_runner: unknown parallel kernel " + kernel);
    }
  }
};

ParallelResult run_parallel_cell(const std::string& kernel, unsigned vlen,
                                 unsigned harts, const ParallelSweepOptions& opt) {
  ParallelResult r;
  r.kernel = kernel;
  r.vlen = vlen;
  r.harts = harts;
  r.shard_size = opt.shard_size;
  r.n = opt.n;

  ParallelWorkload work(opt.n);
  par::HartPool pool(par::HartPool::Config{
      .harts = harts,
      .shard_size = opt.shard_size,
      .machine = {.vlen_bits = vlen}});

  // Warmup pass doubles as the count measurement (counts are deterministic
  // per pass).
  pool.reset_counts();
  work.run(pool, kernel);
  const auto per_hart = pool.per_hart_counts();
  for (const auto& snap : per_hart) {
    r.per_hart_instructions.push_back(snap.total());
  }
  r.merged_instructions =
      sim::merge_counts(per_hart.data(), per_hart.size()).total();

  std::size_t passes = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    work.run(pool, kernel);
    ++passes;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < opt.min_seconds);

  r.seconds_per_pass = elapsed / static_cast<double>(passes);
  r.elems_per_sec = static_cast<double>(opt.n) / r.seconds_per_pass;
  return r;
}

}  // namespace

std::vector<ParallelResult> run_parallel_sweep(const ParallelSweepOptions& opt) {
  static const char* kKernels[] = {"scan", "scan_exclusive", "reduce", "split",
                                   "radix_sort8"};
  std::vector<ParallelResult> results;
  for (const char* kernel : kKernels) {
    for (const unsigned vlen : opt.vlens) {
      for (const unsigned harts : opt.hart_counts) {
        results.push_back(run_parallel_cell(kernel, vlen, harts, opt));
      }
    }
  }
  return results;
}

double parallel_speedup(const std::vector<ParallelResult>& results,
                        const std::string& kernel, unsigned vlen,
                        unsigned harts) {
  const ParallelResult* cell = nullptr;
  const ParallelResult* base = nullptr;
  for (const auto& r : results) {
    if (r.kernel == kernel && r.vlen == vlen) {
      if (r.harts == harts) cell = &r;
      if (r.harts == 1) base = &r;
    }
  }
  if (cell == nullptr || base == nullptr || base->elems_per_sec == 0.0) return 0.0;
  return cell->elems_per_sec / base->elems_per_sec;
}

void write_parallel_json(const std::vector<ParallelResult>& results,
                         const ParallelSweepOptions& opt,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bench_runner: cannot write " + path);

  out << "{\n"
      << "  \"schema\": \"rvvsvm-bench-parallel\",\n"
      << "  \"schema_version\": " << kBenchSchemaVersion << ",\n"
      << "  \"n\": " << opt.n << ",\n"
      << "  \"shard_size\": " << opt.shard_size << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"vlen\": " << r.vlen
        << ", \"harts\": " << r.harts << ", \"shard_size\": " << r.shard_size
        << ", \"n\": " << r.n
        << ", \"seconds_per_pass\": " << json_number(r.seconds_per_pass)
        << ", \"elems_per_sec\": " << json_number(r.elems_per_sec)
        << ", \"merged_instructions\": " << r.merged_instructions
        << ", \"per_hart_instructions\": [";
    for (std::size_t h = 0; h < r.per_hart_instructions.size(); ++h) {
      out << (h == 0 ? "" : ", ") << r.per_hart_instructions[h];
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_vs_1_hart\": {\n";

  std::vector<std::string> keys;
  std::vector<double> values;
  for (const auto& r : results) {
    if (r.harts == 1) continue;
    keys.push_back(r.kernel + "@vlen" + std::to_string(r.vlen) + "@harts" +
                   std::to_string(r.harts));
    values.push_back(parallel_speedup(results, r.kernel, r.vlen, r.harts));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out << "    \"" << keys[i] << "\": " << json_number(values[i])
        << (i + 1 < keys.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

void print_parallel_summary(const std::vector<ParallelResult>& results) {
  std::cout << std::left << std::setw(16) << "kernel" << std::right
            << std::setw(6) << "vlen" << std::setw(7) << "harts"
            << std::setw(12) << "shard" << std::setw(16) << "Melems/s"
            << std::setw(14) << "merged insts" << std::setw(10) << "vs 1" << '\n';
  for (const auto& r : results) {
    std::cout << std::left << std::setw(16) << r.kernel << std::right
              << std::setw(6) << r.vlen << std::setw(7) << r.harts
              << std::setw(12) << r.shard_size << std::setw(16) << std::fixed
              << std::setprecision(3) << r.elems_per_sec / 1e6 << std::setw(14)
              << r.merged_instructions << std::setw(9) << std::setprecision(2)
              << parallel_speedup(results, r.kernel, r.vlen, r.harts) << "x\n";
  }
}

void print_summary(const std::vector<ThroughputResult>& results) {
  std::cout << std::left << std::setw(14) << "kernel" << std::right
            << std::setw(6) << "vlen" << std::setw(6) << "lmul"
            << std::setw(10) << "cached"
            << std::setw(16) << "Melems/s" << std::setw(12) << "insts"
            << std::setw(12) << "replays" << '\n';
  for (const auto& r : results) {
    std::cout << std::left << std::setw(14) << r.kernel << std::right
              << std::setw(6) << r.vlen << std::setw(6) << r.lmul
              << std::setw(10) << (r.cached ? "yes" : "no") << std::setw(16)
              << std::fixed << std::setprecision(3) << r.elems_per_sec / 1e6
              << std::setw(12) << r.instructions
              << std::setw(12) << r.trace_replays << '\n';
  }
  std::vector<std::pair<std::string, unsigned>> pairs;
  for (const auto& r : results) {
    const auto key = std::make_pair(r.kernel, r.vlen);
    bool seen = false;
    for (const auto& p : pairs) seen = seen || p == key;
    if (!seen) pairs.push_back(key);
  }
  std::cout << "\nexec cache vs interpreted speedup (elements/sec):\n";
  for (const auto& [kernel, vlen] : pairs) {
    std::cout << "  " << std::left << std::setw(14) << kernel << " vlen="
              << std::setw(5) << vlen << std::fixed << std::setprecision(2)
              << cached_speedup(results, kernel, vlen) << "x\n";
  }
}

}  // namespace rvvsvm::bench
