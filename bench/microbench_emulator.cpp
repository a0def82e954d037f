// google-benchmark microbenchmarks of the emulator itself (host wall-clock,
// not dynamic instruction counts): how fast the functional model executes
// kernels per emulated element.  Useful when deciding whether a sweep can
// afford N = 10^6 cells and for catching performance regressions in the
// emulator's hot paths (vreg allocation, the register-pressure model).
// Two modes:
//   * default: google-benchmark timings of individual emulator paths;
//   * --throughput [--json FILE] [--n N] [--threads T] [--smoke]: the
//     parallel sweep from bench_runner — kernel × VLEN × {cache on, cache
//     off} elements/sec — which writes the machine-readable
//     BENCH_emulator.json perf trajectory.  --smoke runs a small sweep on
//     one thread (a later --threads overrides it).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_runner.hpp"
#include "bench/common.hpp"
#include "svm/svm.hpp"

namespace {

using namespace rvvsvm;

void BM_PlusScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = bench::random_u32(n, 3);
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  for (auto _ : state) {
    auto data = input;
    svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(data));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlusScan)->Arg(1000)->Arg(100000);

void BM_SegPlusScanLmul8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = bench::random_u32(n, 3);
  const auto flags = bench::random_head_flags(n, 100, 4);
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  for (auto _ : state) {
    auto data = input;
    svm::seg_plus_scan<std::uint32_t, 8>(std::span<std::uint32_t>(data),
                                         std::span<const std::uint32_t>(flags));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegPlusScanLmul8)->Arg(1000)->Arg(100000);

void BM_ElementwiseAdd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = bench::random_u32(n, 5);
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  for (auto _ : state) {
    svm::p_add<std::uint32_t>(std::span<std::uint32_t>(data), 1u);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ElementwiseAdd)->Arg(1000)->Arg(100000);

void BM_Permute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = bench::random_u32(n, 5);
  const auto index = bench::reversal_permutation(n);
  std::vector<std::uint32_t> dst(n);
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  for (auto _ : state) {
    svm::permute<std::uint32_t>(std::span<const std::uint32_t>(input),
                                std::span<std::uint32_t>(dst),
                                std::span<const std::uint32_t>(index));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Permute)->Arg(1000)->Arg(100000);

void BM_RegFilePressureModel(benchmark::State& state) {
  // Isolates the allocator: repeated define/use/release churn at LMUL=8.
  sim::InstCounter counter;
  for (auto _ : state) {
    sim::VRegFileModel model(counter);
    std::vector<sim::ValueId> live;
    for (int round = 0; round < 100; ++round) {
      model.begin_inst();
      const auto id = model.define(8);
      model.end_inst();
      live.push_back(id);
      if (live.size() > 6) {
        model.release(live.front());
        live.erase(live.begin());
      }
      for (const auto v : live) {
        model.begin_inst();
        model.use(v);
        model.end_inst();
      }
    }
    benchmark::DoNotOptimize(counter.total());
  }
}
BENCHMARK(BM_RegFilePressureModel);

/// --throughput mode: run the parallel sweep and emit BENCH_emulator.json.
int run_throughput_mode(int argc, char** argv) {
  bench::SweepOptions opt;
  std::string json_path = "BENCH_emulator.json";
  double min_speedup = 0.0;  // 0 = no floor
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--throughput") continue;
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--n" && i + 1 < argc) {
      opt.n = std::stoul(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      opt.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::stod(argv[++i]);
    } else if (arg == "--smoke") {
      // CI-sized run: small input, short timing windows, two VLENs, one
      // worker thread.  Cells timed side by side on a shared host spread
      // the gated geomean too widely to hold a floor.
      opt.n = 1u << 12;
      opt.min_seconds = 0.01;
      opt.vlens = {128, 1024};
      opt.threads = 1;
    } else {
      std::cerr << "usage: microbench_emulator [--throughput [--json FILE] "
                   "[--n N] [--threads T] [--min-speedup X] [--smoke]]\n";
      return 2;
    }
  }
  const auto results = bench::run_throughput_sweep(opt);
  bench::print_summary(results);
  bench::write_bench_json(results, opt, json_path);
  std::cout << "\nwrote " << json_path << '\n';

  if (min_speedup > 0.0) {
    // Perf floor: the geometric-mean cached-vs-interpreted speedup over all
    // kernels at the widest swept VLEN must reach the committed bar.
    const unsigned vlen = *std::max_element(opt.vlens.begin(), opt.vlens.end());
    double log_sum = 0.0;
    int cells = 0;
    for (const char* kernel : {"elementwise", "scan", "permute", "seg_scan_m8"}) {
      const double s = bench::cached_speedup(results, kernel, vlen);
      std::cout << "cached speedup " << kernel << "@vlen" << vlen << ": "
                << s << "x\n";
      if (s <= 0.0) {
        std::cerr << "microbench_emulator: missing cached/interpreted cell for "
                  << kernel << "@vlen" << vlen << '\n';
        return 1;
      }
      log_sum += std::log(s);
      ++cells;
    }
    const double geomean = std::exp(log_sum / cells);
    std::cout << "cached speedup geomean@vlen" << vlen << ": " << geomean
              << "x (floor " << min_speedup << "x)\n";
    if (geomean < min_speedup) {
      std::cerr << "microbench_emulator: cached-path speedup " << geomean
                << "x fell below the committed floor " << min_speedup << "x\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--throughput") == 0) {
      try {
        return run_throughput_mode(argc, argv);
      } catch (const std::exception& e) {
        std::cerr << "microbench_emulator: " << e.what() << '\n';
        return 1;
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
