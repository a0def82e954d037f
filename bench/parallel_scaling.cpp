// Hart-scaling sweep for the sharded execution engine (src/par).
//
// Measures emulated elements/sec of the two-level collectives — scan,
// reduce, split, bounded-key radix sort — as the hart count grows at a fixed
// shard size, for each VLEN, and writes the machine-readable
// BENCH_parallel.json (per-cell hart/shard metadata plus per-hart and merged
// dynamic instruction counts).  Two speedups per cell: speedup_vs_1_hart
// divides by the 1-hart pool, which pays the same fork-join epochs;
// speedup_vs_one_machine divides by the same kernel as direct svm:: calls
// on one warm machine, which pays none — below 1 the pool loses.  The
// merged counts must be identical down every hart-count column: the
// engine's determinism invariant, checked here after the sweep so a broken
// invariant fails the bench run, not just the unit tests.
//
// Usage: parallel_scaling [--json FILE] [--n N] [--shard S] [--harts A,B,..]
//                         [--smoke]
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_runner.hpp"

namespace {

std::vector<unsigned> parse_list(const std::string& csv) {
  std::vector<unsigned> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(static_cast<unsigned>(std::stoul(item)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rvvsvm;

  bench::ParallelSweepOptions opt;
  std::string json_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--n" && i + 1 < argc) {
      opt.n = std::stoul(argv[++i]);
    } else if (arg == "--shard" && i + 1 < argc) {
      opt.shard_size = std::stoul(argv[++i]);
    } else if (arg == "--harts" && i + 1 < argc) {
      opt.hart_counts = parse_list(argv[++i]);
    } else if (arg == "--smoke") {
      // CI-sized run: small input, short windows, the VLEN extremes, and
      // enough shards (n / shard = 8) for every hart count to matter.
      opt.n = 1u << 12;
      opt.shard_size = 1u << 9;
      opt.min_seconds = 0.01;
      opt.vlens = {128, 1024};
      opt.hart_counts = {1, 2, 4};
    } else {
      std::cerr << "usage: parallel_scaling [--json FILE] [--n N] [--shard S] "
                   "[--harts A,B,...] [--smoke]\n";
      return 2;
    }
  }

  try {
    const auto results = bench::run_parallel_sweep(opt);
    bench::print_parallel_summary(results);
    bench::write_parallel_json(results, opt, json_path);
    std::cout << "\nwrote " << json_path << '\n';

    // Determinism invariant: merged counts must not move with hart count.
    for (const auto& r : results) {
      for (const auto& other : results) {
        if (r.kernel == other.kernel && r.vlen == other.vlen &&
            r.merged_instructions != other.merged_instructions) {
          std::cerr << "FAIL: merged instruction count depends on hart count ("
                    << r.kernel << " vlen=" << r.vlen << ": " << r.harts
                    << " harts -> " << r.merged_instructions << ", "
                    << other.harts << " harts -> " << other.merged_instructions
                    << ")\n";
          return 1;
        }
      }
    }
    std::cout << "merged counts hart-count-invariant: OK\n";
  } catch (const std::exception& e) {
    std::cerr << "parallel_scaling: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
