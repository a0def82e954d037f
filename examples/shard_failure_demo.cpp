// Self-healing multi-hart execution, demonstrated end to end.
//
// A four-hart pool runs the paper's parallel plus-scan while a fault
// injector repeatedly kills one hart mid-shard.  Three policies are shown:
//
//   1. report-only (default): every shard failure is collected into a
//      structured EpochReport and thrown as ShardExecutionError;
//   2. retry: a one-shot crash is absorbed by re-running the shard on its
//      own hart from the collective's checkpoint;
//   3. inline fallback: a hart that fails persistently is bypassed by
//      re-executing its shards on the calling thread's rescue machine.
//
// In every recovered case the result is bit-identical to a fault-free run
// and the merged dynamic-instruction count is exactly the fault-free count:
// failed attempts are rolled back and reported separately as abandoned
// counts, never folded into the golden totals.
//
// Build: cmake --build build --target shard_failure_demo

#include <cstdint>
#include <iostream>
#include <numeric>
#include <span>
#include <vector>

#include "check/fault_injection.hpp"
#include "par/par.hpp"

namespace {

using rvvsvm::check::FaultInjector;

void print_report(const rvvsvm::par::EpochReport& report) {
  for (const auto& f : report.failures) {
    std::cout << "    shard " << f.shard << " on hart " << f.hart << ": "
              << f.message << "\n      attempts=" << f.attempts
              << (f.recovered ? " recovered" : " UNRECOVERED")
              << (f.inline_fallback ? " (inline fallback)" : "");
    if (f.has_context) {
      std::cout << " at " << rvvsvm::to_string(f.context);
    }
    std::cout << "\n";
  }
}

std::vector<std::uint32_t> input(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

}  // namespace

int main() {
  using namespace rvvsvm;
  constexpr std::size_t kN = 4000;

  // A fault-free run fixes the golden result and instruction count.
  par::HartPool golden({.harts = 4, .shard_size = 128,
                        .machine = {.vlen_bits = 256}});
  std::vector<std::uint32_t> want = input(kN);
  par::plus_scan<std::uint32_t, 2>(golden, std::span<std::uint32_t>(want));
  const std::uint64_t golden_total = golden.merged_counts().total();
  std::cout << "fault-free: " << golden_total << " merged instructions\n\n";

  // 1. Report-only: no recovery channels armed, so a crashing shard turns
  //    into a thrown ShardExecutionError carrying the full report.
  {
    std::cout << "[1] report-only policy\n";
    par::HartPool pool({.harts = 4, .shard_size = 128,
                        .machine = {.vlen_bits = 256}});
    try {
      pool.for_shards(8, [](std::size_t shard) {
        if (shard % 3 == 1) {
          throw check::HartCrash("simulated crash on shard " +
                                 std::to_string(shard));
        }
      });
    } catch (const par::ShardExecutionError& e) {
      std::cout << "  caught: " << e.what() << "\n";
      print_report(e.report());
    }
  }

  // 2. Retry: a one-shot hart crash is replayed on the same hart.
  {
    std::cout << "\n[2] retry policy (max_retries=1)\n";
    par::HartPool pool({.harts = 4, .shard_size = 128,
                        .machine = {.vlen_bits = 256},
                        .recovery = {.max_retries = 1}});
    FaultInjector inj({.trap_at_instruction = 40, .crash = true});
    pool.machine(3).set_fault_hook(&inj);
    std::vector<std::uint32_t> data = input(kN);
    par::plus_scan<std::uint32_t, 2>(pool, std::span<std::uint32_t>(data));
    pool.machine(3).set_fault_hook(nullptr);
    std::cout << "  result " << (data == want ? "matches" : "DIVERGES")
              << " the fault-free run; merged counts "
              << (pool.merged_counts().total() == golden_total ? "exact"
                                                               : "DRIFTED")
              << "; abandoned (rolled-back) instructions: "
              << pool.abandoned_counts().total() << "\n";
  }

  // 3. Inline fallback: hart 0 fails every attempt, so its shards execute
  //    on the calling thread's rescue machine instead.
  {
    std::cout << "\n[3] inline fallback (persistent hart failure)\n";
    par::HartPool pool({.harts = 4, .shard_size = 128,
                        .machine = {.vlen_bits = 256},
                        .recovery = {.max_retries = 1, .fallback_inline = true}});
    FaultInjector inj(
        {.trap_at_instruction = 1, .crash = true, .persistent = true});
    pool.machine(0).set_fault_hook(&inj);
    std::vector<std::uint32_t> data = input(kN);
    par::plus_scan<std::uint32_t, 2>(pool, std::span<std::uint32_t>(data));
    pool.machine(0).set_fault_hook(nullptr);
    std::cout << "  result " << (data == want ? "matches" : "DIVERGES")
              << " the fault-free run; merged counts "
              << (pool.merged_counts().total() == golden_total ? "exact"
                                                               : "DRIFTED")
              << "\n  last epoch's failures:\n";
    print_report(pool.last_report());
  }

  return 0;
}
