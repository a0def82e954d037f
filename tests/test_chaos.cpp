// The chaos suite: randomized fault injection as a regression gate.
//
// Half of this file drives the seeded chaos properties (src/check/
// properties_chaos.cpp) through the same fuzz() loop svm_fuzz uses — at
// least 200 cases per injector class, failing with a shrunk case and a
// ready-to-paste reproducer on any violation.  The other half is directed:
// hart crashes at 2, 4 and 8 harts must degrade to the exact fault-free
// result with the failure visible in the epoch report, retries and the
// inline fallback must preserve merged counts to the instruction, and a
// pool that absorbed faults must leak nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "check/fault_injection.hpp"
#include "check/oracle.hpp"
#include "par/par.hpp"
#include "rvv/rvv.hpp"
#include "svm/svm.hpp"

namespace rvvsvm {
namespace {

using u32 = std::uint32_t;
using check::FaultInjector;
using check::HartCrash;

// --- seeded chaos properties, >=200 cases per injector class ----------------

void run_property(const char* name, std::uint64_t iters) {
  check::FuzzOptions options;
  options.seed = 20260807;
  options.iters = iters;
  options.layer = name;
  const check::FuzzReport report = check::fuzz(options, nullptr);
  EXPECT_EQ(report.cases_run, iters);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.property << " (iteration " << failure.iteration
                  << ", case seed " << failure.case_seed << "): "
                  << failure.message << "\n" << failure.reproducer;
  }
}

TEST(Chaos, TrapInstructionInjector) { run_property("chaos.trap_instruction", 200); }
TEST(Chaos, MemoryFaultInjector) { run_property("chaos.memory_fault", 200); }
TEST(Chaos, PoolAllocInjector) { run_property("chaos.pool_alloc", 200); }
TEST(Chaos, HartCrashInjector) { run_property("chaos.hart_crash", 200); }
TEST(Chaos, HartFallbackInjector) { run_property("chaos.hart_fallback", 200); }

// --- directed recovery tests ------------------------------------------------

std::vector<u32> iota_data(std::size_t n) {
  std::vector<u32> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

/// Fault-free reference: same collective on an identically shaped pool.
std::vector<u32> golden_scan(unsigned harts, std::size_t n) {
  par::HartPool pool({.harts = harts, .shard_size = 64,
                      .machine = {.vlen_bits = 256}});
  std::vector<u32> buf = iota_data(n);
  par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
  return buf;
}

TEST(Chaos, HartCrashDegradesToCorrectResultAt248Harts) {
  constexpr std::size_t kN = 2000;
  for (const unsigned harts : {2u, 4u, 8u}) {
    const std::vector<u32> want = golden_scan(harts, kN);
    par::HartPool pool({.harts = harts,
                        .shard_size = 64,
                        .machine = {.vlen_bits = 256},
                        .recovery = {.max_retries = 1, .fallback_inline = true}});
    // Crash the last hart early in its first shard, once.
    FaultInjector inj({.trap_at_instruction = 3, .crash = true});
    pool.machine(harts - 1).set_fault_hook(&inj);
    std::vector<u32> buf = iota_data(kN);
    par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
    pool.machine(harts - 1).set_fault_hook(nullptr);

    EXPECT_EQ(buf, want) << harts << " harts";
    EXPECT_EQ(inj.fired(), 1u) << harts << " harts";
    // The failure is visible in the report of the epoch it happened in.
    bool crash_reported = false;
    for (const auto& f : pool.last_report().failures) {
      EXPECT_TRUE(f.recovered);
      crash_reported = true;
    }
    // plus_scan runs three epochs; the crash lands in the first (phase 1),
    // so last_report (phase 3) is typically clean — but the abandoned-count
    // ledger and a per-hart count probe still expose it.
    if (!crash_reported) {
      EXPECT_GT(pool.abandoned_counts().total(), 0u) << harts << " harts";
    }
  }
}

TEST(Chaos, SingleEpochCrashVisibleInReport) {
  par::HartPool pool({.harts = 4,
                      .shard_size = 16,
                      .machine = {.vlen_bits = 256},
                      .recovery = {.max_retries = 1, .fallback_inline = true}});
  std::atomic<int> crashes{0};
  std::vector<std::atomic<int>> commits(8);
  pool.for_shards(8, [&](std::size_t shard) {
    if (shard == 5 && crashes.fetch_add(1) == 0) {
      throw HartCrash("injected: hart died on shard 5");
    }
    ++commits[shard];
  });
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(commits[s].load(), 1) << "shard " << s;
  }
  const par::EpochReport& report = pool.last_report();
  ASSERT_EQ(report.failures.size(), 1u);
  const par::ShardFailure& f = report.failures[0];
  EXPECT_EQ(f.shard, 5u);
  EXPECT_TRUE(f.recovered);
  EXPECT_FALSE(f.inline_fallback);  // the retry on the same hart succeeded
  EXPECT_EQ(f.attempts, 2u);
  EXPECT_EQ(f.message, "injected: hart died on shard 5");
  EXPECT_TRUE(report.all_recovered());
}

TEST(Chaos, PersistentFailureEscalatesToInlineFallback) {
  par::HartPool pool({.harts = 2,
                      .shard_size = 16,
                      .machine = {.vlen_bits = 256},
                      .recovery = {.max_retries = 2, .fallback_inline = true}});
  std::vector<std::atomic<int>> commits(4);
  pool.for_shards(4, [&](std::size_t shard) {
    // Shard 2 dies on every pool hart (current_hart() >= 0) but succeeds on
    // the calling thread's rescue machine (hart -1): a fault bound to the
    // hart, not the work — the case only the inline fallback can save.
    if (shard == 2 && current_hart() >= 0) {
      throw HartCrash("shard 2 always dies on its hart");
    }
    ++commits[shard];
  });
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(commits[s].load(), 1) << "shard " << s;
  }
  const par::EpochReport& report = pool.last_report();
  ASSERT_EQ(report.failures.size(), 1u);
  const par::ShardFailure& f = report.failures[0];
  EXPECT_EQ(f.shard, 2u);
  EXPECT_TRUE(f.recovered);
  EXPECT_TRUE(f.inline_fallback);
  EXPECT_EQ(f.attempts, 4u);  // initial try + 2 retries + fallback
  EXPECT_EQ(f.message, "shard 2 always dies on its hart");
}

TEST(Chaos, RetryPreservesMergedCountsExactly) {
  constexpr std::size_t kN = 1500;
  const auto run = [&](bool faulted) {
    par::HartPool pool({.harts = 4,
                        .shard_size = 32,
                        .machine = {.vlen_bits = 256},
                        .recovery = {.max_retries = 2, .fallback_inline = true}});
    FaultInjector inj({.trap_at_instruction = 11, .crash = true});
    if (faulted) pool.machine(2).set_fault_hook(&inj);
    std::vector<u32> buf = iota_data(kN);
    par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
    if (faulted) pool.machine(2).set_fault_hook(nullptr);
    return std::pair{buf, pool.merged_counts()};
  };
  const auto [clean_data, clean_counts] = run(false);
  const auto [fault_data, fault_counts] = run(true);
  EXPECT_EQ(fault_data, clean_data);
  for (std::size_t k = 0; k < sim::kNumInstClasses; ++k) {
    const auto cls = static_cast<sim::InstClass>(k);
    EXPECT_EQ(fault_counts.count(cls), clean_counts.count(cls))
        << "merged " << sim::to_string(cls) << " drifted under retry";
  }
}

TEST(Chaos, ChaosSuiteLeavesPoolsLeakFree) {
  // A pool that absorbed faults must end with zero pool bytes in use on
  // every hart machine.
  par::HartPool pool({.harts = 4,
                      .shard_size = 32,
                      .machine = {.vlen_bits = 256},
                      .recovery = {.max_retries = 1, .fallback_inline = true}});
  FaultInjector inj({.trap_at_instruction = 5, .crash = true});
  pool.machine(1).set_fault_hook(&inj);
  std::vector<u32> buf = iota_data(800);
  par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
  pool.machine(1).set_fault_hook(nullptr);
  for (unsigned h = 0; h < 4; ++h) {
    EXPECT_EQ(pool.machine(h).pool_stats().bytes_in_use, 0u) << "hart " << h;
    EXPECT_EQ(pool.machine(h).pool_stats().cells_in_use, 0u) << "hart " << h;
  }
}

}  // namespace
}  // namespace rvvsvm
