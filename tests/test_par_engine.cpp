// Sharded execution engine (src/par): partition math, fork-join pool,
// bit-identical two-level collectives, and the determinism invariant —
// merged dynamic instruction counts must depend only on (n, shard_size),
// never on the hart count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "par/par.hpp"
#include "svm/svm.hpp"

namespace {

using namespace rvvsvm;
using T = std::uint32_t;

std::vector<T> random_u32(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng());
  return v;
}

std::vector<T> random_flags(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = rng() & 1u;
  return v;
}

TEST(Partition, ShardsCoverArrayExactly) {
  const auto shards = par::make_shards(10000, 4096);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (par::ShardRange{0, 4096}));
  EXPECT_EQ(shards[1], (par::ShardRange{4096, 8192}));
  EXPECT_EQ(shards[2], (par::ShardRange{8192, 10000}));
  EXPECT_TRUE(par::make_shards(0, 4096).empty());
  EXPECT_EQ(par::make_shards(1, 4096).size(), 1u);
  EXPECT_EQ(par::make_shards(8192, 4096).size(), 2u);
}

TEST(Partition, HartAssignmentIsContiguousAndComplete) {
  for (const unsigned harts : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t num_shards : {1u, 2u, 7u, 8u, 9u, 64u}) {
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (unsigned h = 0; h < harts; ++h) {
        const auto range = par::shards_for_hart(num_shards, harts, h);
        EXPECT_EQ(range.begin, expect_begin);
        expect_begin = range.end;
        covered += range.size();
      }
      EXPECT_EQ(covered, num_shards) << harts << " harts, " << num_shards
                                     << " shards";
      EXPECT_EQ(expect_begin, num_shards);
    }
  }
}

TEST(HartPool, RunsEveryShardExactlyOnce) {
  par::HartPool pool({.harts = 4, .shard_size = 64});
  std::vector<std::atomic<int>> hits(37);
  pool.for_shards(hits.size(), [&](std::size_t s) { hits[s].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(HartPool, ActiveMachineIsPerHart) {
  par::HartPool pool({.harts = 4, .shard_size = 1});
  std::vector<const rvv::Machine*> seen(4, nullptr);
  pool.for_shards(4, [&](std::size_t s) {
    seen[s] = &rvv::Machine::active();
  });
  // 4 shards over 4 harts: one shard each, so all four machines appear.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), nullptr), 0);
}

TEST(HartPool, PropagatesExceptions) {
  par::HartPool pool({.harts = 2, .shard_size = 1});
  EXPECT_THROW(
      pool.for_shards(4, [](std::size_t s) {
        if (s == 3) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool survives and runs the next job.
  std::atomic<int> ran{0};
  pool.for_shards(2, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

TEST(HartPool, OneShardRunsOnHartZero) {
  // The collectives' combine phases are one-shard epochs; their counts land
  // on hart 0 whatever the pool size.
  for (const unsigned harts : {1u, 2u, 4u}) {
    par::HartPool pool({.harts = harts, .shard_size = 64});
    const rvv::Machine* ran_on = nullptr;
    pool.for_shards(1, [&](std::size_t) { ran_on = &rvv::Machine::active(); });
    EXPECT_EQ(ran_on, &pool.machine(0)) << harts << " harts";
  }
}

TEST(HartPool, DeadlineTrapIsNeverRetriedOrRescued) {
  par::HartPool pool({.harts = 2,
                      .shard_size = 64,
                      .machine = {.vlen_bits = 256},
                      .recovery = {.max_retries = 2, .fallback_inline = true}});
  const auto cancelling_body = [](std::size_t) {
    rvv::Machine& m = rvv::Machine::active();
    struct Disarm {
      rvv::Machine& m;
      ~Disarm() { m.clear_instruction_deadline(); }
    } disarm{m};
    m.set_instruction_deadline(m.counter().total() + 1);
    auto data = random_u32(4096, 5);
    svm::plus_scan<T, 1>(std::span<T>(data));
  };
  EXPECT_THROW(pool.for_shards(1, cancelling_body), par::ShardExecutionError);

  const par::EpochReport& report = pool.last_report();
  ASSERT_EQ(report.failures.size(), 1u);
  const par::ShardFailure& fail = report.failures[0];
  ASSERT_TRUE(fail.has_context);
  EXPECT_EQ(fail.trap_kind, sim::TrapKind::kDeadlineExceeded);
  EXPECT_EQ(fail.attempts, 1u);
  EXPECT_FALSE(fail.recovered);
  EXPECT_FALSE(fail.inline_fallback);
  EXPECT_EQ(pool.rescue_machine(), nullptr);
  EXPECT_EQ(pool.machine(0).instruction_deadline(), 0u);
  // The cancelled attempt rolled back: its work is abandoned, not merged.
  EXPECT_EQ(pool.merged_counts().total(), 0u);
  EXPECT_GT(pool.abandoned_counts().total(), 0u);
  EXPECT_EQ(pool.abandoned_counts(), report.abandoned_counts);
}

TEST(HartPool, RejectsBadConfig) {
  EXPECT_THROW(par::HartPool({.harts = 1, .shard_size = 0}),
               std::invalid_argument);
  EXPECT_THROW(par::HartPool({.harts = 1, .machine = {.vlen_bits = 96}}),
               std::invalid_argument);
}

/// A machine may be handed from one thread to another between kernels (all
/// buffers drained in between) — the pattern the fork-join runner relies on.
TEST(HartPool, MachineMayMoveThreadsWhenDrained) {
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 256});
  std::thread worker([&] {
    rvv::MachineScope scope(machine);
    auto data = random_u32(1000, 1);
    svm::plus_scan<T>(std::span<T>(data));
  });
  worker.join();
  rvv::MachineScope scope(machine);
  auto data = random_u32(1000, 2);
  svm::plus_scan<T>(std::span<T>(data));  // re-binds the drained pool here
  EXPECT_GT(machine.counter().total(), 0u);
}

// ---------------------------------------------------------------------------
// Collectives: bit-identical to their single-hart svm:: counterparts.

template <class ParKernel, class SvmKernel>
void expect_matches_single_hart(std::size_t n, unsigned vlen,
                                std::size_t shard_size, unsigned harts,
                                ParKernel par_kernel, SvmKernel svm_kernel) {
  auto par_data = random_u32(n, 42);
  auto svm_data = par_data;

  par::HartPool pool({.harts = harts, .shard_size = shard_size,
                      .machine = {.vlen_bits = vlen}});
  par_kernel(pool, std::span<T>(par_data));

  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = vlen});
  rvv::MachineScope scope(machine);
  svm_kernel(std::span<T>(svm_data));

  ASSERT_EQ(par_data, svm_data) << "n=" << n << " vlen=" << vlen
                                << " shard=" << shard_size << " harts=" << harts;
}

TEST(ParCollectives, ScanInclusiveMatchesSingleHart) {
  for (const std::size_t n : {0u, 1u, 100u, 4096u, 10000u}) {
    for (const unsigned vlen : {128u, 1024u}) {
      expect_matches_single_hart(
          n, vlen, /*shard_size=*/1024, /*harts=*/3,
          [](par::HartPool& pool, std::span<T> d) { par::plus_scan<T>(pool, d); },
          [](std::span<T> d) { svm::plus_scan<T>(d); });
    }
  }
}

TEST(ParCollectives, ScanInclusiveMaxAndXorOps) {
  expect_matches_single_hart(
      10000, 512, 512, 4,
      [](par::HartPool& pool, std::span<T> d) { par::max_scan<T>(pool, d); },
      [](std::span<T> d) { svm::max_scan<T>(d); });
  expect_matches_single_hart(
      10000, 512, 512, 4,
      [](par::HartPool& pool, std::span<T> d) {
        par::scan_inclusive<svm::XorOp, T>(pool, d);
      },
      [](std::span<T> d) { svm::xor_scan<T>(d); });
}

TEST(ParCollectives, ScanInclusiveHighLmul) {
  expect_matches_single_hart(
      10000, 256, 2048, 2,
      [](par::HartPool& pool, std::span<T> d) { par::plus_scan<T, 8>(pool, d); },
      [](std::span<T> d) { svm::plus_scan<T, 8>(d); });
}

TEST(ParCollectives, ScanExclusiveMatchesSingleHart) {
  for (const std::size_t n : {1u, 100u, 4096u, 10000u}) {
    expect_matches_single_hart(
        n, 1024, 1024, 3,
        [](par::HartPool& pool, std::span<T> d) {
          par::plus_scan_exclusive<T>(pool, d);
        },
        [](std::span<T> d) { svm::plus_scan_exclusive<T>(d); });
  }
}

TEST(ParCollectives, ReduceMatchesSingleHart) {
  const auto data = random_u32(10000, 7);
  par::HartPool pool({.harts = 4, .shard_size = 999,
                      .machine = {.vlen_bits = 512}});
  const T par_sum = par::reduce<svm::PlusOp, T>(pool, std::span<const T>(data));

  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 512});
  rvv::MachineScope scope(machine);
  const T svm_sum = svm::reduce<svm::PlusOp, T>(std::span<const T>(data));
  EXPECT_EQ(par_sum, svm_sum);
  EXPECT_EQ(par_sum,
            std::accumulate(data.begin(), data.end(), T{0}));  // wraps like T
}

TEST(ParCollectives, ReduceEmptyIsIdentity) {
  par::HartPool pool({.harts = 2, .shard_size = 64});
  EXPECT_EQ((par::reduce<svm::PlusOp, T>(pool, std::span<const T>())), T{0});
}

TEST(ParCollectives, SplitMatchesSingleHart) {
  for (const std::size_t n : {1u, 100u, 5000u, 10000u}) {
    const auto src = random_u32(n, 11);
    const auto flags = random_flags(n, 13);
    std::vector<T> par_dst(n), svm_dst(n);

    par::HartPool pool({.harts = 3, .shard_size = 768,
                        .machine = {.vlen_bits = 1024}});
    const std::size_t par_count =
        par::split<T>(pool, std::span<const T>(src), std::span<T>(par_dst),
                      std::span<const T>(flags));

    rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
    rvv::MachineScope scope(machine);
    const std::size_t svm_count =
        svm::split<T>(std::span<const T>(src), std::span<T>(svm_dst),
                      std::span<const T>(flags));

    EXPECT_EQ(par_count, svm_count) << "n=" << n;
    EXPECT_EQ(par_dst, svm_dst) << "n=" << n;
  }
}

TEST(ParCollectives, RadixSortMatchesSingleHartAndStdSort) {
  auto par_data = random_u32(10000, 21);
  auto apps_data = par_data;
  auto ref = par_data;

  par::HartPool pool({.harts = 4, .shard_size = 1024,
                      .machine = {.vlen_bits = 1024}});
  par::split_radix_sort<T>(pool, std::span<T>(par_data));

  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  apps::split_radix_sort<T>(std::span<T>(apps_data));

  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(par_data, ref);
  EXPECT_EQ(par_data, apps_data);
}

TEST(ParCollectives, BoundedKeyRadixSortSorts) {
  auto data = random_u32(5000, 23);
  for (auto& x : data) x &= 0xFFu;
  auto ref = data;
  par::HartPool pool({.harts = 2, .shard_size = 512,
                      .machine = {.vlen_bits = 256}});
  par::split_radix_sort<T>(pool, std::span<T>(data), /*key_bits=*/8);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(data, ref);
}

// ---------------------------------------------------------------------------
// Determinism invariant: merged counts depend on (n, shard_size) only.

TEST(ParCounts, MergedCountsInvariantAcrossHartCounts) {
  constexpr std::size_t kN = 10000;
  constexpr std::size_t kShard = 1024;

  std::vector<sim::CountSnapshot> merged;
  for (const unsigned harts : {1u, 2u, 4u, 8u}) {
    par::HartPool pool({.harts = harts, .shard_size = kShard,
                        .machine = {.vlen_bits = 1024}});
    auto data = random_u32(kN, 3);
    par::plus_scan<T>(pool, std::span<T>(data));
    auto flags = random_flags(kN, 5);
    std::vector<T> dst(kN);
    static_cast<void>(par::split<T>(pool, std::span<const T>(data),
                                    std::span<T>(dst),
                                    std::span<const T>(flags)));
    merged.push_back(pool.merged_counts());
  }
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].total(), merged[0].total());
    for (std::size_t c = 0; c < sim::kNumInstClasses; ++c) {
      const auto cls = static_cast<sim::InstClass>(c);
      EXPECT_EQ(merged[i].count(cls), merged[0].count(cls))
          << "class " << sim::to_string(cls) << " differs at hart count index "
          << i;
    }
  }
}

TEST(ParCounts, MergedCountsDeterministicAcrossRuns) {
  const auto run_once = [] {
    par::HartPool pool({.harts = 3, .shard_size = 512,
                        .machine = {.vlen_bits = 256}});
    auto data = random_u32(5000, 9);
    par::plus_scan_exclusive<T>(pool, std::span<T>(data));
    return pool.merged_counts().total();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ParCounts, ResetCountsZeroesEveryHart) {
  par::HartPool pool({.harts = 2, .shard_size = 256});
  auto data = random_u32(2000, 1);
  par::plus_scan<T>(pool, std::span<T>(data));
  EXPECT_GT(pool.merged_counts().total(), 0u);
  pool.reset_counts();
  EXPECT_EQ(pool.merged_counts().total(), 0u);
  for (const auto& snap : pool.per_hart_counts()) EXPECT_EQ(snap.total(), 0u);
}

}  // namespace
