// Golden dynamic-instruction-count regression test.
//
// The buffer-pool refactor (and any future host-side optimisation of the
// emulator) must not change what the emulator *models*: the dynamic
// instruction counts and the spill/reload traffic of every kernel are the
// paper's reported quantities, so they are pinned here to the exact values
// the seed emulator produced.  A host-speed change that shifts any of these
// numbers is a modeling change and must be called out, not slipped in.
//
// Workloads are fully deterministic: fixed sizes, fixed mt19937 seeds, the
// same element distributions the bench harness uses.  Every kernel call pins
// an explicit LMUL: the default is now the autotuner, whose choice is a
// policy (covered by test_autotune / the tune fuzz layer), not a modeling
// constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
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

std::vector<T> random_head_flags(std::size_t n, std::size_t avg_len,
                                 std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution head(1.0 / static_cast<double>(avg_len));
  std::vector<T> flags(n, 0);
  if (n > 0) flags[0] = 1;
  for (std::size_t i = 1; i < n; ++i) flags[i] = head(rng) ? 1u : 0u;
  return flags;
}

struct Golden {
  unsigned vlen;
  std::uint64_t total;
  std::uint64_t spills;
  std::uint64_t reloads;
};

/// Runs `kernel` on a fresh pressure-modeling machine and checks the total
/// dynamic instruction count and the spill/reload traffic against `golden`.
template <class Kernel>
void expect_counts(const Golden& golden, Kernel kernel) {
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = golden.vlen});
  rvv::MachineScope scope(machine);
  kernel();
  const auto snap = machine.counter().snapshot();
  EXPECT_EQ(snap.total(), golden.total) << "VLEN=" << golden.vlen;
  EXPECT_EQ(snap.count(sim::InstClass::kVectorSpill), golden.spills)
      << "VLEN=" << golden.vlen;
  EXPECT_EQ(snap.count(sim::InstClass::kVectorReload), golden.reloads)
      << "VLEN=" << golden.vlen;
}

constexpr std::size_t kN = 10000;

TEST(CountsStability, PlusScanLmul1) {
  // {vlen, total, spills, reloads} — captured from the seed emulator.
  for (const auto& golden : {Golden{128, 52501, 0, 0}, Golden{1024, 11264, 0, 0}}) {
    expect_counts(golden, [] {
      auto data = random_u32(kN, 3);
      svm::plus_scan<T, 1>(std::span<T>(data));
    });
  }
}

TEST(CountsStability, PlusScanLmul8) {
  for (const auto& golden : {Golden{128, 11264, 0, 0}, Golden{1024, 2021, 0, 0}}) {
    expect_counts(golden, [] {
      auto data = random_u32(kN, 3);
      svm::plus_scan<T, 8>(std::span<T>(data));
    });
  }
}

TEST(CountsStability, SegPlusScanLmul8) {
  // Segmented scan at LMUL=8 is the configuration that exercises the
  // register-pressure model (paper Table 5): spills/reloads must be pinned
  // too, not just retired-instruction totals.
  for (const auto& golden : {Golden{128, 83522, 37536, 25024}, Golden{1024, 16481, 7584, 5056}}) {
    expect_counts(golden, [] {
      auto data = random_u32(kN, 3);
      const auto flags = random_head_flags(kN, 100, 4);
      svm::seg_plus_scan<T, 8>(std::span<T>(data), std::span<const T>(flags));
    });
  }
}

TEST(CountsStability, RadixSortLmul1) {
  for (const auto& golden : {Golden{128, 5840320, 0, 0}, Golden{1024, 731488, 0, 0}}) {
    expect_counts(golden, [] {
      auto data = random_u32(kN, 7);
      apps::split_radix_sort<T>(std::span<T>(data));
    });
  }
}

/// The sharded engine's determinism invariant: for a fixed shard size the
/// merged dynamic instruction count of a two-level collective is a golden
/// constant — identical for 1, 2, 4 and 8 harts, stable across PRs, and
/// bit-for-bit equal per class.  A change in these numbers is a modeling
/// change in the sharded engine (or a shard-to-hart leak of work) and must
/// be called out.
TEST(CountsStability, ParScanMergedCountsHartInvariant) {
  struct ParGolden {
    unsigned vlen;
    std::uint64_t total;
  };
  // {vlen, merged total} for n = 10000, shard_size = 2048 — captured from
  // the engine at introduction (PR 2).
  for (const auto& golden : {ParGolden{128, 75062}, ParGolden{1024, 14134}}) {
    std::uint64_t previous = 0;
    for (const unsigned harts : {1u, 2u, 4u, 8u}) {
      par::HartPool pool({.harts = harts, .shard_size = 2048,
                          .machine = {.vlen_bits = golden.vlen}});
      auto data = random_u32(kN, 3);
      par::plus_scan<T, 1>(pool, std::span<T>(data));
      const auto merged = pool.merged_counts();
      if (golden.total != 0) {
        EXPECT_EQ(merged.total(), golden.total)
            << "VLEN=" << golden.vlen << " harts=" << harts;
      }
      if (previous != 0) {
        EXPECT_EQ(merged.total(), previous);
      }
      previous = merged.total();
    }
  }
}

/// Same invariant for the sharded split: the cross-shard histogram combine
/// must not smuggle hart-count-dependent work into the model.
TEST(CountsStability, ParSplitMergedCountsHartInvariant) {
  std::uint64_t previous = 0;
  for (const unsigned harts : {1u, 2u, 4u, 8u}) {
    par::HartPool pool({.harts = harts, .shard_size = 2048,
                        .machine = {.vlen_bits = 1024}});
    const auto src = random_u32(kN, 7);
    const auto flags = random_head_flags(kN, 2, 9);
    std::vector<T> dst(kN);
    static_cast<void>(par::split<T, 1>(pool, std::span<const T>(src),
                                       std::span<T>(dst),
                                       std::span<const T>(flags)));
    const auto merged = pool.merged_counts();
    // n = 10000, shard_size = 2048, VLEN = 1024 — captured at introduction.
    EXPECT_EQ(merged.total(), 22355u) << "harts=" << harts;
    if (previous != 0) {
      EXPECT_EQ(merged.total(), previous);
    }
    previous = merged.total();
  }
}

/// Bit-identical output: the two-level scan is the same function as the
/// single-hart kernel, not an approximation of it.
TEST(CountsStability, ParScanOutputBitIdenticalToSingleHart) {
  auto par_data = random_u32(kN, 3);
  auto svm_data = par_data;
  par::HartPool pool({.harts = 4, .shard_size = 1024,
                      .machine = {.vlen_bits = 1024}});
  par::plus_scan<T>(pool, std::span<T>(par_data));
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  svm::plus_scan<T>(std::span<T>(svm_data));
  EXPECT_EQ(par_data, svm_data);
}

/// The same kernel with the pressure model off must also be stable — this
/// pins the pure instruction-count ablation path.
TEST(CountsStability, PlusScanNoPressureModel) {
  rvv::Machine machine(
      rvv::Machine::Config{.vlen_bits = 1024, .model_register_pressure = false});
  rvv::MachineScope scope(machine);
  auto data = random_u32(kN, 3);
  svm::plus_scan<T, 1>(std::span<T>(data));
  EXPECT_EQ(machine.counter().snapshot().total(), 11264u);
}

}  // namespace
