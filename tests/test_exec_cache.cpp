// The two-level execution cache (rvv/decode.hpp): directed tests for the
// decoded-op dispatch table, the fused-trace lifecycle, invalidation,
// per-hart isolation in the HartPool, and the chaos interaction where a
// trapped instruction mid-trace must roll back bulk charges exactly.
//
// The trace fuzz layer (src/check/properties_trace.cpp) covers the same
// contracts over random shapes; these tests pin each mechanism one at a
// time with exact stats assertions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "check/fault_injection.hpp"
#include "par/par.hpp"
#include "rvv/rvv.hpp"
#include "svm/detail.hpp"
#include "svm/svm.hpp"
#include "test_util.hpp"

namespace rvvsvm {
namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

std::vector<u32> iota_data(std::size_t n) {
  std::vector<u32> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

void expect_same_counts(const sim::CountSnapshot& got,
                        const sim::CountSnapshot& want, const char* what) {
  for (std::size_t k = 0; k < sim::kNumInstClasses; ++k) {
    const auto cls = static_cast<sim::InstClass>(k);
    EXPECT_EQ(got.count(cls), want.count(cls))
        << what << ": " << sim::to_string(cls) << " drifted";
  }
}

// --- level 1: decoded-op dispatch cache ------------------------------------

TEST(ExecCache, DecodedKeysSeparateSewAndLmul) {
  rvv::Machine m({.vlen_bits = 256});
  rvv::MachineScope scope(m);
  std::vector<u32> a32(64, 1);
  std::vector<u64> a64(64, 1);

  svm::p_add<u32, 1>(std::span<u32>(a32), u32{1});
  const std::size_t after_u32l1 = m.exec_cache().decoded_op_count();
  EXPECT_GT(after_u32l1, 0u);

  // Same ops at a different LMUL and a different SEW must occupy distinct
  // decoded entries — the key is (op, class, SEW, LMUL, masked).
  svm::p_add<u32, 2>(std::span<u32>(a32), u32{1});
  const std::size_t after_u32l2 = m.exec_cache().decoded_op_count();
  EXPECT_GT(after_u32l2, after_u32l1);

  svm::p_add<u64, 1>(std::span<u64>(a64), u64{1});
  EXPECT_GT(m.exec_cache().decoded_op_count(), after_u32l2);

  // Re-running an already-decoded shape adds no entries, only hits.
  const std::size_t stable = m.exec_cache().decoded_op_count();
  const std::uint64_t hits_before = m.exec_cache().stats().decode_hits;
  svm::p_add<u32, 1>(std::span<u32>(a32), u32{1});
  EXPECT_EQ(m.exec_cache().decoded_op_count(), stable);
  EXPECT_GE(m.exec_cache().stats().decode_hits, hits_before);
}

TEST(ExecCache, VlenChangesVlmaxInDecodedOps) {
  // The cache is per machine, so VLEN is implicit in the key — but the
  // decoded VLMAX must reflect each machine's configuration.
  for (const unsigned vlen : {128u, 1024u}) {
    rvv::Machine m({.vlen_bits = vlen});
    rvv::MachineScope scope(m);
    std::vector<u32> a = iota_data(64);
    svm::plus_scan<u32, 1>(std::span<u32>(a));
    std::vector<u32> want = iota_data(64);
    std::partial_sum(want.begin(), want.end(), want.begin());
    EXPECT_EQ(a, want) << "VLEN " << vlen;
    EXPECT_GT(m.exec_cache().decoded_op_count(), 0u) << "VLEN " << vlen;
  }
}

// --- level 2: trace lifecycle ----------------------------------------------

TEST(ExecCache, TraceRecordsVerifiesThenReplays) {
  rvv::Machine m({.vlen_bits = 1024});
  rvv::MachineScope scope(m);
  // VLMAX(u32, LMUL=1, VLEN=1024) = 32; four full blocks: iteration 1
  // records, iteration 2 verifies and promotes, iterations 3-4 replay.
  std::vector<u32> a(128, 2);
  svm::p_add<u32, 1>(std::span<u32>(a), u32{3});
  const auto& st = m.exec_cache().stats();
  EXPECT_EQ(st.trace_records, 1u);
  EXPECT_EQ(st.trace_promotions, 1u);
  EXPECT_EQ(st.trace_replays, 2u);
  EXPECT_GT(st.ops_replayed, 0u);
  EXPECT_EQ(st.trace_poisons, 0u);
  EXPECT_EQ(m.exec_cache().trace_count(), 1u);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(), [](u32 v) { return v == 5; }));

  // A second call reuses the stable trace immediately: replays for every
  // full block, no new recordings.
  svm::p_add<u32, 1>(std::span<u32>(a), u32{3});
  EXPECT_EQ(st.trace_records, 1u);
  EXPECT_EQ(st.trace_replays, 6u);
}

TEST(ExecCache, CountsIdenticalCacheOnAndOff) {
  const auto run = [](bool cache) {
    rvv::Machine m({.vlen_bits = 512, .use_exec_cache = cache});
    rvv::MachineScope scope(m);
    std::vector<u32> a = iota_data(777);
    std::vector<u32> flags(777, 0);
    for (std::size_t i = 0; i < flags.size(); i += 100) flags[i] = 1;
    for (int pass = 0; pass < 3; ++pass) {
      svm::plus_scan<u32, 2>(std::span<u32>(a));
      svm::seg_plus_scan<u32, 4>(std::span<u32>(a),
                                 std::span<const u32>(flags));
      svm::p_add<u32, 1>(std::span<u32>(a), u32{9});
    }
    return std::pair{a, m.counter().snapshot()};
  };
  const auto [data_on, counts_on] = run(true);
  const auto [data_off, counts_off] = run(false);
  EXPECT_EQ(data_on, data_off);
  expect_same_counts(counts_on, counts_off, "cache on vs off");
}

// --- invalidation ----------------------------------------------------------

TEST(ExecCache, InvalidationDropsBothLevelsAndRebuilds) {
  rvv::Machine m({.vlen_bits = 256});
  rvv::MachineScope scope(m);
  std::vector<u32> a = iota_data(300);
  svm::plus_scan<u32, 1>(std::span<u32>(a));
  ASSERT_GT(m.exec_cache().decoded_op_count(), 0u);
  ASSERT_GT(m.exec_cache().trace_count(), 0u);

  m.invalidate_exec_caches();
  EXPECT_EQ(m.exec_cache().decoded_op_count(), 0u);
  EXPECT_EQ(m.exec_cache().trace_count(), 0u);
  EXPECT_EQ(m.exec_cache().stats().invalidations, 1u);

  // The next run re-records and must still be exact: compare data + counts
  // against a machine that never cached.
  rvv::Machine plain({.vlen_bits = 256, .use_exec_cache = false});
  std::vector<u32> b = iota_data(300);
  svm::plus_scan<u32, 1>(std::span<u32>(a));
  {
    rvv::MachineScope inner(plain);
    svm::plus_scan<u32, 1>(std::span<u32>(b));
    svm::plus_scan<u32, 1>(std::span<u32>(b));  // match a's two passes
  }
  EXPECT_GT(m.exec_cache().trace_count(), 0u);
  EXPECT_EQ(a, b);
}

TEST(ExecCache, VsetvlMemoStillRejectsIllegalLmul) {
  // The memoized vsetvl fast path must not swallow validation: an illegal
  // LMUL traps even right after a legal configuration warmed the memo.
  rvv::Machine m({.vlen_bits = 256});
  rvv::MachineScope scope(m);
  EXPECT_EQ(m.vsetvl<u32>(100, 1), 8u);
  EXPECT_THROW((void)m.vsetvl<u32>(100, 3), IllegalConfigTrap);
  EXPECT_THROW((void)m.vsetvl<u32>(100, 5), IllegalConfigTrap);
  // And the memo recovers: legal configs on both sides still work.
  EXPECT_EQ(m.vsetvl<u32>(100, 2), 16u);
  EXPECT_EQ(m.vsetvl<u32>(100, 1), 8u);
  // Each successful vsetvl retires one config instruction, memoized or not.
  const auto snap = m.counter().snapshot();
  EXPECT_EQ(m.vsetvl<u32>(50, 1), 8u);
  EXPECT_EQ(m.vsetvl<u32>(50, 1), 8u);
  EXPECT_EQ((m.counter().snapshot() - snap).count(sim::InstClass::kVectorConfig),
            2u);
}

// --- per-hart isolation ----------------------------------------------------

TEST(ExecCache, HartPoolMachinesHaveIsolatedCaches) {
  par::HartPool pool({.harts = 2, .shard_size = 64,
                      .machine = {.vlen_bits = 256}});
  ASSERT_NE(&pool.machine(0).exec_cache(), &pool.machine(1).exec_cache());

  std::vector<u32> buf = iota_data(2000);
  par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
  std::vector<u32> want = iota_data(2000);
  std::partial_sum(want.begin(), want.end(), want.begin());
  EXPECT_EQ(buf, want);

  // Both harts processed shards, each through its own cache.
  EXPECT_GT(pool.machine(0).exec_cache().decoded_op_count(), 0u);
  EXPECT_GT(pool.machine(1).exec_cache().decoded_op_count(), 0u);

  // Invalidating one hart's cache must not disturb the other, and the next
  // collective still computes the exact result.
  const std::size_t hart1_traces = pool.machine(1).exec_cache().trace_count();
  pool.machine(0).invalidate_exec_caches();
  EXPECT_EQ(pool.machine(0).exec_cache().trace_count(), 0u);
  EXPECT_EQ(pool.machine(1).exec_cache().trace_count(), hart1_traces);

  buf = iota_data(2000);
  par::plus_scan<u32, 1>(pool, std::span<u32>(buf));
  EXPECT_EQ(buf, want);
}

// --- chaos interaction -----------------------------------------------------

/// d[i] = src[i] + 1 through an explicit strip-mine whose store span can be
/// truncated, so the final block's vse traps after that block's load and
/// add already retired — mid-trace once the loop's traces are stable.
void add_one_kernel(std::span<const u32> src, u32* out, std::size_t out_len) {
  svm::detail::stripmine<u32, 1>(src.size(), 2,
                                 [&](std::size_t pos, std::size_t vl) {
                                   auto x = rvv::vle<u32, 1>(src.subspan(pos), vl);
                                   x = rvv::vadd(x, u32{1}, vl);
                                   const std::size_t avail =
                                       pos < out_len
                                           ? std::min(out_len - pos, vl)
                                           : 0;
                                   rvv::vse(std::span<u32>(out + pos, avail), x,
                                            vl);
                                 });
}

TEST(ExecCache, TrapMidReplayChargesExactPrefix) {
  constexpr std::size_t kN = 200;  // VLMAX 32 at VLEN=1024: 6 full + 8 tail
  const std::vector<u32> src = iota_data(kN);
  const auto run = [&](bool cache) {
    rvv::Machine m({.vlen_bits = 1024, .use_exec_cache = cache});
    rvv::MachineScope scope(m);
    std::vector<u32> out(kN, 0);
    // Warm through record + verify so the truncated pass replays.
    add_one_kernel(std::span<const u32>(src), out.data(), kN);
    add_one_kernel(std::span<const u32>(src), out.data(), kN);
    std::fill(out.begin(), out.end(), 0u);
    std::uint64_t trap_inst = 0;
    bool trapped = false;
    try {
      add_one_kernel(std::span<const u32>(src), out.data(), kN - 1);
    } catch (const MemoryAccessTrap& e) {
      trapped = true;
      trap_inst = e.context().inst_number;
    }
    EXPECT_TRUE(trapped);
    // Recovery after the unwound iteration: the full kernel still runs.
    add_one_kernel(std::span<const u32>(src), out.data(), kN);
    if (cache) {
      const auto& st = m.exec_cache().stats();
      EXPECT_GT(st.trace_replays, 0u);
      // The trap was the data's fault, not the trace's: nothing poisoned,
      // and the stable trace kept replaying after the trap.
      EXPECT_EQ(st.trace_poisons, 0u);
      EXPECT_EQ(st.trace_aborts, 0u);
    }
    return std::tuple{out, m.counter().snapshot(), trap_inst};
  };
  const auto [data_cached, counts_cached, inst_cached] = run(true);
  const auto [data_plain, counts_plain, inst_plain] = run(false);
  EXPECT_EQ(data_cached, data_plain);
  expect_same_counts(counts_cached, counts_plain, "trap mid-replay");
  // The trap context counts the replayed load and add the iteration had
  // consumed but not yet charged, as the interpreter had retired them.
  EXPECT_EQ(inst_cached, inst_plain);
}

// --- fused bodies ----------------------------------------------------------

/// Runs `kernel` three times — record and verify every shape, tail included —
/// and returns how many strip-mine iterations the third call replayed and
/// how many of those ran the fused body.  Nothing may record, abort or
/// poison in the steady state.
template <class Kernel>
std::pair<u64, u64> steady_state_replays(rvv::Machine& m, Kernel kernel) {
  kernel();
  kernel();
  const rvv::ExecCacheStats before = m.exec_cache().stats();
  kernel();
  const rvv::ExecCacheStats& after = m.exec_cache().stats();
  EXPECT_EQ(after.trace_records, before.trace_records);
  EXPECT_EQ(after.trace_aborts, 0u);
  EXPECT_EQ(after.trace_poisons, 0u);
  return {after.trace_replays - before.trace_replays,
          after.trace_fused - before.trace_fused};
}

/// Keep flags whose 4-element blocks keep 1, 2, 3, 1, 2, 3, ... elements, so
/// neighbouring blocks always pack a different count at VLMAX 4 — and at
/// VLMAX 32 too (blocks keep 15, 16, 17, ...).  Verification ignores each
/// op's vl, so the trace of a full block still promotes at the call's
/// second block.
std::vector<u32> alternating_keep_flags(std::size_t n) {
  std::vector<u32> keep(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i % 12;
    keep[i] = static_cast<u32>(r % 4 <= r / 4);
  }
  return keep;
}

/// Segments `head_flags` describes (element 0 always starts one).
std::size_t segment_count(const std::vector<u32>& head_flags) {
  const auto heads = std::count_if(head_flags.begin(), head_flags.end(),
                                   [](u32 f) { return f != 0; });
  return static_cast<std::size_t>(heads) + (head_flags[0] == 0 ? 1 : 0);
}

TEST(ExecCache, RadixSortAndSegScanKernelsRunFused) {
  // VLEN 128, u32: VLMAX 4 at LMUL 1 and 32 at LMUL 8.  n = 1001 leaves a
  // one-element tail, so every call runs two shapes.
  constexpr std::size_t kN = 1001;
  rvv::Machine m({.vlen_bits = 128});
  rvv::MachineScope scope(m);
  std::vector<u32> src = iota_data(kN);
  std::vector<u32> flags(kN);
  std::vector<u32> dst(kN);
  std::vector<u32> index(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    flags[i] = static_cast<u32>(i % 3 == 0);
    index[i] = static_cast<u32>(kN - 1 - i);
  }
  const std::vector<u32> keep = alternating_keep_flags(kN);
  std::vector<u32> totals;
  const auto expect_all_fused = [&](const char* what, std::size_t iterations,
                                    auto kernel) {
    const auto [replays, fused] = steady_state_replays(m, kernel);
    EXPECT_EQ(replays, iterations) << what;
    EXPECT_EQ(fused, iterations) << what << " fell back to per-op replay";
  };
  expect_all_fused("get_flags", 251, [&] {
    svm::get_flags<u32, 1>(std::span<const u32>(src), std::span<u32>(flags), 2);
  });
  expect_all_fused("enumerate", 251, [&] {
    (void)svm::enumerate<u32, 1>(std::span<const u32>(flags), std::span<u32>(dst),
                                 true);
  });
  expect_all_fused("permute", 251, [&] {
    svm::permute<u32, 1>(std::span<const u32>(src), std::span<u32>(dst),
                         std::span<const u32>(index));
  });
  expect_all_fused("seg_plus_scan m8", 32, [&] {
    svm::seg_plus_scan<u32, 8>(std::span<u32>(src), std::span<const u32>(flags));
  });
  expect_all_fused("pack", 251, [&] {
    EXPECT_EQ((svm::pack<u32, 1>(std::span<const u32>(src), std::span<u32>(dst),
                                 std::span<const u32>(keep))),
              static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1u)));
  });
  expect_all_fused("seg_scan_exclusive", 251, [&] {
    svm::seg_scan_exclusive<svm::PlusOp, u32, 1>(std::span<u32>(src),
                                                std::span<const u32>(flags));
  });
  // Three loops: the segmented scan, the tails pass and the pack, whose
  // destination holds exactly one total per segment.
  expect_all_fused("seg_reduce", 3 * 251, [&] {
    totals.assign(segment_count(flags), 0);  // get_flags rewrote the flags
    EXPECT_EQ((svm::seg_reduce<svm::PlusOp, u32, 1>(
                  std::span<const u32>(src), std::span<const u32>(flags),
                  std::span<u32>(totals))),
              totals.size());
  });
}

TEST(ExecCache, PermuteGuardTrapsLikeTheInterpreter) {
  // VLEN 128, u32, LMUL 1: VLMAX 4.  One index is planted out of range after
  // the trace went stable: the guard must send that block to the
  // interpreter, where vsuxei traps.  Block 0 replays fused and blocks 1 on
  // form one steady-state run, which fuses the blocks before the bad one.
  // 64 elements (bad index in block 9, element 1), then 4,098: a run of
  // 1,023 blocks with the bad index in its first, a middle and its last
  // block, and in the tail.
  for (const auto& [n, bad_pos] : {std::pair<std::size_t, std::size_t>{64, 37},
                                 {4098, 4}, {4098, 2049}, {4098, 4095},
                                 {4098, 4097}}) {
    SCOPED_TRACE(testing::Message() << "n " << n << ", bad index at " << bad_pos);
    const std::vector<u32> src = iota_data(n);
    std::vector<u32> index(n);
    for (std::size_t i = 0; i < n; ++i) index[i] = static_cast<u32>((i * 5) % n);
    struct Result {
      std::size_t element = 0;
      std::uint64_t inst = 0;
      std::vector<u32> dst;
      sim::CountSnapshot counts;
    };
    const auto run = [&](rvv::Machine& m) {
      rvv::MachineScope scope(m);
      Result r;
      r.dst.assign(n, 0xA5A5A5A5u);
      const auto permute = [&](std::span<const u32> idx) {
        svm::permute<u32, 1>(std::span<const u32>(src), std::span<u32>(r.dst), idx);
      };
      permute(index);  // record, verify, then fused
      permute(index);
      std::fill(r.dst.begin(), r.dst.end(), 0xA5A5A5A5u);
      std::vector<u32> bad = index;
      bad[bad_pos] = static_cast<u32>(n);
      bool trapped = false;
      try {
        permute(bad);
      } catch (const MemoryAccessTrap& e) {
        trapped = true;
        r.element = e.element();
        r.inst = e.context().inst_number;
      }
      EXPECT_TRUE(trapped);
      r.counts = m.counter().snapshot();
      return r;
    };
    rvv::Machine cached({.vlen_bits = 128});
    rvv::Machine plain({.vlen_bits = 128, .use_exec_cache = false});
    const Result got = run(cached);
    const Result want = run(plain);
    EXPECT_EQ(got.element, bad_pos % 4);
    EXPECT_EQ(got.element, want.element);
    EXPECT_EQ(got.inst, want.inst);
    EXPECT_EQ(got.dst, want.dst);  // the blocks before the bad one scattered
    expect_same_counts(got.counts, want.counts, "permute guard trap");

    // The trap was the data's fault: the trace stays stable, and clean calls
    // afterwards replay every block fused again.
    const rvv::ExecCacheStats& st = cached.exec_cache().stats();
    EXPECT_EQ(st.trace_poisons, 0u);
    EXPECT_EQ(st.trace_aborts, 0u);
    const rvv::ExecCacheStats before = st;
    {
      rvv::MachineScope scope(cached);
      std::vector<u32> dst(n);
      svm::permute<u32, 1>(std::span<const u32>(src), std::span<u32>(dst),
                           std::span<const u32>(index));
    }
    EXPECT_EQ(st.trace_replays - before.trace_replays, (n + 3) / 4);
    EXPECT_EQ(st.trace_fused - before.trace_fused, (n + 3) / 4);
    EXPECT_EQ(st.trace_fused, st.trace_replays);  // no per-op replay completed
  }
}

TEST(ExecCache, PackCapacityTrapsLikeTheInterpreter) {
  // VLEN 128, u32, LMUL 1: 16 blocks keeping 1, 2, 3, 1, ... elements (31 in
  // all), so every block stores a different count than its neighbours.
  // After warm-up a call whose dst is one element short must trap exactly
  // as the interpreter does — at block 15, with blocks 0-14 packed — and
  // leave the stable trace stable: a per-op replay of a block would diverge
  // at its store and poison the trace.
  constexpr std::size_t kN = 64;
  const std::vector<u32> src = iota_data(kN);
  const std::vector<u32> keep = alternating_keep_flags(kN);
  const auto kept = static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1u));
  ASSERT_EQ(kept, 31u);
  struct Result {
    std::uint64_t inst = 0;
    std::vector<u32> dst;
    sim::CountSnapshot counts;
  };
  const auto run = [&](rvv::Machine& m) {
    rvv::MachineScope scope(m);
    Result r;
    r.dst.assign(kept, 0xA5A5A5A5u);
    const auto pack = [&](std::size_t dst_len) {
      return svm::pack<u32, 1>(std::span<const u32>(src),
                               std::span<u32>(r.dst).first(dst_len),
                               std::span<const u32>(keep));
    };
    EXPECT_EQ(pack(kept), kept);  // record, verify, then fused
    EXPECT_EQ(pack(kept), kept);
    std::fill(r.dst.begin(), r.dst.end(), 0xA5A5A5A5u);
    bool trapped = false;
    try {
      static_cast<void>(pack(kept - 1));
    } catch (const OperandTrap& e) {
      trapped = true;
      r.inst = e.context().inst_number;
    }
    EXPECT_TRUE(trapped);
    r.counts = m.counter().snapshot();
    return r;
  };
  rvv::Machine cached({.vlen_bits = 128});
  rvv::Machine plain({.vlen_bits = 128, .use_exec_cache = false});
  const Result got = run(cached);
  const Result want = run(plain);
  EXPECT_EQ(got.inst, want.inst);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.dst[kept - 2], src[kN - 6]);  // block 14's last kept element
  expect_same_counts(got.counts, want.counts, "pack capacity trap");
  EXPECT_EQ(cached.regfile()->spill_count(), plain.regfile()->spill_count());
  EXPECT_EQ(cached.regfile()->reload_count(), plain.regfile()->reload_count());

  const rvv::ExecCacheStats& st = cached.exec_cache().stats();
  EXPECT_EQ(st.trace_poisons, 0u);
  EXPECT_EQ(st.trace_aborts, 0u);
  const rvv::ExecCacheStats before = st;
  {
    rvv::MachineScope scope(cached);
    std::vector<u32> dst(kept);
    EXPECT_EQ((svm::pack<u32, 1>(std::span<const u32>(src), std::span<u32>(dst),
                                 std::span<const u32>(keep))),
              kept);
  }
  EXPECT_EQ(st.trace_replays - before.trace_replays, kN / 4);
  EXPECT_EQ(st.trace_fused - before.trace_fused, kN / 4);
  EXPECT_EQ(st.trace_records, before.trace_records);
}

TEST(ExecCache, PackPromotesWhateverCountItsBlocksStore) {
  // VLEN 128, u32, LMUL 1: 251 full blocks keeping 1, 2, 3, 1, ... elements,
  // so no two neighbouring blocks store the same count, nor does a call's
  // last block and the next call's first.  Verification compares each op's
  // class, counts and register-file events but not its vl, so the trace
  // promotes at block 1 of the first call and every block after that runs
  // fused; data and counts stay the interpreter's.
  constexpr std::size_t kBlocks = 251;
  constexpr std::size_t kN = 4 * kBlocks;
  constexpr std::size_t kCalls = 10;
  const std::vector<u32> src = iota_data(kN);
  const std::vector<u32> keep = alternating_keep_flags(kN);
  rvv::Machine cached({.vlen_bits = 128});
  rvv::Machine plain({.vlen_bits = 128, .use_exec_cache = false});
  std::vector<u32> got, want;
  for (rvv::Machine* m : {&cached, &plain}) {
    rvv::MachineScope scope(*m);
    std::vector<u32>& log = m == &cached ? got : want;
    for (std::size_t call = 0; call < kCalls; ++call) {
      std::vector<u32> dst(kN, 0xA5A5A5A5u);
      log.push_back(static_cast<u32>(svm::pack<u32, 1>(
          std::span<const u32>(src), std::span<u32>(dst), std::span<const u32>(keep))));
      log.insert(log.end(), dst.begin(), dst.end());
    }
  }
  EXPECT_EQ(got, want);
  expect_same_counts(cached.counter().snapshot(), plain.counter().snapshot(),
                     "pack with varying block counts");
  EXPECT_EQ(cached.regfile()->spill_count(), plain.regfile()->spill_count());
  EXPECT_EQ(cached.regfile()->reload_count(), plain.regfile()->reload_count());
  const rvv::ExecCacheStats& st = cached.exec_cache().stats();
  EXPECT_EQ(st.trace_records, 1u);
  EXPECT_EQ(st.trace_promotions, 1u);
  EXPECT_EQ(st.trace_fused, kCalls * kBlocks - 2);
  EXPECT_EQ(st.trace_replays, st.trace_fused);
  EXPECT_EQ(st.trace_poisons, 0u);
}

TEST(ExecCache, InPlacePackRunsInterpreted) {
  // A pack whose dst is src itself, or src shifted by one element: the
  // emulated block loads its elements before its store commits, which the
  // fused compress would not, so the guard keeps both calls interpreted.
  constexpr std::size_t kN = 64;
  const std::vector<u32> keep = alternating_keep_flags(kN + 1);
  for (const std::size_t shift : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "dst = src + " << shift);
    const auto run = [&](bool cache) {
      rvv::Machine m({.vlen_bits = 128, .use_exec_cache = cache});
      rvv::MachineScope scope(m);
      std::vector<u32> a = iota_data(kN + 1);
      std::vector<u32> kept_counts;
      for (int pass = 0; pass < 3; ++pass) {
        kept_counts.push_back(static_cast<u32>(svm::pack<u32, 1>(
            std::span<const u32>(a).first(kN),
            std::span<u32>(a).subspan(shift, kN), std::span<const u32>(keep))));
      }
      if (cache) {
        EXPECT_EQ(m.exec_cache().stats().trace_fused, 0u);
      }
      a.insert(a.end(), kept_counts.begin(), kept_counts.end());
      return std::pair{a, m.counter().snapshot()};
    };
    const auto [data_cached, counts_cached] = run(true);
    const auto [data_plain, counts_plain] = run(false);
    EXPECT_EQ(data_cached, data_plain);
    expect_same_counts(counts_cached, counts_plain, "in-place pack");
  }
}

TEST(ExecCache, InPlacePermuteRunsInterpreted) {
  // The paper's permutes are out of place, but nothing stops a caller from
  // passing dst == src.  Swapping neighbours in place: the emulated block
  // loads both elements before its scatter stores either, which a fused
  // scatter would not, so the guard keeps the call interpreted.
  constexpr std::size_t kN = 64;
  std::vector<u32> index(kN);
  for (std::size_t i = 0; i < kN; ++i) index[i] = static_cast<u32>(i ^ 1u);
  const auto run = [&](bool cache) {
    rvv::Machine m({.vlen_bits = 128, .use_exec_cache = cache});
    rvv::MachineScope scope(m);
    std::vector<u32> a = iota_data(kN);
    for (int pass = 0; pass < 3; ++pass) {
      svm::permute<u32, 1>(std::span<const u32>(a), std::span<u32>(a),
                           std::span<const u32>(index));
    }
    if (cache) {
      EXPECT_EQ(m.exec_cache().stats().trace_fused, 0u);
    }
    return std::pair{a, m.counter().snapshot()};
  };
  const auto [data_cached, counts_cached] = run(true);
  const auto [data_plain, counts_plain] = run(false);
  EXPECT_EQ(data_cached, data_plain);
  expect_same_counts(counts_cached, counts_plain, "in-place permute");
}

TEST(ExecCache, PartlyOverlappingOperandsRunInterpreted) {
  // Each kernel writes a span `shift` elements away from a span it reads,
  // inside one array.  An emulated block loads all its operands before its
  // store commits; a fused loop over a whole run would read elements it had
  // already overwritten, so a partial overlap must interpret every block,
  // while the same span written and read (shift 0) still fuses.  VLEN 128,
  // u32, LMUL 1, n = 64: calls 1 and 2 record and verify, call 3 replays.
  constexpr std::size_t kN = 64;
  using W = std::span<u32>;
  using R = std::span<const u32>;
  using Kernel = void (*)(W written, R read, R other);
  const std::pair<const char*, Kernel> kernels[] = {
      {"p_add", [](W w, R r, R) { svm::p_add<u32, 1>(w, r); }},
      {"p_max", [](W w, R r, R) { svm::p_max<u32, 1>(w, r); }},
      {"p_copy", [](W w, R r, R) { svm::p_copy<u32, 1>(r, w); }},
      {"get_flags", [](W w, R r, R) { svm::get_flags<u32, 1>(r, w, 0); }},
      {"p_select", [](W w, R r, R o) { svm::p_select<u32, 1>(o, r, w); }},
      {"p_flag_lt", [](W w, R r, R o) { svm::p_flag_lt<u32, 1>(r, o, w); }},
      {"p_flag_eq vx", [](W w, R r, R) { svm::p_flag_eq<u32, 1>(r, u32{1}, w); }},
      {"enumerate",
       [](W w, R r, R) { static_cast<void>(svm::enumerate<u32, 1>(r, w, true)); }},
      {"seg_plus_scan", [](W w, R r, R) { svm::seg_plus_scan<u32, 1>(w, r); }},
      {"seg_scan_exclusive",
       [](W w, R r, R) { svm::seg_scan_exclusive<svm::PlusOp, u32, 1>(w, r); }},
  };
  std::vector<u32> init(kN + 1);
  std::vector<u32> other(kN);
  for (std::size_t i = 0; i < kN + 1; ++i) init[i] = static_cast<u32>(i % 3 != 1);
  for (std::size_t i = 0; i < kN; ++i) other[i] = static_cast<u32>(i % 5 == 0);
  for (const auto& [name, kernel] : kernels) {
    for (const int shift : {-1, 0, 1}) {
      SCOPED_TRACE(testing::Message() << name << ", written span at read + " << shift);
      const auto w0 = static_cast<std::size_t>(shift > 0);
      const auto r0 = static_cast<std::size_t>(shift < 0);
      const auto run = [&](bool cache) {
        rvv::Machine m({.vlen_bits = 128, .use_exec_cache = cache});
        rvv::MachineScope scope(m);
        std::vector<u32> log;
        for (int call = 0; call < 3; ++call) {
          std::vector<u32> a = init;
          kernel(W(a).subspan(w0, kN), R(a).subspan(r0, kN), R(other));
          log.insert(log.end(), a.begin(), a.end());
        }
        if (cache) {
          const u64 fused = m.exec_cache().stats().trace_fused;
          if (shift == 0) {
            EXPECT_GT(fused, 0u);
          } else {
            EXPECT_EQ(fused, 0u);
          }
        }
        return std::pair{log, m.counter().snapshot()};
      };
      const auto [data_cached, counts_cached] = run(true);
      const auto [data_plain, counts_plain] = run(false);
      EXPECT_EQ(data_cached, data_plain);
      expect_same_counts(counts_cached, counts_plain, name);
    }
  }
}

// --- steady-state runs -----------------------------------------------------

/// Seeded operands for the run tests.  Every kernel call reads only these
/// and overwrites its whole result, so repeated calls see the same input.
struct RunInputs {
  std::vector<u32> src, other, flags, keep, index;
};

RunInputs run_inputs(std::size_t n) {
  RunInputs in;
  std::mt19937 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    in.src.push_back(static_cast<u32>(rng()));
    in.other.push_back(static_cast<u32>(rng()));
    in.flags.push_back(static_cast<u32>(rng() % 4 == 0));
  }
  in.keep = alternating_keep_flags(n);
  in.index.resize(n);
  std::iota(in.index.begin(), in.index.end(), u32{0});
  std::shuffle(in.index.begin(), in.index.end(), rng);
  return in;
}

struct RunKernel {
  const char* name;
  unsigned lmul;
  void (*run)(const RunInputs&, std::vector<u32>&);
  unsigned loops = 1;  ///< strip-mine loops one call runs
};

/// One call per fused kernel family, each a single strip-mine loop except
/// seg_reduce (segmented scan, tails pass, pack).
const RunKernel kFusedKernels[] = {
    {"p_add vv", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::p_add<u32, 1>(std::span<u32>(out), std::span<const u32>(in.other));
     }},
    {"p_add vx", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::p_add<u32, 1>(std::span<u32>(out), u32{0x9e3779b9u});
     }},
    {"p_select", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::p_select<u32, 1>(std::span<const u32>(in.flags),
                             std::span<const u32>(in.other), std::span<u32>(out));
     }},
    {"p_copy", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.src.size(), 0);
       svm::p_copy<u32, 1>(std::span<const u32>(in.src), std::span<u32>(out));
     }},
    {"p_flag_lt", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.src.size(), 0);
       svm::p_flag_lt<u32, 1>(std::span<const u32>(in.src),
                              std::span<const u32>(in.other), std::span<u32>(out));
     }},
    {"get_flags", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.src.size(), 0);
       svm::get_flags<u32, 1>(std::span<const u32>(in.src), std::span<u32>(out), 5);
     }},
    {"enumerate", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.flags.size(), 0);
       const std::size_t total = svm::enumerate<u32, 1>(
           std::span<const u32>(in.flags), std::span<u32>(out), true);
       out.push_back(static_cast<u32>(total));
     }},
    {"permute", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.src.size(), 0);
       svm::permute<u32, 1>(std::span<const u32>(in.src), std::span<u32>(out),
                            std::span<const u32>(in.index));
     }},
    {"plus_scan", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::plus_scan<u32, 1>(std::span<u32>(out));
     }},
    {"plus_scan_exclusive", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::plus_scan_exclusive<u32, 1>(std::span<u32>(out));
     }},
    {"reduce", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = {svm::reduce<svm::PlusOp, u32, 1>(std::span<const u32>(in.src))};
     }},
    {"seg_scan_inclusive m1", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::seg_plus_scan<u32, 1>(std::span<u32>(out),
                                  std::span<const u32>(in.flags));
     }},
    {"seg_scan_inclusive m8", 8,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::seg_plus_scan<u32, 8>(std::span<u32>(out),
                                  std::span<const u32>(in.flags));
     }},
    {"seg_scan_exclusive", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out = in.src;
       svm::seg_scan_exclusive<svm::PlusOp, u32, 1>(
           std::span<u32>(out), std::span<const u32>(in.flags));
     }},
    {"pack", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(in.src.size(), 0);
       const std::size_t kept = svm::pack<u32, 1>(
           std::span<const u32>(in.src), std::span<u32>(out),
           std::span<const u32>(in.keep));
       out.push_back(static_cast<u32>(kept));
     }},
    {"seg_reduce", 1,
     [](const RunInputs& in, std::vector<u32>& out) {
       out.assign(segment_count(in.flags), 0);
       const std::size_t segments = svm::seg_reduce<svm::PlusOp, u32, 1>(
           std::span<const u32>(in.src), std::span<const u32>(in.flags),
           std::span<u32>(out));
       out.push_back(static_cast<u32>(segments));
     },
     /*loops=*/3},
};

const RunKernel& fused_kernel(std::string_view name) {
  for (const RunKernel& k : kFusedKernels) {
    if (name == k.name) return k;
  }
  throw std::invalid_argument("no fused kernel named " + std::string(name));
}

TEST(ExecCache, FusedRunsChargeLikeTheInterpreter) {
  // n = 1001 leaves a tail at every VLMAX here.  Calls 1 and 2 record and
  // verify both shapes; on call 3 block 0 replays fused, every later full
  // block runs in one steady-state run, and the tail replays fused alone.
  constexpr std::size_t kN = 1001;
  const RunInputs in = run_inputs(kN);
  std::uint64_t m8_spills = 0;
  for (const unsigned vlen : {128u, 1024u}) {
    for (const RunKernel& k : kFusedKernels) {
      SCOPED_TRACE(testing::Message() << k.name << " at VLEN " << vlen);
      rvv::Machine cached({.vlen_bits = vlen});
      rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
      std::vector<u32> got, want;
      sim::CountSnapshot got_call, want_call;
      for (rvv::Machine* m : {&cached, &plain}) {
        rvv::MachineScope scope(*m);
        std::vector<u32>& out = m == &cached ? got : want;
        k.run(in, out);
        k.run(in, out);
        const sim::CountSnapshot c0 = m->counter().snapshot();
        const u64 fused0 = m->exec_cache().stats().trace_fused;
        k.run(in, out);
        (m == &cached ? got_call : want_call) = m->counter().snapshot() - c0;
        if (m == &cached) {
          const std::size_t vlmax = rvv::vlmax_for(vlen, 32, k.lmul);
          EXPECT_EQ(m->exec_cache().stats().trace_fused - fused0,
                    k.loops * ((kN + vlmax - 1) / vlmax));
        }
      }
      EXPECT_EQ(got, want);
      expect_same_counts(got_call, want_call, k.name);
      expect_same_counts(cached.counter().snapshot(), plain.counter().snapshot(),
                         k.name);
      EXPECT_EQ(cached.regfile()->spill_count(), plain.regfile()->spill_count());
      EXPECT_EQ(cached.regfile()->reload_count(), plain.regfile()->reload_count());
      if (k.lmul == 8) m8_spills += plain.regfile()->spill_count();
      const rvv::ExecCacheStats& st = cached.exec_cache().stats();
      EXPECT_EQ(st.trace_aborts, 0u);
      EXPECT_EQ(st.trace_poisons, 0u);
    }
  }
  // The LMUL 8 segmented scan spills inside its traced window, so the runs'
  // k-fold spill/reload mirroring is on the line above.
  EXPECT_GT(m8_spills, 0u);
}

TEST(ExecCache, DeadlineInsideFusedRunTrapsLikeTheInterpreter) {
  // Block j of a run may start only where its vsetvl's deadline poll would
  // pass.  Sweep the deadline over every instruction of a warm call (and, for
  // the radix sort's 192 strip-mine loops, densely over the first loops and
  // then at a stride through the rest): cached and interpreted machines must
  // trap at the same instruction with the same counts and data.
  struct Outcome {
    bool trapped = false;
    u64 inst = 0;
    sim::CountSnapshot counts;
    std::vector<u32> data;
  };
  const RunKernel radix_sort{"split_radix_sort", 1,
                             [](const RunInputs& in, std::vector<u32>& out) {
                               out = in.src;
                               apps::split_radix_sort<u32, 1>(std::span<u32>(out));
                             }};
  const RunKernel kernels[] = {fused_kernel("plus_scan"),
                               fused_kernel("permute"), radix_sort};
  std::size_t traps = 0;
  for (const unsigned vlen : {128u, 1024u}) {
    // Five full blocks and a tail: block 0 fuses, blocks 1-4 form a run.
    const std::size_t n = 5 * rvv::vlmax_for(vlen, 32, 1) + 3;
    const RunInputs in = run_inputs(n);
    for (const RunKernel& k : kernels) {
      SCOPED_TRACE(testing::Message() << k.name << " at VLEN " << vlen);
      rvv::Machine cached({.vlen_bits = vlen});
      rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
      u64 call_insts = 0;
      for (rvv::Machine* m : {&cached, &plain}) {
        rvv::MachineScope scope(*m);
        std::vector<u32> out;
        for (int pass = 0; pass < 3; ++pass) k.run(in, out);
        const u64 before = m->counter().total();
        k.run(in, out);
        call_insts = m->counter().total() - before;
      }
      const auto call = [&](rvv::Machine& m, u64 d) {
        rvv::MachineScope scope(m);
        Outcome o;
        m.set_instruction_deadline(m.counter().total() + d);
        try {
          k.run(in, o.data);
        } catch (const DeadlineTrap& e) {
          o.trapped = true;
          o.inst = e.context().inst_number;
        }
        m.clear_instruction_deadline();
        o.counts = m.counter().snapshot();
        return o;
      };
      const u64 dense = std::min<u64>(call_insts + 2, 300);
      const u64 stride = call_insts + 2 > dense ? 211 : 1;
      for (u64 d = 0; d <= call_insts + 1; d += d < dense ? 1 : stride) {
        const Outcome got = call(cached, d);
        const Outcome want = call(plain, d);
        ASSERT_EQ(got.trapped, want.trapped) << "deadline offset " << d;
        ASSERT_EQ(got.inst, want.inst) << "deadline offset " << d;
        ASSERT_EQ(got.data, want.data) << "deadline offset " << d;
        expect_same_counts(got.counts, want.counts, "deadline sweep");
        ASSERT_EQ(got.counts.total(), want.counts.total())
            << "deadline offset " << d;
        traps += want.trapped ? 1 : 0;
      }
      // The warm calls ran fused: the sweep exercised the run path.
      EXPECT_GT(cached.exec_cache().stats().trace_fused, 0u);
    }
  }
  EXPECT_GT(traps, 0u);
}

TEST(ExecCache, FaultHookDisengagesTracing) {
  // With any fault-injection channel armed the tracer must stand down:
  // every op keeps its pre-charge trap window, and counts match a machine
  // that never cached.
  rvv::Machine cached({.vlen_bits = 512});
  rvv::Machine plain({.vlen_bits = 512, .use_exec_cache = false});
  check::FaultInjector probe({});  // passive: observes, never fires
  for (rvv::Machine* m : {&cached, &plain}) {
    m->set_fault_hook(&probe);
    rvv::MachineScope scope(*m);
    std::vector<u32> a = iota_data(500);
    svm::plus_scan<u32, 2>(std::span<u32>(a));
    svm::plus_scan<u32, 2>(std::span<u32>(a));
    m->set_fault_hook(nullptr);
  }
  EXPECT_EQ(cached.exec_cache().stats().trace_records, 0u);
  EXPECT_EQ(cached.exec_cache().stats().trace_replays, 0u);
  expect_same_counts(cached.counter().snapshot(), plain.counter().snapshot(),
                     "armed hook");
}

TEST(ExecCache, PoolAllocTrapRollsBackMidTraceCharges) {
  // A buffer-pool allocation trap inside what would be a traced body: the
  // interpreted rollback path and a cache-off machine must agree on counts
  // after the failed run plus a clean rerun.
  const auto run = [](bool cache) {
    rvv::Machine m({.vlen_bits = 256, .use_exec_cache = cache});
    rvv::MachineScope scope(m);
    std::vector<u32> a = iota_data(400);
    svm::plus_scan<u32, 1>(std::span<u32>(a));  // warm pool + traces
    m.pool().trap_allocation_after(5);
    std::vector<u32> b = iota_data(400);
    EXPECT_THROW((svm::plus_scan<u32, 1>(std::span<u32>(b))), PoolAllocTrap);
    EXPECT_EQ(m.pool_stats().bytes_in_use, 0u);
    std::vector<u32> c = iota_data(400);
    svm::plus_scan<u32, 1>(std::span<u32>(c));
    return std::pair{c, m.counter().snapshot()};
  };
  const auto [data_cached, counts_cached] = run(true);
  const auto [data_plain, counts_plain] = run(false);
  EXPECT_EQ(data_cached, data_plain);
  expect_same_counts(counts_cached, counts_plain, "pool trap");
}

// --- vectorized fused bodies ----------------------------------------------

/// Calls `kernel(log)` three times on a cache-on and a cache-off machine
/// (record, verify, fused replay) and requires the same log — each call
/// appends what it wrote — the same per-class counts and the same
/// register-file stats.
template <class T, unsigned LMUL = 1, class Kernel>
void expect_cache_invisible(unsigned vlen, Kernel kernel) {
  rvv::Machine cached({.vlen_bits = vlen});
  rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
  std::vector<T> got, want;
  for (rvv::Machine* m : {&cached, &plain}) {
    rvv::MachineScope scope(*m);
    for (int call = 0; call < 3; ++call) kernel(m == &cached ? got : want);
  }
  EXPECT_EQ(got, want);
  expect_same_counts(cached.counter().snapshot(), plain.counter().snapshot(),
                     "vectorized body");
  EXPECT_EQ(cached.regfile()->spill_count(), plain.regfile()->spill_count());
  EXPECT_EQ(cached.regfile()->reload_count(), plain.regfile()->reload_count());
  EXPECT_EQ(cached.regfile()->peak_registers(), plain.regfile()->peak_registers());
}

template <class T>
class VectorizedBodies : public testing::Test {};
using AllElementTypes = testing::Types<std::uint8_t, std::uint16_t, std::uint32_t,
                                       std::uint64_t, std::int8_t, std::int16_t,
                                       std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(VectorizedBodies, AllElementTypes);

TYPED_TEST(VectorizedBodies, MatchTheInterpreterAtEveryLength) {
  // Every length from empty to two host vectors plus one, where the fused
  // call's vector loop and scalar tail split every way, and 1,001 elements,
  // where whole runs of blocks go through one call.  At VLEN 128 a block is
  // one host vector; at VLEN 1024 each short call is a single fused block.
  using T = TypeParam;
  const std::size_t lanes = 16 / sizeof(T);
  std::vector<std::size_t> lengths(2 * lanes + 2);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(1001);
  for (const unsigned vlen : {128u, 1024u}) {
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(testing::Message() << "n " << n << " at VLEN " << vlen);
      const std::vector<T> a = test::random_vector<T>(n, 11);
      const std::vector<T> flags = test::random_vector<T>(n, 12, 2);
      expect_cache_invisible<T>(vlen, [&](std::vector<T>& log) {
        const auto scan = [&](auto scan_fn) {
          std::vector<T> out = a;
          scan_fn(std::span<T>(out));
          log.insert(log.end(), out.begin(), out.end());
        };
        scan([](std::span<T> v) { svm::plus_scan<T, 1>(v); });
        scan([](std::span<T> v) { svm::and_scan<T, 1>(v); });
        scan([](std::span<T> v) { svm::or_scan<T, 1>(v); });
        scan([](std::span<T> v) { svm::xor_scan<T, 1>(v); });
        scan([](std::span<T> v) { svm::max_scan<T, 1>(v); });
        scan([](std::span<T> v) { svm::plus_scan_exclusive<T, 1>(v); });
        scan([](std::span<T> v) { svm::scan_exclusive<svm::AndOp, T, 1>(v); });
        scan([](std::span<T> v) { svm::scan_exclusive<svm::XorOp, T, 1>(v); });
        scan([](std::span<T> v) { svm::scan_exclusive<svm::MinOp, T, 1>(v); });
        const std::span<const T> ca(a);
        log.push_back(svm::reduce<svm::PlusOp, T, 1>(ca));
        log.push_back(svm::reduce<svm::OrOp, T, 1>(ca));
        log.push_back(svm::reduce<svm::XorOp, T, 1>(ca));
        log.push_back(svm::reduce<svm::MaxOp, T, 1>(ca));
        for (const bool set_bit : {true, false}) {
          std::vector<T> dst(n);
          const std::size_t total = svm::enumerate<T, 1>(
              std::span<const T>(flags), std::span<T>(dst), set_bit);
          log.insert(log.end(), dst.begin(), dst.end());
          log.push_back(static_cast<T>(total));
        }
        // In place: each element's flag is read before its count lands.
        std::vector<T> in_place = flags;
        const std::size_t total = svm::enumerate<T, 1>(
            std::span<const T>(in_place), std::span<T>(in_place), true);
        log.insert(log.end(), in_place.begin(), in_place.end());
        log.push_back(static_cast<T>(total));
      });
    }
  }
}

TYPED_TEST(VectorizedBodies, RunsAcrossLmulAndVlen) {
  // Blocks of two and eight host vectors (LMUL 2 at VLEN 128, LMUL 1 at
  // VLEN 1024) and runs of many of them.
  using T = TypeParam;
  const std::vector<T> a = test::random_vector<T>(4099, 21);
  const std::vector<T> flags = test::random_vector<T>(4099, 22, 2);
  const auto kernel = [&]<unsigned L>(std::vector<T>& log) {
    std::vector<T> out = a;
    svm::plus_scan<T, L>(std::span<T>(out));
    svm::xor_scan<T, L>(std::span<T>(out));
    svm::plus_scan_exclusive<T, L>(std::span<T>(out));
    log.insert(log.end(), out.begin(), out.end());
    log.push_back(svm::reduce<svm::PlusOp, T, L>(std::span<const T>(a)));
    std::vector<T> dst(a.size());
    log.push_back(static_cast<T>(svm::enumerate<T, L>(std::span<const T>(flags),
                                                      std::span<T>(dst), true)));
    log.insert(log.end(), dst.begin(), dst.end());
  };
  expect_cache_invisible<T>(128, [&](std::vector<T>& log) {
    kernel.template operator()<2>(log);
  });
  expect_cache_invisible<T>(1024, [&](std::vector<T>& log) {
    kernel.template operator()<1>(log);
  });
}

/// enumerate over more matches than T holds: dst wraps in T, the returned
/// total stays exact.
template <class T>
void expect_narrow_enumerate_exact() {
  const std::size_t n = 2 * std::size_t{std::numeric_limits<T>::max()} + 45;
  std::vector<T> flags(n, T{1});
  for (std::size_t i = 0; i < n; i += 7) flags[i] = T{0};
  const std::size_t ones = n - (n + 6) / 7;
  ASSERT_GT(ones, std::size_t{std::numeric_limits<T>::max()});
  expect_cache_invisible<T>(128, [&](std::vector<T>& log) {
    std::vector<T> dst(n);
    EXPECT_EQ((svm::enumerate<T, 1>(std::span<const T>(flags), std::span<T>(dst),
                                    true)),
              ones);
    std::size_t seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dst[i], static_cast<T>(seen)) << "element " << i;
      seen += flags[i];
    }
    log.insert(log.end(), dst.begin(), dst.end());
  });
}

TEST(ExecCache, NarrowEnumerateWrapsDstAndCountsExactly) {
  expect_narrow_enumerate_exact<std::uint8_t>();
  expect_narrow_enumerate_exact<std::uint16_t>();
}

// --- call-level replay (svm::split) ---------------------------------------

/// One call of a call-replaying kernel on one machine: what it returned or
/// trapped with (kind and instruction number), the buffer it wrote, and
/// what it charged.
template <class T>
struct ReplayOutcome {
  std::string result;
  std::vector<T> written;
  sim::CountSnapshot counts;
  std::optional<u64> trap_offset;  ///< the trap's instruction within the call
};

/// A cache-on and a cache-off machine taking the same split (or sort)
/// calls.  Every call must have the same outcome on both.
template <class T>
struct ReplayMachines {
  rvv::Machine cached;
  rvv::Machine plain;

  explicit ReplayMachines(unsigned vlen)
      : cached({.vlen_bits = vlen}),
        plain({.vlen_bits = vlen, .use_exec_cache = false}) {}

  /// Runs `call(m, buf)` on each machine and compares the outcomes.  The
  /// call fills `buf` (a fresh vector per machine), calls the kernel with
  /// its output inside it, and returns the kernel's result (0 for a sort).
  template <class Call>
  ReplayOutcome<T> run(Call&& call, const std::string& what) {
    const auto on = [&](rvv::Machine& m) {
      rvv::MachineScope scope(m);
      ReplayOutcome<T> o;
      const sim::CountSnapshot c0 = m.counter().snapshot();
      try {
        o.result = "returned " + std::to_string(call(m, o.written));
      } catch (const Trap& e) {
        o.result = std::string(sim::to_string(e.kind())) + " at inst " +
                   std::to_string(e.context().inst_number);
        o.trap_offset = e.context().inst_number - c0.total();
      }
      m.clear_instruction_deadline();
      o.counts = m.counter().snapshot() - c0;
      return o;
    };
    const ReplayOutcome<T> got = on(cached);
    const ReplayOutcome<T> want = on(plain);
    EXPECT_EQ(got.result, want.result) << what;
    EXPECT_EQ(got.written, want.written) << what;
    expect_same_counts(got.counts, want.counts, what.c_str());
    return got;
  }

  /// A call of split<T, L> over seeded data and 0/1 flags, with a deadline
  /// `deadline` instructions on when that is non-zero.
  template <unsigned L>
  ReplayOutcome<T> clean(std::size_t n, std::uint32_t seed, u64 deadline = 0) {
    const std::vector<T> src = test::random_vector<T>(n, seed);
    const std::vector<T> flags = test::random_vector<T>(n, seed + 1, 2);
    return run(
        [&](rvv::Machine& m, std::vector<T>& dst) {
          dst.assign(n, T{0x5A});
          if (deadline != 0) {
            m.set_instruction_deadline(m.counter().total() + deadline);
          }
          return svm::split<T, L>(std::span<const T>(src), std::span<T>(dst),
                                  std::span<const T>(flags));
        },
        "seed " + std::to_string(seed) + ", deadline " + std::to_string(deadline));
  }

  [[nodiscard]] const rvv::ExecCacheStats& stats() const {
    return cached.exec_cache().stats();
  }
  [[nodiscard]] std::size_t records() const {
    return cached.exec_cache().call_record_count();
  }

  void expect_same_regfile() {
    EXPECT_EQ(cached.regfile()->spill_count(), plain.regfile()->spill_count());
    EXPECT_EQ(cached.regfile()->reload_count(), plain.regfile()->reload_count());
    EXPECT_EQ(cached.regfile()->peak_registers(), plain.regfile()->peak_registers());
  }
};

template <class T>
class CallReplay : public testing::Test {};
using SplitElementTypes =
    testing::Types<std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(CallReplay, SplitElementTypes);

TYPED_TEST(CallReplay, MatchesTheInterpreterAtEverySizeAndLmul) {
  // Five calls per shape, each over fresh data and flags.  However the
  // shape's blocks split, its five loops all replay fused by the third call,
  // which stores the record, so at least the last two replay the call.
  using T = TypeParam;
  const auto at_lmul = [&]<unsigned L>() {
    const std::size_t vlmax = rvv::vlmax_for(128, rvv::kSewBits<T>, L);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, vlmax - 1, vlmax,
                                vlmax + 1, 3 * vlmax + 5, std::size_t{16384}}) {
      // Destination indices live in T: u8 splits at most 256 elements.
      if (n > std::size_t{std::numeric_limits<T>::max()} + 1) continue;
      SCOPED_TRACE(testing::Message() << "n " << n << " at LMUL " << L);
      ReplayMachines<T> ms(128);
      for (std::uint32_t call = 0; call < 5; ++call) {
        static_cast<void>(ms.template clean<L>(n, 10 * call));
      }
      ms.expect_same_regfile();
      EXPECT_GE(ms.stats().call_replays, 2u);
      EXPECT_EQ(ms.records(), 1u);
      EXPECT_EQ(ms.stats().trace_aborts, 0u);
      EXPECT_EQ(ms.stats().trace_poisons, 0u);
    }
  };
  at_lmul.template operator()<1>();
  at_lmul.template operator()<2>();
  at_lmul.template operator()<4>();
  at_lmul.template operator()<8>();
}

// The fallbacks below run at VLEN 128, u32, LMUL 2 (VLMAX 8) with n = 29:
// three full blocks and a tail.  Three calls record, verify and then fuse
// every block, and the third stores the call record.
constexpr std::size_t kSplitN = 29;
constexpr std::size_t kSplitBlocks = 4;

void warm(ReplayMachines<u32>& ms) {
  static_cast<void>(ms.clean<2>(kSplitN, 1));
  EXPECT_EQ(ms.records(), 0u) << "a call that recorded traces stored a record";
  static_cast<void>(ms.clean<2>(kSplitN, 2));
  static_cast<void>(ms.clean<2>(kSplitN, 3));
  EXPECT_EQ(ms.records(), 1u);
  EXPECT_EQ(ms.stats().call_replays, 0u);
}

TEST(CallReplayFallback, NonBinaryFlagRunsTheLoops) {
  ReplayMachines<u32> ms(128);
  warm(ms);
  const std::vector<u32> src = iota_data(kSplitN);
  for (const std::size_t at : {std::size_t{0}, std::size_t{13}, kSplitN - 1}) {
    std::vector<u32> flags = test::random_vector<u32>(kSplitN, 7, 2);
    flags[at] = 2;
    ms.run(
        [&](rvv::Machine&, std::vector<u32>& dst) {
          dst.assign(kSplitN, 0x5A);
          return svm::split<u32, 2>(std::span<const u32>(src), std::span<u32>(dst),
                                    std::span<const u32>(flags));
        },
        "flag 2 at " + std::to_string(at));
  }
  EXPECT_EQ(ms.stats().call_replays, 0u);
  static_cast<void>(ms.clean<2>(kSplitN, 4));  // the record is still there
  EXPECT_EQ(ms.stats().call_replays, 1u);
  ms.expect_same_regfile();
}

TEST(CallReplayFallback, OverlappingDestinationRunsTheLoops) {
  // One buffer holds src (or the flags) from element 1 and dst from element
  // 0 or 1; the other operand lives apart.  The composite body would read
  // what it had already written.
  ReplayMachines<u32> ms(128);
  warm(ms);
  const std::vector<u32> data = iota_data(kSplitN + 1);
  const std::vector<u32> flag_bits = test::random_vector<u32>(kSplitN + 1, 8, 2);
  struct Layout {
    const char* name;
    bool over_flags;
    std::size_t dst_at;
  };
  for (const Layout& layout : {Layout{"dst == src", false, 1},
                               Layout{"dst == src - 1", false, 0},
                               Layout{"dst == flags", true, 1},
                               Layout{"dst == flags - 1", true, 0}}) {
    ms.run(
        [&](rvv::Machine&, std::vector<u32>& shared) {
          shared = layout.over_flags ? flag_bits : data;
          const std::vector<u32>& apart = layout.over_flags ? data : flag_bits;
          const auto in = std::span<const u32>(shared).subspan(1, kSplitN);
          const auto other = std::span<const u32>(apart).first(kSplitN);
          const auto dst = std::span<u32>(shared).subspan(layout.dst_at, kSplitN);
          return layout.over_flags ? svm::split<u32, 2>(other, dst, in)
                                   : svm::split<u32, 2>(in, dst, other);
        },
        layout.name);
  }
  EXPECT_EQ(ms.stats().call_replays, 0u);
  static_cast<void>(ms.clean<2>(kSplitN, 4));
  EXPECT_EQ(ms.stats().call_replays, 1u);
  ms.expect_same_regfile();
}

TEST(CallReplayFallback, DeadlineInsideTheCallRunsTheLoops) {
  // Sweep the deadline over every instruction of a warm call.  A deadline
  // at or before the call's last instruction runs the five loops, which
  // trap at each of their vsetvls in turn; one past it replays the call.
  ReplayMachines<u32> ms(128);
  warm(ms);
  const u64 call_insts = ms.clean<2>(kSplitN, 4).counts.total();
  ASSERT_EQ(ms.stats().call_replays, 1u);
  std::set<u64> trap_points;
  for (u64 d = 1; d <= call_insts + 1; ++d) {
    const u64 replays = ms.stats().call_replays;
    const ReplayOutcome<u32> o = ms.clean<2>(kSplitN, 5, d);
    EXPECT_EQ(ms.stats().call_replays - replays, d > call_insts ? 1u : 0u)
        << "deadline offset " << d;
    if (o.trap_offset) trap_points.insert(*o.trap_offset);
  }
  // The deadline trapped inside every one of the five loops, at each of
  // their blocks' vsetvls.
  EXPECT_EQ(trap_points.size(), 5 * kSplitBlocks);
  ms.expect_same_regfile();
}

TEST(CallReplayFallback, ArmedFaultHookRunsTheLoops) {
  ReplayMachines<u32> ms(128);
  warm(ms);
  check::FaultInjector probe({});  // passive: observes, never fires
  ms.cached.set_fault_hook(&probe);
  ms.plain.set_fault_hook(&probe);
  static_cast<void>(ms.clean<2>(kSplitN, 4));
  EXPECT_EQ(ms.stats().call_replays, 0u);
  ms.cached.set_fault_hook(nullptr);
  ms.plain.set_fault_hook(nullptr);
  static_cast<void>(ms.clean<2>(kSplitN, 5));
  EXPECT_EQ(ms.stats().call_replays, 1u);
  ms.expect_same_regfile();
}

TEST(CallReplayFallback, InvalidationDropsTheRecords) {
  ReplayMachines<u32> ms(128);
  warm(ms);
  ms.cached.invalidate_exec_caches();
  EXPECT_EQ(ms.records(), 0u);
  // The traces went too: record, verify, fuse and store again.
  for (std::uint32_t seed = 4; seed < 7; ++seed) {
    static_cast<void>(ms.clean<2>(kSplitN, seed));
  }
  EXPECT_EQ(ms.stats().call_replays, 0u);
  EXPECT_EQ(ms.records(), 1u);
  static_cast<void>(ms.clean<2>(kSplitN, 7));
  EXPECT_EQ(ms.stats().call_replays, 1u);
  ms.expect_same_regfile();
}

// --- call-level replay (apps::detail::radix_sort_passes) -----------------

using u8 = std::uint8_t;

/// Where a sort case enters the radix sort's passes.
enum class SortEntry { kSort, kHistogram, kPasses };

const char* entry_name(SortEntry e) {
  switch (e) {
    case SortEntry::kSort: return "split_radix_sort";
    case SortEntry::kHistogram: return "histogram";
    case SortEntry::kPasses: return "radix_sort_passes";
  }
  return "?";
}

/// One call of a sort case over data seeded by `seed`, its output in `out`:
/// split_radix_sort over full-range keys (key_bits is then the key width),
/// a histogram with the fewest bins that take key_bits passes, or the
/// passes themselves over full-range keys, whose bits above key_bits must
/// ride along in the order the low bits give.
template <class T, unsigned L>
std::size_t sort_call(SortEntry entry, std::size_t n, unsigned key_bits,
                      std::uint32_t seed, std::vector<T>& out) {
  switch (entry) {
    case SortEntry::kSort:
      out = test::random_vector<T>(n, seed);
      apps::split_radix_sort<T, L>(std::span<T>(out));
      break;
    case SortEntry::kHistogram: {
      const std::size_t bins = (std::size_t{1} << (key_bits - 1)) + 1;
      const std::vector<T> keys = test::random_vector<T>(n, seed, bins);
      out.assign(bins, T{0x5A});
      apps::histogram<T, L>(std::span<const T>(keys), std::span<T>(out));
      break;
    }
    case SortEntry::kPasses:
      out = test::random_vector<T>(n, seed);
      apps::detail::radix_sort_passes<T, L>(std::span<T>(out), key_bits);
      break;
  }
  return 0;
}

/// The first of a fresh machine's calls of one sort shape that replays.  A
/// trace fuses from its third run, and the sort stores its record on the
/// first call in which every loop iteration fused.  A call runs each block
/// shape of get_flags and of split's loops once per key bit and block of
/// that shape, and an odd count's closing p_copy once per block.  So the
/// second call stores the record, unless key_bits is odd and some block
/// shape occurs once (a tail, or a single full block): then p_copy fuses
/// only on the third.
std::uint32_t first_sort_replay(std::size_t n, std::size_t vlmax, unsigned key_bits) {
  const bool shape_once = n % vlmax != 0 || n / vlmax == 1;
  return key_bits % 2 != 0 && shape_once ? 4 : 3;
}

template <class T>
class SortReplay : public testing::Test {};
TYPED_TEST_SUITE(SortReplay, SplitElementTypes);

TYPED_TEST(SortReplay, MatchesTheInterpreterAtEverySizeLmulAndKeyWidth) {
  // Four calls per case over fresh data.  The call before the first replay
  // stores the sort's record next to split's, and every later call replays
  // it for one call_replays; the passes would add one per split that
  // replayed its own record.
  using T = TypeParam;
  constexpr unsigned kSew = rvv::kSewBits<T>;
  constexpr auto kMaxIndex = std::size_t{std::numeric_limits<T>::max()};
  const auto at_lmul = [&]<unsigned L>() {
    const std::size_t vlmax = rvv::vlmax_for(128, kSew, L);
    const std::set<std::size_t> sizes{2, vlmax - 1, vlmax, vlmax + 1, 3 * vlmax + 5, 300};
    for (const std::size_t n : sizes) {
      // Narrow keys past their index range sort as u32 (sort and histogram).
      const bool widened = n - 1 > kMaxIndex;
      const std::size_t pass_vlmax = widened ? rvv::vlmax_for(128, 32, L) : vlmax;
      for (const unsigned key_bits : {1u, std::min(kSew / 2 + 1, 9u), kSew}) {
        for (const SortEntry entry :
             {SortEntry::kSort, SortEntry::kHistogram, SortEntry::kPasses}) {
          if (entry == SortEntry::kSort && (key_bits != kSew || n < 2)) continue;
          if (entry == SortEntry::kHistogram && key_bits > 16) continue;  // bins
          if (entry == SortEntry::kPasses && widened) continue;  // indices fit T
          SCOPED_TRACE(testing::Message() << entry_name(entry) << ", n " << n
                                          << ", LMUL " << L << ", key_bits "
                                          << key_bits);
          ReplayMachines<T> ms(128);
          const std::uint32_t first = first_sort_replay(n, pass_vlmax, key_bits);
          for (std::uint32_t call = 1; call <= 4; ++call) {
            const u64 replays = ms.stats().call_replays;
            ms.run(
                [&](rvv::Machine&, std::vector<T>& out) {
                  return sort_call<T, L>(entry, n, key_bits, 100 * call, out);
                },
                "call " + std::to_string(call));
            EXPECT_EQ(ms.records() == 2, call + 1 >= first) << "call " << call;
            if (call >= first) {
              EXPECT_EQ(ms.stats().call_replays - replays, 1u) << "call " << call;
            }
          }
          ms.expect_same_regfile();
          EXPECT_EQ(ms.stats().trace_aborts, 0u);
          EXPECT_EQ(ms.stats().trace_poisons, 0u);
        }
      }
    }
  };
  at_lmul.template operator()<1>();
  at_lmul.template operator()<2>();
  at_lmul.template operator()<4>();
  at_lmul.template operator()<8>();
}

// The sort fallbacks sort u8 keys at LMUL 1 (VLMAX 16 at VLEN 128) with
// n = 37: two full blocks and a tail, eight passes.  The second call
// stores the record and the third replays it.
constexpr std::size_t kSortN = 37;
constexpr std::size_t kSortBlocks = 3;

ReplayOutcome<u8> sort_u8(ReplayMachines<u8>& ms, std::uint32_t seed, u64 deadline = 0) {
  return ms.run(
      [&](rvv::Machine& m, std::vector<u8>& out) -> std::size_t {
        out = test::random_vector<u8>(kSortN, seed);
        if (deadline != 0) m.set_instruction_deadline(m.counter().total() + deadline);
        apps::split_radix_sort<u8, 1>(std::span<u8>(out));
        return 0;
      },
      "seed " + std::to_string(seed) + ", deadline " + std::to_string(deadline));
}

void warm_sort(ReplayMachines<u8>& ms) {
  static_cast<void>(sort_u8(ms, 1));
  static_cast<void>(sort_u8(ms, 2));
  EXPECT_EQ(ms.records(), 2u) << "split's record and the sort's";
  const u64 replays = ms.stats().call_replays;
  static_cast<void>(sort_u8(ms, 3));
  EXPECT_EQ(ms.stats().call_replays - replays, 1u);
}

TEST(SortReplayFallback, DeadlineInsideTheSortRunsThePasses) {
  // Sweep the deadline over every instruction of a warm sort.  A deadline
  // at or before the sort's last instruction runs the passes, which trap
  // at each of their vsetvls in turn (a split that ends before the
  // deadline still replays its own record); one past it replays the sort.
  ReplayMachines<u8> ms(128);
  warm_sort(ms);
  const u64 call_insts = sort_u8(ms, 4).counts.total();
  std::set<u64> trap_points;
  for (u64 d = 1; d <= call_insts + 1; ++d) {
    const u64 replays = ms.stats().call_replays;
    const ReplayOutcome<u8> o = sort_u8(ms, 5, d);
    if (o.trap_offset) trap_points.insert(*o.trap_offset);
    const u64 added = ms.stats().call_replays - replays;
    if (d == call_insts) {
      EXPECT_EQ(added, 8u) << "the passes ran, every split replayed";
    } else if (d > call_insts) {
      EXPECT_EQ(added, 1u) << "the sort replayed";
    }
  }
  // Every vsetvl of the eight passes' six loops trapped once.
  EXPECT_EQ(trap_points.size(), 8 * 6 * kSortBlocks);
  ms.expect_same_regfile();
}

TEST(SortReplayFallback, ArmedFaultHookRunsThePasses) {
  ReplayMachines<u8> ms(128);
  warm_sort(ms);
  check::FaultInjector probe({});  // passive: observes, never fires
  ms.cached.set_fault_hook(&probe);
  ms.plain.set_fault_hook(&probe);
  u64 replays = ms.stats().call_replays;
  static_cast<void>(sort_u8(ms, 4));
  EXPECT_EQ(ms.stats().call_replays, replays) << "neither the sort nor a split replays";
  ms.cached.set_fault_hook(nullptr);
  ms.plain.set_fault_hook(nullptr);
  replays = ms.stats().call_replays;
  static_cast<void>(sort_u8(ms, 5));
  EXPECT_EQ(ms.stats().call_replays - replays, 1u);
  ms.expect_same_regfile();
}

TEST(SortReplayFallback, InvalidationDropsTheRecord) {
  ReplayMachines<u8> ms(128);
  warm_sort(ms);
  ms.cached.invalidate_exec_caches();
  EXPECT_EQ(ms.records(), 0u);
  // The traces went too: record and verify them, then store again.
  static_cast<void>(sort_u8(ms, 4));
  EXPECT_LT(ms.records(), 2u);
  static_cast<void>(sort_u8(ms, 5));
  EXPECT_EQ(ms.records(), 2u);
  const u64 replays = ms.stats().call_replays;
  static_cast<void>(sort_u8(ms, 6));
  EXPECT_EQ(ms.stats().call_replays - replays, 1u);
  ms.expect_same_regfile();
}

TEST(SortReplayFallback, TunedLmulRunsThePasses) {
  // The tuned instantiation (bench_runner's tuned sort cell) lets each
  // kernel pick its own LMUL, so no shape names its loops: it stores no
  // record of its own, and a warm call's splits each replay theirs.
  ReplayMachines<u32> ms(128);
  for (std::uint32_t call = 1; call <= 4; ++call) {
    const u64 replays = ms.stats().call_replays;
    ms.run(
        [&](rvv::Machine&, std::vector<u32>& out) -> std::size_t {
          out = test::random_vector<u32>(kSortN, call);
          apps::detail::radix_sort_passes<u32, svm::kTunedLmul>(std::span<u32>(out), 8);
          return 0;
        },
        "tuned call " + std::to_string(call));
    if (call >= 2) {
      EXPECT_EQ(ms.stats().call_replays - replays, 8u) << "call " << call;
    }
  }
  EXPECT_EQ(ms.records(), 1u) << "split's record only";
  ms.expect_same_regfile();
}

TEST(SortReplayFallback, KeyBitsPastTheKeyWidthRunThePasses) {
  // 300 bins take nine passes over u8 keys.  The ninth pass's shift amount
  // wraps to bit 0 (vsrl reads the low lg(SEW) bits of it), so the passes
  // leave the keys ordered by bit 0 and then by value, an order a sort by
  // the low key bits does not give; only the passes produce it.
  ReplayMachines<u8> ms(128);
  constexpr std::size_t n = 200;
  for (std::uint32_t call = 1; call <= 4; ++call) {
    const u64 replays = ms.stats().call_replays;
    ms.run(
        [&](rvv::Machine&, std::vector<u8>& out) -> std::size_t {
          const std::vector<u8> keys = test::random_vector<u8>(n, call);
          out.assign(300, 0x5A);
          apps::histogram<u8, 1>(std::span<const u8>(keys), std::span<u8>(out));
          return 0;
        },
        "histogram call " + std::to_string(call));
    ms.run(
        [&](rvv::Machine&, std::vector<u8>& out) -> std::size_t {
          out = test::random_vector<u8>(n, 10 + call);
          apps::detail::radix_sort_passes<u8, 1>(std::span<u8>(out), 9);
          return 0;
        },
        "passes call " + std::to_string(call));
    if (call >= 2) {
      EXPECT_EQ(ms.stats().call_replays - replays, 18u) << "every split replayed";
    }
  }
  EXPECT_EQ(ms.records(), 1u) << "split's record only";
  ms.expect_same_regfile();
}

}  // namespace
}  // namespace rvvsvm
