// Pinned reproducers for every divergence the differential fuzzing oracle
// has found (each shrunk to its minimal case), direct unit tests for the
// signed-index semantics the unsigned-only case generator cannot reach, and
// a deterministic oracle smoke run.
//
// The Case-based tests replay through check::run_property, so they keep
// exercising the emulator-vs-scalar-reference differential that caught the
// bug originally.
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "apps/histogram.hpp"
#include "check/oracle.hpp"
#include "check/rng.hpp"
#include "par/collectives.hpp"
#include "par/hart_pool.hpp"
#include "rvv/rvv.hpp"
#include "svm/baseline/baseline.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

namespace {

using namespace rvvsvm;

// --- deterministic oracle smoke --------------------------------------------

TEST(FuzzOracle, Smoke1kIterationsZeroDivergences) {
  check::FuzzOptions options;
  options.seed = 1;
  options.iters = 1000;
  const auto report = check::fuzz(options);
  EXPECT_EQ(report.cases_run, 1000u);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.property << ": " << failure.message << "\n"
                  << failure.reproducer;
  }
}

TEST(FuzzOracle, SeedChangesCases) {
  // Same iteration, different seed -> different case material.
  const auto* prop = check::find_property("rvv.arith_vv");
  ASSERT_NE(prop, nullptr);
  check::Rng r1(check::mix_seed(1, 7));
  check::Rng r2(check::mix_seed(2, 7));
  const auto c1 = prop->gen(r1);
  const auto c2 = prop->gen(r2);
  EXPECT_FALSE(c1.vlen == c2.vlen && c1.sew == c2.sew && c1.vl == c2.vl &&
               c1.a == c2.a && c1.scalar == c2.scalar);
}

TEST(FuzzOracle, UnknownPropertyIsAFailureMessage) {
  EXPECT_NE(check::run_property("no.such.property", {}), "");
}

// --- minimized reproducers for bugs the sweep fixed ------------------------

// svm::reverse computed n-1-i in the element type; u8 with n = 257 wrapped
// the indices and scattered to the wrong slots.  Now refuses with
// invalid_argument ("widen first"), which the property expects.
TEST(FuzzRegressions, ReverseNarrowIndexOverflow) {
  check::Case c;
  c.vlen = 128;
  c.sew = 8;
  c.lmul = 1;
  c.vl = 257;
  EXPECT_EQ(check::run_property("svm.permute", c), "");
}

TEST(FuzzRegressions, ReverseNarrowIndexThrows) {
  rvv::Machine machine({.vlen_bits = 256});
  rvv::MachineScope scope(machine);
  std::vector<std::uint8_t> src(257, 1);
  std::vector<std::uint8_t> dst(257, 0);
  EXPECT_THROW(svm::reverse<std::uint8_t>(std::span<const std::uint8_t>(src),
                                          std::span<std::uint8_t>(dst)),
               std::invalid_argument);
  // n == 256 is still legal: indices 0..255 all fit.
  src.resize(256);
  dst.resize(256);
  for (std::size_t i = 0; i < 256; ++i) src[i] = static_cast<std::uint8_t>(i);
  svm::reverse<std::uint8_t>(std::span<const std::uint8_t>(src),
                             std::span<std::uint8_t>(dst));
  EXPECT_EQ(dst[0], 255);
  EXPECT_EQ(dst[255], 0);
  // seg_broadcast_tail is built on reverse and inherits the guard.
  std::vector<std::uint8_t> heads(257, 0);
  std::vector<std::uint8_t> data(257, 1);
  EXPECT_THROW(
      svm::seg_broadcast_tail<std::uint8_t>(std::span<std::uint8_t>(data),
                                            std::span<const std::uint8_t>(heads)),
      std::invalid_argument);
}

// vslidedown must compare i + offset mathematically: an offset near
// SIZE_MAX must yield zeros, not wrap std::size_t and read a live element.
TEST(FuzzRegressions, VslidedownHugeOffsetWraparound) {
  check::Case c;
  c.vlen = 128;
  c.sew = 32;
  c.lmul = 1;
  c.vl = 4;
  c.offset = std::numeric_limits<std::size_t>::max();
  c.a = {11, 22, 33, 44};
  EXPECT_EQ(check::run_property("rvv.slides", c), "");

  rvv::Machine machine({.vlen_bits = 128});
  rvv::MachineScope scope(machine);
  const std::vector<std::uint32_t> src{11, 22, 33, 44};
  const auto v = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(src), 4);
  const auto slid =
      rvv::vslidedown(v, std::numeric_limits<std::size_t>::max(), 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(slid.elems()[i], 0u) << "element " << i;
  }
}

// The ISA reads index elements as unsigned SEW-wide integers: int8 index -1
// is bit pattern 0xFF and selects element 255 — it is not sign-extended
// into an always-out-of-range value.
TEST(FuzzRegressions, VrgatherSignedIndexUnsignedInterpretation) {
  rvv::Machine machine({.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  constexpr std::size_t kVl = 256;  // LMUL=2 at SEW=8 gives capacity 256
  std::vector<std::uint8_t> src(kVl);
  for (std::size_t i = 0; i < kVl; ++i) {
    src[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  const auto vsrc =
      rvv::vle<std::uint8_t, 2>(std::span<const std::uint8_t>(src), kVl);
  const std::vector<std::int8_t> idx(kVl, std::int8_t{-1});
  const auto vidx =
      rvv::vle<std::int8_t, 2>(std::span<const std::int8_t>(idx), kVl);
  const auto gathered = rvv::vrgather(vsrc, vidx, kVl);
  for (std::size_t i = 0; i < kVl; ++i) {
    EXPECT_EQ(gathered.elems()[i], src[255]) << "element " << i;
  }
  // Same reinterpretation for the indexed load and store.
  const auto loaded =
      rvv::vluxei<std::uint8_t, 2>(std::span<const std::uint8_t>(src), vidx, kVl);
  EXPECT_EQ(loaded.elems()[0], src[255]);
  std::vector<std::uint8_t> dst(kVl, 0);
  rvv::vsuxei(std::span<std::uint8_t>(dst), vidx, vsrc, kVl);
  EXPECT_EQ(dst[255], src[kVl - 1]);  // all writers land on 255; last wins
}

// Operands from different machines must be rejected, not silently mixed.
TEST(FuzzRegressions, CrossMachineOperandRejected) {
  rvv::Machine m1({.vlen_bits = 128});
  rvv::Machine m2({.vlen_bits = 128});
  const std::vector<std::uint32_t> data{1, 2, 3, 4};
  rvv::MachineScope s1(m1);
  const auto a = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(data), 4);
  const auto ma = rvv::vmsne(a, 0u, 4);
  rvv::MachineScope s2(m2);
  const auto b = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(data), 4);
  EXPECT_THROW(static_cast<void>(rvv::vadd(a, b, 4)), std::logic_error);
  EXPECT_THROW(static_cast<void>(rvv::vrgather(b, a, 4)), std::logic_error);
  EXPECT_THROW(static_cast<void>(rvv::vcompress(b, ma, 4)), std::logic_error);
  std::vector<std::uint32_t> dst(4, 0);
  EXPECT_THROW(rvv::vsuxei(std::span<std::uint32_t>(dst), a, b, 4),
               std::logic_error);
}

// svm::enumerate returns the running count through a host-side size_t: u8
// flags over n >= 256 must not wrap the total (257 zero-flags -> 257).
TEST(FuzzRegressions, EnumerateTotalNoWrap) {
  check::Case c;
  c.vlen = 256;
  c.sew = 8;
  c.lmul = 1;
  c.vl = 257;
  EXPECT_EQ(check::run_property("svm.enumerate_split", c), "");

  rvv::Machine machine({.vlen_bits = 256});
  rvv::MachineScope scope(machine);
  const std::vector<std::uint8_t> flags(257, 0);
  std::vector<std::uint8_t> dst(257, 0);
  EXPECT_EQ(svm::enumerate<std::uint8_t>(std::span<const std::uint8_t>(flags),
                                         std::span<std::uint8_t>(dst), false),
            257u);
  EXPECT_EQ(svm::baseline::enumerate<std::uint8_t>(
                std::span<const std::uint8_t>(flags),
                std::span<std::uint8_t>(dst), false),
            257u);
}

// svm::split computes destination indices in T; u8 with n > 256 must refuse
// ("widen first") while n == 256 stays legal (indices 0..255 all fit).
TEST(FuzzRegressions, SplitNarrowIndexGuard) {
  rvv::Machine machine({.vlen_bits = 256});
  rvv::MachineScope scope(machine);
  {
    const std::vector<std::uint8_t> src(258, 7);
    const std::vector<std::uint8_t> flags(258, 0);
    std::vector<std::uint8_t> dst(258, 0);
    EXPECT_THROW(static_cast<void>(svm::split<std::uint8_t>(
                     std::span<const std::uint8_t>(src),
                     std::span<std::uint8_t>(dst),
                     std::span<const std::uint8_t>(flags))),
                 std::invalid_argument);
  }
  {
    const std::vector<std::uint8_t> src(256, 7);
    const std::vector<std::uint8_t> flags(256, 0);
    std::vector<std::uint8_t> dst(256, 0);
    EXPECT_EQ(svm::split<std::uint8_t>(std::span<const std::uint8_t>(src),
                                       std::span<std::uint8_t>(dst),
                                       std::span<const std::uint8_t>(flags)),
              256u);
    EXPECT_EQ(dst, src);
  }
}

// par::split's zero count is a host-side total too: exactly 256 zero-flagged
// u8 elements must return 256, not wrap to 0 through a T-typed reduce.
TEST(FuzzRegressions, ParSplitTotalZerosNoWrap) {
  par::HartPool pool(
      {.harts = 2, .shard_size = 64, .machine = {.vlen_bits = 256}});
  const std::vector<std::uint8_t> src(256, 9);
  const std::vector<std::uint8_t> flags(256, 0);
  std::vector<std::uint8_t> dst(256, 0);
  EXPECT_EQ(par::split<std::uint8_t>(pool, std::span<const std::uint8_t>(src),
                                     std::span<std::uint8_t>(dst),
                                     std::span<const std::uint8_t>(flags)),
            256u);
}

// seg_split dropped the post-split boundary head for a segment of exactly
// 2^SEW one-flags: the flag-1 count came from a wrapping plus-scan
// (256 -> 0 in u8) and the boundary mask came out empty.  The count is now
// a segmented OR ("does the segment have any one-flag"), which cannot wrap.
TEST(FuzzRegressions, SegSplitMegaSegmentExactWidthBoundary) {
  rvv::Machine machine({.vlen_bits = 512});
  rvv::MachineScope scope(machine);
  constexpr std::size_t kN = 256;
  std::vector<std::uint8_t> src(kN);
  for (std::size_t i = 0; i < kN; ++i) src[i] = static_cast<std::uint8_t>(i);
  const std::vector<std::uint8_t> flags(kN, 1);  // every element flag-1
  const std::vector<std::uint8_t> heads(kN, 0);  // one implicit mega-segment
  std::vector<std::uint8_t> dst(kN, 0);
  std::vector<std::uint8_t> new_heads(kN, 0);
  svm::seg_split<std::uint8_t>(std::span<const std::uint8_t>(src),
                               std::span<std::uint8_t>(dst),
                               std::span<const std::uint8_t>(flags),
                               std::span<const std::uint8_t>(heads),
                               std::span<std::uint8_t>(new_heads));
  EXPECT_EQ(dst, src);  // all-ones: order preserved
  // tot0 = 0, so the flag-1 group starts at the segment start.
  EXPECT_EQ(new_heads[0], 1) << "boundary head dropped by wrapping count";
}

// apps::histogram on narrow keys with long inputs: the sort passes widen
// internally, and bin counts stay exact as long as they fit T.
TEST(FuzzRegressions, HistogramNarrowKeysLongInput) {
  rvv::Machine machine({.vlen_bits = 512});
  rvv::MachineScope scope(machine);
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kBins = 16;
  std::vector<std::uint8_t> keys(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<std::uint8_t>((i * 7 + 3) % kBins);
  }
  std::vector<std::uint8_t> bins(kBins, 0xAA);  // histogram must zero these
  apps::histogram<std::uint8_t>(std::span<const std::uint8_t>(keys),
                                std::span<std::uint8_t>(bins));
  std::vector<std::uint8_t> expected(kBins, 0);
  for (const auto key : keys) ++expected[key];  // counts < 256: no wrap here
  EXPECT_EQ(bins, expected);
}

// --- tail-policy pins (RVV 1.0 tail-agnostic, vl < VLMAX) -------------------

TEST(FuzzRegressions, TailPoisonAtShortVl) {
  rvv::Machine machine({.vlen_bits = 128});
  rvv::MachineScope scope(machine);
  const std::size_t cap = machine.vlmax<std::uint32_t>(1);
  ASSERT_EQ(cap, 4u);
  const std::vector<std::uint32_t> data{5, 6, 7, 8};
  const auto v = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(data), cap);
  constexpr std::uint32_t kPoison = rvv::kTailPoison<std::uint32_t>;
  {
    // vslide1up at vl = 2: elements [2, cap) are tail.
    const auto r = rvv::vslide1up(v, 99u, 2);
    EXPECT_EQ(r.elems()[0], 99u);
    EXPECT_EQ(r.elems()[1], 5u);
    EXPECT_EQ(r.elems()[2], kPoison);
    EXPECT_EQ(r.elems()[3], kPoison);
  }
  {
    // vslidedown at vl = 2 with offset 1 reads body elements only.
    const auto r = rvv::vslidedown(v, 1, 2);
    EXPECT_EQ(r.elems()[0], 6u);
    EXPECT_EQ(r.elems()[1], 7u);
    EXPECT_EQ(r.elems()[2], kPoison);
  }
  {
    // vcompress: everything past the packed count is poison, even below vl.
    const auto mask = rvv::vmseq(v, 6u, cap);
    const auto r = rvv::vcompress(v, mask, 3);
    EXPECT_EQ(r.elems()[0], 6u);
    EXPECT_EQ(r.elems()[1], kPoison);
    EXPECT_EQ(r.elems()[3], kPoison);
  }
  {
    // Mask-producing ops poison tail bits to 1.
    const auto r = rvv::vmseq(v, 12345u, 2);
    EXPECT_EQ(r.bits()[0], 0u);
    EXPECT_EQ(r.bits()[1], 0u);
    EXPECT_EQ(r.bits()[2], 1u);
    EXPECT_EQ(r.bits()[3], 1u);
  }
  {
    // vmsbf over an empty mask body: all ones in [0, vl).
    const auto none = rvv::vmclr(cap);
    const auto r = rvv::vmsbf(none, 2);
    EXPECT_EQ(r.bits()[0], 1u);
    EXPECT_EQ(r.bits()[1], 1u);
    EXPECT_EQ(r.bits()[2], 1u);  // tail poison is also 1
  }
}

TEST(FuzzRegressions, VmvSXAtVlZeroLeavesDestUnchanged) {
  rvv::Machine machine({.vlen_bits = 128});
  rvv::MachineScope scope(machine);
  const std::vector<std::uint32_t> data{5, 6, 7, 8};
  const auto v = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(data), 4);
  const auto r = rvv::vmv_s_x(v, 999u, 0);  // vl = 0: whole register untouched
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.elems()[i], data[i]);
  const auto w = rvv::vmv_s_x(v, 999u, 3);
  EXPECT_EQ(w.elems()[0], 999u);
  EXPECT_EQ(w.elems()[1], 6u);  // tail-undisturbed: rest preserved
  EXPECT_EQ(w.elems()[3], 8u);
}

// --- empty-segment / all-false-mask pins ------------------------------------

TEST(FuzzRegressions, SegPlusScanMegaSegmentEqualsPlainScan) {
  rvv::Machine machine({.vlen_bits = 256});
  rvv::MachineScope scope(machine);
  constexpr std::size_t kN = 100;
  std::vector<std::uint32_t> data(kN), plain(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    data[i] = plain[i] = static_cast<std::uint32_t>(i + 1);
  }
  const std::vector<std::uint32_t> no_heads(kN, 0);  // single implicit segment
  svm::seg_plus_scan<std::uint32_t>(std::span<std::uint32_t>(data),
                                    std::span<const std::uint32_t>(no_heads));
  svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(plain));
  EXPECT_EQ(data, plain);
}

TEST(FuzzRegressions, AllFalseMaskViotaCompressRedsum) {
  rvv::Machine machine({.vlen_bits = 128});
  rvv::MachineScope scope(machine);
  const std::vector<std::uint32_t> data{5, 6, 7, 8};
  const auto v = rvv::vle<std::uint32_t>(std::span<const std::uint32_t>(data), 4);
  const auto none = rvv::vmclr(4);
  {
    const auto r = rvv::viota<std::uint32_t>(none, 4);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.elems()[i], 0u);
  }
  {
    const auto r = rvv::vcompress(v, none, 4);  // packs nothing: all poison
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.elems()[i], rvv::kTailPoison<std::uint32_t>);
    }
  }
  EXPECT_EQ(rvv::vredsum_m(none, v, 4, 100u), 100u);  // only the seed survives
  EXPECT_EQ(rvv::vcpop(none, 4), 0u);
  EXPECT_EQ(rvv::vfirst(none, 4), -1);
}

TEST(FuzzRegressions, SegPlusScanEmptyAndAllHeads) {
  rvv::Machine machine({.vlen_bits = 256});
  rvv::MachineScope scope(machine);
  // n = 0: a no-op, not a crash.
  std::vector<std::uint32_t> empty;
  svm::seg_plus_scan<std::uint32_t>(std::span<std::uint32_t>(empty),
                                    std::span<const std::uint32_t>(empty));
  // Every element its own segment: the scan is the identity map.
  std::vector<std::uint32_t> data{4, 5, 6, 7};
  const std::vector<std::uint32_t> all_heads(4, 1);
  svm::seg_plus_scan<std::uint32_t>(std::span<std::uint32_t>(data),
                                    std::span<const std::uint32_t>(all_heads));
  EXPECT_EQ(data, (std::vector<std::uint32_t>{4, 5, 6, 7}));
}

// --- par:: degenerate shapes ------------------------------------------------

TEST(FuzzRegressions, ParDegenerateShapesMatchSvm) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    // shard_size = 64 > n: fewer shards than harts.
    par::HartPool pool(
        {.harts = 4, .shard_size = 64, .machine = {.vlen_bits = 256}});
    par::HartPool one(
        {.harts = 1, .shard_size = 64, .machine = {.vlen_bits = 256}});
    std::vector<std::uint32_t> a(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 3 + 1);
    std::vector<std::uint32_t> pooled(a), single(a), reference(a);
    par::plus_scan<std::uint32_t>(pool, std::span<std::uint32_t>(pooled));
    par::plus_scan<std::uint32_t>(one, std::span<std::uint32_t>(single));
    {
      rvv::Machine machine({.vlen_bits = 256});
      rvv::MachineScope scope(machine);
      svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(reference));
    }
    EXPECT_EQ(pooled, reference) << "n = " << n;
    EXPECT_EQ(single, reference) << "n = " << n;
    // Merged counts are a function of (n, shard_size), not hart count.
    for (std::size_t k = 0; k < sim::kNumInstClasses; ++k) {
      const auto cls = static_cast<sim::InstClass>(k);
      EXPECT_EQ(pool.merged_counts().count(cls), one.merged_counts().count(cls))
          << "n = " << n << ", class " << sim::to_string(cls);
    }
  }
}

// --- tune layer: deterministic oracle smoke + count-optimality pin ---------

TEST(FuzzRegressions, TuneLayerSmoke) {
  // No divergence has been shrunk out of the tune layer yet; this keeps a
  // deterministic slice of it running in the unit suite so a regression
  // fails here first, with the oracle's reproducer output.
  for (const char* prop : {"tune.identity", "tune.invalidate", "tune.determinism"}) {
    ASSERT_NE(check::find_property(prop), nullptr) << prop;
    check::FuzzOptions opts;
    opts.seed = 20250809;
    opts.iters = 5;
    opts.layer = prop;
    opts.shrink = false;
    const auto report = check::fuzz(opts);
    EXPECT_TRUE(report.failures.empty()) << prop;
  }
}

TEST(FuzzRegressions, TunedScanNeverLosesToTheStaticEndpoints) {
  // The n=64 / VLEN=1024 cell: one LMUL=2 strip covers it, so both static
  // extremes (LMUL=1's eight strips, LMUL=8's oversized groups) waste work.
  // The tuned call must match or beat both — by construction it picked the
  // count-minimal candidate for this key.
  const std::size_t n = 64;
  const auto run = [&](auto kernel) {
    rvv::Machine machine({.vlen_bits = 1024});
    rvv::MachineScope scope(machine);
    std::vector<std::uint32_t> data(n, 3);
    kernel(data);
    return machine.counter().total();
  };
  tune::AutoTuner tuner;
  tune::TunerScope ts(tuner);
  const auto tuned = run([](std::vector<std::uint32_t>& d) {
    svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(d));
  });
  const auto l1 = run([](std::vector<std::uint32_t>& d) {
    svm::plus_scan<std::uint32_t, 1>(std::span<std::uint32_t>(d));
  });
  const auto l8 = run([](std::vector<std::uint32_t>& d) {
    svm::plus_scan<std::uint32_t, 8>(std::span<std::uint32_t>(d));
  });
  EXPECT_LE(tuned, l1);
  EXPECT_LE(tuned, l8);
  EXPECT_LT(tuned, l1);  // eight strips vs one is never a tie
}

// --- shrinker sanity --------------------------------------------------------

TEST(FuzzOracle, ShrinkerPreservesFailureAndShrinks) {
  // A synthetic property that fails whenever vl >= 10 and a is non-empty.
  check::Property prop;
  prop.name = "synthetic";
  prop.layer = "svm";
  prop.gen = [](check::Rng&) { return check::Case{}; };
  prop.check = [](const check::Case& c) -> std::string {
    return (c.vl >= 10 && !c.a.empty()) ? "boom" : "";
  };
  check::Case failing;
  failing.vl = 1000;
  failing.a.assign(500, 42);
  failing.b.assign(500, 7);
  const auto shrunk = check::shrink_case(prop, failing);
  EXPECT_NE(prop.check(shrunk), "");  // still failing
  EXPECT_LE(shrunk.vl, 19u);          // halve + decrement descend near 10
  EXPECT_LE(shrunk.a.size(), 1u);
  EXPECT_TRUE(shrunk.b.empty());
  const auto code = check::reproducer_code(prop, shrunk, "Synthetic");
  EXPECT_NE(code.find("TEST(FuzzRegressions, Synthetic)"), std::string::npos);
  EXPECT_NE(code.find("run_property(\"synthetic\""), std::string::npos);
}

// --- pinned snapshot-layer cases (svm_fuzz --layer snap) --------------------

// Empty problem: a machine that never ran a kernel still round-trips with an
// empty-but-valid cache image and a tuner section with zero winners.
TEST(FuzzRegressions, SnapRoundTripEmptyMachine) {
  check::Case c;
  c.vlen = 1024;
  c.sew = 32;
  c.lmul = 1;
  c.vl = 0;
  EXPECT_EQ(check::run_property("snap.roundtrip", c), "");
}

// The pressure configuration at its most spill-heavy: LMUL=8 on a VLEN=128
// machine with the register-pressure model on (offset bit 0) — register-file
// telemetry and spill counters must survive the round trip bit-for-bit.
TEST(FuzzRegressions, SnapRoundTripSpillHeavyShape) {
  check::Case c;
  c.vlen = 128;
  c.sew = 64;
  c.lmul = 8;
  c.vl = 777;
  c.offset = 1;  // pressure model on
  c.scalar = 1;  // segmented scan workload
  c.a.assign(777, 5);
  c.b.assign(777, 1);
  EXPECT_EQ(check::run_property("snap.roundtrip", c), "");
}

// Chaos bracket with a hart-crash-style fault (offset bit 2) landing on the
// very first instruction: rollback must still reproduce the golden pass.
TEST(FuzzRegressions, SnapCheckpointRollbackCrashAtFirstInstruction) {
  check::Case c;
  c.vlen = 256;
  c.sew = 32;
  c.lmul = 2;
  c.vl = 300;
  c.offset = 4;  // crash channel, trap_at_instruction = 1 + (4 % 64) = 5
  c.a.assign(300, 9);
  EXPECT_EQ(check::run_property("snap.checkpoint_rollback", c), "");
}

// Truncation landing exactly on the header boundary (offset chooses the cut
// point modulo the blob size) plus a bit flip deep in a section payload.
TEST(FuzzRegressions, SnapRejectTruncationAtHeaderBoundary) {
  check::Case c;
  c.vlen = 512;
  c.sew = 32;
  c.lmul = 1;
  c.vl = 64;
  c.offset = 24;      // cut right after the container header
  c.scalar = 999983;  // prime: lands the bit flip mid-payload
  c.a.assign(64, 1);
  EXPECT_EQ(check::run_property("snap.reject_mismatch", c), "");
}

}  // namespace
