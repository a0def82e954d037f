// Unit tests for the (VLEN, LMUL, hart-count) autotuner: cache keying,
// n-bucket boundaries, replay stability, scope isolation, reconfiguration
// invalidation, the opt-out path, and the cost model's round trip.  The
// end-to-end contract (tuned call == pinned call, bit for bit) lives in the
// tune fuzz layer (src/check/properties_tune.cpp); these tests pin the
// tuner's own mechanics with hand-built measurement callbacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "svm/svm.hpp"
#include "tune/autotuner.hpp"
#include "tune/cost_model.hpp"
#include "tune/shape.hpp"

namespace {

using namespace rvvsvm;

tune::Key key_of(tune::Shape shape, unsigned bucket, unsigned sew, unsigned vlen,
                 unsigned harts) {
  return tune::Key{.shape = shape, .bucket = bucket, .sew = sew, .vlen = vlen,
                   .harts = harts};
}

/// Measurement stub: answers from a fixed LMUL -> counts table and records
/// how often each candidate was run.  Mechanics tests pair it with shapes
/// the committed cost model does NOT cover (flags, copy, pack, ...), so a
/// model refit can never prune a candidate out from under an assertion.
struct FakeMeasure {
  std::map<unsigned, std::uint64_t> counts;
  mutable std::map<unsigned, unsigned> calls;

  std::uint64_t operator()(unsigned lmul) const {
    ++calls[lmul];
    const auto it = counts.find(lmul);
    return it == counts.end() ? 1000 : it->second;
  }
};

TEST(AutoTuner, PicksTheMinimumCountCandidate) {
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 90}, {2, 70}, {4, 50}, {8, 60}}, .calls = {}};
  const auto key = key_of(tune::Shape::kScanExclusive, 6, 32, 1024, 1);
  EXPECT_EQ(tuner.choose(key, measure), 4u);
  EXPECT_EQ(tuner.lookup(key), 4u);
}

TEST(AutoTuner, TiesBreakTowardTheSmallerLmul) {
  // Equal counts: the smaller LMUL holds fewer registers for the same work.
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 50}, {2, 50}, {4, 50}, {8, 50}}, .calls = {}};
  EXPECT_EQ(tuner.choose(key_of(tune::Shape::kCopy, 4, 32, 512, 1), measure), 1u);
}

TEST(AutoTuner, CacheHitsSkipMeasurement) {
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 10}, {2, 20}, {4, 30}, {8, 40}}, .calls = {}};
  const auto key = key_of(tune::Shape::kGetFlags, 8, 32, 256, 1);
  EXPECT_EQ(tuner.choose(key, measure), 1u);
  const unsigned first_runs = measure.calls[1];
  EXPECT_EQ(tuner.choose(key, measure), 1u);
  EXPECT_EQ(measure.calls[1], first_runs);  // replayed, not re-measured
  const tune::Stats s = tuner.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(AutoTuner, EveryKeyFieldSeparatesCacheEntries) {
  // Winner depends on the key: flipping any one field must re-measure.
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 10}, {2, 20}, {4, 30}, {8, 40}}, .calls = {}};
  const auto base = key_of(tune::Shape::kFlagVv, 6, 32, 1024, 1);
  static_cast<void>(tuner.choose(base, measure));
  for (const auto& variant :
       {key_of(tune::Shape::kFlagVx, 6, 32, 1024, 1),  // shape
        key_of(tune::Shape::kFlagVv, 7, 32, 1024, 1),  // n bucket
        key_of(tune::Shape::kFlagVv, 6, 64, 1024, 1),  // SEW
        key_of(tune::Shape::kFlagVv, 6, 32, 512, 1),   // VLEN
        key_of(tune::Shape::kFlagVv, 6, 32, 1024, 4)}) {  // harts
    static_cast<void>(tuner.choose(variant, measure));
  }
  EXPECT_EQ(tuner.stats().misses, 6u);
  EXPECT_EQ(tuner.winners().size(), 6u);
  // And replaying the original key is still a hit.
  static_cast<void>(tuner.choose(base, measure));
  EXPECT_EQ(tuner.stats().hits, 1u);
}

TEST(AutoTuner, NBucketBoundaries) {
  EXPECT_EQ(tune::n_bucket(1), 0u);
  EXPECT_EQ(tune::n_bucket(2), 1u);
  EXPECT_EQ(tune::n_bucket(63), 5u);
  EXPECT_EQ(tune::n_bucket(64), 6u);
  EXPECT_EQ(tune::n_bucket(127), 6u);
  EXPECT_EQ(tune::n_bucket(128), 7u);
  // The cap bounds the bucket (and the measurement size) for huge requests.
  EXPECT_EQ(tune::n_bucket(std::size_t{1} << 40), tune::kMaxBucket);
  EXPECT_EQ(tune::representative_n(100), 64u);
  EXPECT_EQ(tune::representative_n(std::size_t{1} << 40), tune::kMaxMeasureN);
}

TEST(AutoTuner, InvalidateDropsEveryWinner) {
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 10}, {2, 20}, {4, 30}, {8, 40}}, .calls = {}};
  const auto key = key_of(tune::Shape::kPack, 5, 16, 128, 1);
  static_cast<void>(tuner.choose(key, measure));
  EXPECT_EQ(tuner.lookup(key), 1u);
  tuner.invalidate();
  EXPECT_EQ(tuner.lookup(key), 0u);
  static_cast<void>(tuner.choose(key, measure));
  EXPECT_EQ(tuner.stats().misses, 2u);
}

TEST(AutoTuner, MachineReconfigurationInvalidatesOnNextLookup) {
  // Dropping a machine's execution caches bumps the global reconfigure
  // epoch; every tuner (not just the hooked global one) re-checks it.
  rvv::Machine machine({.vlen_bits = 512});
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 10}, {2, 20}, {4, 30}, {8, 40}}, .calls = {}};
  const auto key = key_of(tune::Shape::kCopy, 7, 32, 512, 1);
  static_cast<void>(tuner.choose(key, measure));
  static_cast<void>(tuner.choose(key, measure));
  EXPECT_EQ(tuner.stats().hits, 1u);
  machine.invalidate_exec_caches();
  static_cast<void>(tuner.choose(key, measure));
  EXPECT_EQ(tuner.stats().misses, 2u);
}

TEST(AutoTuner, CachedAnswersOnlyHitsAndCountsThemLikeChoose) {
  // The kernels' hit path: a miss answers 0 and counts nothing (choose()
  // then counts it), a hit counts once, the reconfigure epoch drops stale
  // winners, and a disabled tuner answers 1 without counting.
  rvv::Machine machine({.vlen_bits = 512});
  tune::AutoTuner tuner;
  const FakeMeasure measure{.counts = {{1, 40}, {2, 20}, {4, 30}, {8, 50}}, .calls = {}};
  const auto key = key_of(tune::Shape::kCopy, 8, 32, 512, 1);
  EXPECT_EQ(tuner.cached(key), 0u);
  EXPECT_EQ(tuner.stats().hits + tuner.stats().misses, 0u);
  EXPECT_EQ(tuner.choose(key, measure), 2u);
  EXPECT_EQ(tuner.cached(key), 2u);
  EXPECT_EQ(tuner.stats().hits, 1u);
  EXPECT_EQ(tuner.stats().misses, 1u);
  machine.invalidate_exec_caches();
  EXPECT_EQ(tuner.cached(key), 0u);
  tuner.set_enabled(false);
  EXPECT_EQ(tuner.cached(key), 1u);
  EXPECT_EQ(tuner.stats().hits, 1u);
  EXPECT_EQ(tuner.stats().misses, 1u);
}

TEST(AutoTuner, DisabledTunerAnswersLmul1WithoutCaching) {
  tune::AutoTuner tuner;
  tuner.set_enabled(false);
  const FakeMeasure measure{.counts = {{1, 90}, {2, 70}, {4, 50}, {8, 40}}, .calls = {}};
  const auto key = key_of(tune::Shape::kGather, 6, 32, 1024, 1);
  EXPECT_EQ(tuner.choose(key, measure), 1u);
  EXPECT_TRUE(measure.calls.empty());
  EXPECT_EQ(tuner.lookup(key), 0u);
}

TEST(AutoTuner, TunerScopeOverridesAndRestores) {
  tune::AutoTuner outer;
  tune::AutoTuner inner;
  EXPECT_EQ(&tune::AutoTuner::active(), &tune::AutoTuner::global());
  {
    tune::TunerScope outer_scope(outer);
    EXPECT_EQ(&tune::AutoTuner::active(), &outer);
    {
      tune::TunerScope inner_scope(inner);
      EXPECT_EQ(&tune::AutoTuner::active(), &inner);
    }
    EXPECT_EQ(&tune::AutoTuner::active(), &outer);
  }
  EXPECT_EQ(&tune::AutoTuner::active(), &tune::AutoTuner::global());
}

TEST(AutoTuner, SharedTunerIsThreadSafe) {
  // Many threads racing the same key: choose() holds the lock across
  // measurement, so exactly one miss measures and everyone agrees after.
  tune::AutoTuner tuner;
  const auto key = key_of(tune::Shape::kEnumerate, 9, 32, 1024, 1);
  std::vector<std::thread> threads;
  std::vector<unsigned> answers(8, 0);
  for (std::size_t t = 0; t < answers.size(); ++t) {
    threads.emplace_back([&, t] {
      const FakeMeasure measure{.counts = {{1, 40}, {2, 20}, {4, 30}, {8, 50}}, .calls = {}};
      answers[t] = tuner.choose(key, measure);
    });
  }
  for (auto& th : threads) th.join();
  for (const unsigned a : answers) EXPECT_EQ(a, 2u);
  EXPECT_EQ(tuner.stats().misses, 1u);
  EXPECT_EQ(tuner.stats().hits, answers.size() - 1);
}

TEST(AutoTuner, TunedKernelReplaysAreStable) {
  // End to end through a real kernel: the second tuned call hits the cache
  // and the recorded winner matches what lookup() reports.
  rvv::Machine machine({.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  tune::AutoTuner tuner;
  tune::TunerScope ts(tuner);
  std::vector<std::uint32_t> data(1000, 1);
  svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(data));
  const unsigned winner = tuner.lookup(
      key_of(tune::Shape::kScanInclusive, tune::n_bucket(1000), 32, 1024, 1));
  ASSERT_NE(winner, 0u);
  std::vector<std::uint32_t> again(1000, 1);
  svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(again));
  EXPECT_EQ(tuner.stats().hits, 1u);
  EXPECT_EQ(tuner.stats().misses, 1u);
  EXPECT_EQ(data, again);
}

TEST(AutoTuner, LargeNSingleStripPrefersLargeLmul) {
  // n = VLMAX(LMUL=8): LMUL=8 runs one strip where LMUL=1 runs eight, so
  // measurement must land on 8 (the unsegmented scan never spills).
  rvv::Machine machine({.vlen_bits = 1024});
  rvv::MachineScope scope(machine);
  tune::AutoTuner tuner;
  tune::TunerScope ts(tuner);
  std::vector<std::uint32_t> data(256, 1);
  svm::plus_scan<std::uint32_t>(std::span<std::uint32_t>(data));
  EXPECT_EQ(tuner.lookup(key_of(tune::Shape::kScanInclusive,
                                tune::n_bucket(256), 32, 1024, 1)),
            8u);
}

TEST(CostModel, JsonRoundTripPreservesCoefficients) {
  tune::CostModel model;
  model.set(tune::Shape::kScanInclusive, 1,
            {.base = 1.0, .per_block = 36.0, .per_block_log = 5.0, .valid = true});
  model.set(tune::Shape::kScanInclusive, 8,
            {.base = 1.0, .per_block = 11.0, .per_block_log = 5.0, .valid = true});
  std::ostringstream os;
  model.write_json(os);
  std::istringstream is(os.str());
  const tune::CostModel parsed = tune::CostModel::from_json(is);
  for (const unsigned lmul : {1u, 8u}) {
    const auto& want = model.coefficients(tune::Shape::kScanInclusive, lmul);
    const auto& got = parsed.coefficients(tune::Shape::kScanInclusive, lmul);
    EXPECT_TRUE(got.valid);
    EXPECT_DOUBLE_EQ(got.base, want.base);
    EXPECT_DOUBLE_EQ(got.per_block, want.per_block);
    EXPECT_DOUBLE_EQ(got.per_block_log, want.per_block_log);
  }
  EXPECT_FALSE(parsed.coefficients(tune::Shape::kScanInclusive, 2).valid);
  EXPECT_FALSE(parsed.covers(tune::Shape::kScanInclusive));
}

TEST(CostModel, PredictMirrorsTheStripMineStructure) {
  tune::CostModel model;
  model.set(tune::Shape::kScanInclusive, 1,
            {.base = 1.0, .per_block = 11.0, .per_block_log = 5.0, .valid = true});
  // VLEN=1024 e32 LMUL=1: VLMAX = 32, so n = 320 is 10 blocks of depth 5.
  EXPECT_DOUBLE_EQ(model.predict(tune::Shape::kScanInclusive, 1, 320, 1024, 32),
                   1.0 + 10.0 * (11.0 + 5.0 * 5.0));
  // n = 0 degrades to the base term.
  EXPECT_DOUBLE_EQ(model.predict(tune::Shape::kScanInclusive, 1, 0, 1024, 32), 1.0);
}

TEST(CostModel, MalformedJsonThrowsAndUnknownShapesAreSkipped) {
  std::istringstream bad("{\"shapes\": {\"scan_inclusive\": ");
  EXPECT_THROW(static_cast<void>(tune::CostModel::from_json(bad)),
               std::runtime_error);
  std::istringstream unknown(
      "{\"version\": 1, \"shapes\": {\"no_such_shape\": {\"1\": [1, 2, 3]}}}");
  EXPECT_TRUE(tune::CostModel::from_json(unknown).empty());
}

}  // namespace
