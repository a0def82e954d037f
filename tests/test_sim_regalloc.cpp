// Unit tests for the vector register-file pressure model — the mechanism
// behind the paper's Table 5 LMUL anomaly.
#include <gtest/gtest.h>

#include <vector>

#include "sim/regfile_model.hpp"

namespace {

using namespace rvvsvm::sim;

class RegAllocTest : public ::testing::Test {
 protected:
  InstCounter counter;
  VRegFileModel model{counter};

  ValueId def(unsigned lmul) {
    model.begin_inst();
    const auto id = model.define(lmul);
    model.end_inst();
    return id;
  }
  void use(ValueId v) {
    model.begin_inst();
    model.use(v);
    model.end_inst();
  }
  std::uint64_t spill_instrs() const {
    return counter.count(InstClass::kVectorSpill);
  }
  std::uint64_t reload_instrs() const {
    return counter.count(InstClass::kVectorReload);
  }
};

TEST_F(RegAllocTest, DefinesWithoutPressureAreFree) {
  for (int i = 0; i < 31; ++i) def(1);  // v1..v31
  EXPECT_EQ(model.spill_count(), 0u);
  EXPECT_EQ(model.live_values(), 31u);
  EXPECT_EQ(model.resident_values(), 31u);
  EXPECT_EQ(counter.total(), 0u);  // allocation itself retires nothing
}

TEST_F(RegAllocTest, ThirtySecondLmul1ValueSpills) {
  std::vector<ValueId> ids;
  for (int i = 0; i < 31; ++i) ids.push_back(def(1));
  def(1);  // v0 is reserved: only 31 allocatable registers
  EXPECT_EQ(model.spill_count(), 1u);
  EXPECT_EQ(spill_instrs(), 1u);  // LMUL=1 spill = one vs1r.v
}

TEST_F(RegAllocTest, ReleaseFreesWithoutTraffic) {
  std::vector<ValueId> ids;
  for (int i = 0; i < 31; ++i) ids.push_back(def(1));
  for (const auto id : ids) model.release(id);
  EXPECT_EQ(model.live_values(), 0u);
  def(1);
  EXPECT_EQ(model.spill_count(), 0u);
}

TEST_F(RegAllocTest, ReleaseIsIdempotentAndIgnoresNoValue) {
  const auto id = def(1);
  model.release(id);
  model.release(id);       // already gone
  model.release(kNoValue); // sentinel
  EXPECT_EQ(model.live_values(), 0u);
}

TEST_F(RegAllocTest, Lmul8HasOnlyThreeGroups) {
  def(8);
  def(8);
  def(8);  // v8, v16, v24 (v0-7 blocked by the v0 reservation)
  EXPECT_EQ(model.spill_count(), 0u);
  def(8);  // no fourth aligned group: must evict one whole group
  EXPECT_EQ(model.spill_count(), 1u);
  EXPECT_EQ(spill_instrs(), 8u);  // LMUL=8 spill = eight vs1r.v moves
}

TEST_F(RegAllocTest, Lmul4SevenGroupsFit) {
  for (int i = 0; i < 7; ++i) def(4);  // v4..v28
  EXPECT_EQ(model.spill_count(), 0u);
  def(4);
  EXPECT_EQ(model.spill_count(), 1u);
  EXPECT_EQ(spill_instrs(), 4u);
}

TEST_F(RegAllocTest, MixedLmulAlignmentRespected) {
  // One LMUL=1 value placed low should not block an LMUL=8 group at v8+.
  def(1);  // lands in v1
  def(8);
  def(8);
  def(8);
  EXPECT_EQ(model.spill_count(), 0u);
  EXPECT_EQ(model.peak_registers(), 25u);
}

TEST_F(RegAllocTest, UseAfterSpillReloads) {
  const auto a = def(8);
  def(8);
  def(8);
  def(8);  // evicts one (LRU: a)
  EXPECT_EQ(model.spill_count(), 1u);
  use(a);  // a must come back, evicting another
  EXPECT_EQ(model.reload_count(), 1u);
  EXPECT_EQ(reload_instrs(), 8u);
  EXPECT_EQ(model.spill_count(), 2u);
}

TEST_F(RegAllocTest, LruPrefersStaleValues) {
  const auto a = def(8);
  const auto b = def(8);
  const auto c = def(8);
  use(a);
  use(c);
  def(8);  // b is least recently used: it should be the victim
  use(a);  // no reload needed if a stayed resident
  use(c);
  EXPECT_EQ(model.reload_count(), 0u);
  use(b);  // spilled: reload
  EXPECT_EQ(model.reload_count(), 1u);
}

TEST_F(RegAllocTest, PinnedOperandsAreNotEvicted) {
  const auto a = def(8);
  const auto b = def(8);
  def(8);
  // One instruction using a and b and defining an LMUL=8 result: the only
  // evictable value is the third one even though it is most recently used.
  model.begin_inst();
  model.use(a);
  model.use(b);
  const auto d = model.define(8);
  model.end_inst();
  EXPECT_NE(d, kNoValue);
  EXPECT_EQ(model.spill_count(), 1u);
  use(a);
  use(b);
  EXPECT_EQ(model.reload_count(), 0u);  // a and b stayed put
}

TEST_F(RegAllocTest, ImpossiblePressureThrows) {
  // Four pinned LMUL=8 operands cannot coexist: only 3 groups exist.
  const auto a = def(8);
  const auto b = def(8);
  const auto c = def(8);
  model.begin_inst();
  model.use(a);
  model.use(b);
  model.use(c);
  EXPECT_THROW(static_cast<void>(model.define(8)), std::logic_error);
  model.end_inst();
}

TEST_F(RegAllocTest, InvalidLmulRejected) {
  EXPECT_THROW(static_cast<void>(model.define(3)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(model.define(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(model.define(16)), std::invalid_argument);
}

TEST_F(RegAllocTest, UseOfUnknownValueThrows) {
  EXPECT_THROW(model.use(12345), std::logic_error);
}

TEST_F(RegAllocTest, MaskMaterializationChargesOneMovePerSwitch) {
  const auto m1 = def(1);
  const auto m2 = def(1);
  model.begin_inst();
  model.use_as_mask(m1);
  model.end_inst();
  EXPECT_EQ(counter.count(InstClass::kVectorMove), 1u);
  model.begin_inst();
  model.use_as_mask(m1);  // same mask already in v0: free
  model.end_inst();
  EXPECT_EQ(counter.count(InstClass::kVectorMove), 1u);
  model.begin_inst();
  model.use_as_mask(m2);  // switch: one vmv
  model.end_inst();
  EXPECT_EQ(counter.count(InstClass::kVectorMove), 2u);
}

TEST_F(RegAllocTest, ReleasingActiveMaskForcesRematerialization) {
  const auto m1 = def(1);
  model.begin_inst();
  model.use_as_mask(m1);
  model.end_inst();
  model.release(m1);
  const auto m2 = def(1);
  model.begin_inst();
  model.use_as_mask(m2);
  model.end_inst();
  EXPECT_EQ(counter.count(InstClass::kVectorMove), 2u);
}

TEST_F(RegAllocTest, PeakRegistersTracksHighWater) {
  const auto a = def(8);
  def(4);
  EXPECT_EQ(model.peak_registers(), 12u);
  model.release(a);
  def(2);
  EXPECT_EQ(model.peak_registers(), 12u);  // high-water unchanged
}

TEST_F(RegAllocTest, TraceRecordsEventsPerInstruction) {
  std::vector<std::string> lines;
  model.set_trace_sink([&](const std::string& l) { lines.push_back(l); });
  const auto a = def(8);  // #1 def v8:m8
  const auto b = def(8);  // #2 def v16:m8
  def(8);                 // #3 def v24:m8
  def(8);                 // #4 spill + def
  use(a);                 // #5 use (possibly with reload)
  static_cast<void>(b);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "#1 def v8:m8");
  EXPECT_EQ(lines[1], "#2 def v16:m8");
  EXPECT_EQ(lines[2], "#3 def v24:m8");
  EXPECT_NE(lines[3].find("spill"), std::string::npos);
  EXPECT_NE(lines[3].find("def"), std::string::npos);
  EXPECT_NE(lines[4].find("use"), std::string::npos);
}

TEST_F(RegAllocTest, TraceDoesNotChangeCounts) {
  // Run the same sequence with and without a sink: identical counters.
  const auto run = [](bool with_sink) {
    InstCounter local_counter;
    VRegFileModel local_model(local_counter);
    if (with_sink) local_model.set_trace_sink([](const std::string&) {});
    std::vector<ValueId> ids;
    for (int i = 0; i < 5; ++i) {
      local_model.begin_inst();
      ids.push_back(local_model.define(8));
      local_model.end_inst();
    }
    for (const auto id : ids) {
      local_model.begin_inst();
      local_model.use(id);
      local_model.end_inst();
    }
    return local_counter.total();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
