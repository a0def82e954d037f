// Machine snapshot/restore (src/snap): directed tests for the container
// format, the bit-identical warm-start guarantee, pool round-trips at every
// hart count, the serve cold-start path, the epoch protocol that keeps
// stale pre-restore caches from replaying, and — the corruption-robustness
// suite — a sweep that truncates a snapshot at every byte boundary and
// flips every bit, requiring a typed SnapshotTrap and an untouched target
// machine for each corruption.
//
// The snap fuzz layer (src/check/properties_snap.cpp) covers the same
// contracts over random shapes; these tests pin each mechanism exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "check/fault_injection.hpp"
#include "par/par.hpp"
#include "rvv/reconfigure.hpp"
#include "rvv/rvv.hpp"
#include "serve/service.hpp"
#include "snap/snapshot.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

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
        << what << ": class " << sim::to_string(cls);
  }
}

/// Warm a machine: two passes promote the strip-mine trace to stable, and
/// the second pass replays it.
void warm(rvv::Machine& m, std::size_t n = 3000) {
  rvv::MachineScope scope(m);
  for (int pass = 0; pass < 2; ++pass) {
    auto d = iota_data(n);
    svm::plus_scan<u32, 2>(std::span<u32>(d));
  }
}

/// One measured kernel run; returns the count delta.
sim::CountSnapshot run_once(rvv::Machine& m, std::size_t n = 3000) {
  rvv::MachineScope scope(m);
  const sim::CountSnapshot pre = m.counter().snapshot();
  auto d = iota_data(n);
  svm::plus_scan<u32, 2>(std::span<u32>(d));
  return m.counter().snapshot() - pre;
}

// --- container format -------------------------------------------------------

TEST(SnapshotFormat, InspectReportsVersionAndSections) {
  rvv::Machine m({.vlen_bits = 256});
  const snap::Blob blob = snap::save_machine(m);
  const snap::Info info = snap::inspect(blob);
  EXPECT_EQ(info.version, snap::kFormatVersion);
  ASSERT_EQ(info.sections.size(), 1u);
  EXPECT_EQ(info.sections[0].id, snap::kSectionMachine);
  EXPECT_GT(info.sections[0].size, 0u);
}

TEST(SnapshotFormat, TunerSectionAppearsWhenRequested) {
  rvv::Machine m({.vlen_bits = 256});
  tune::AutoTuner tuner;
  const snap::Blob blob = snap::save_machine(m, &tuner);
  const snap::Info info = snap::inspect(blob);
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[1].id, snap::kSectionTuner);
}

TEST(SnapshotFormat, FileRoundTrip) {
  rvv::Machine m({.vlen_bits = 128});
  warm(m);
  const snap::Blob blob = snap::save_machine(m);
  const std::string path = ::testing::TempDir() + "snap_file_roundtrip.snap";
  snap::write_file(path, blob);
  EXPECT_EQ(snap::read_file(path), blob);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, WriteFileReplacesAtomically) {
  // write_file goes through <path>.tmp + rename, so a rewrite either fully
  // lands or leaves the previous file intact — and never leaves the .tmp.
  rvv::Machine m({.vlen_bits = 128});
  const snap::Blob first = snap::save_machine(m);
  warm(m);
  const snap::Blob second = snap::save_machine(m);
  const std::string path = ::testing::TempDir() + "snap_atomic_replace.snap";
  snap::write_file(path, first);
  snap::write_file(path, second);
  EXPECT_EQ(snap::read_file(path), second);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file left behind after rename";
  if (tmp != nullptr) static_cast<void>(std::fclose(tmp));
  std::remove(path.c_str());
}

TEST(SnapshotFormat, WriteFileUnwritablePathTrapsCleanly) {
  rvv::Machine m({.vlen_bits = 128});
  const snap::Blob blob = snap::save_machine(m);
  const std::string path = "/nonexistent-dir-for-snap-test/machine.snap";
  EXPECT_THROW(snap::write_file(path, blob), SnapshotTrap);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "unwritable path produced a file";
  if (f != nullptr) static_cast<void>(std::fclose(f));
}

TEST(SnapshotFormat, TrailingBytesRejected) {
  rvv::Machine m({.vlen_bits = 128});
  snap::Blob blob = snap::save_machine(m);
  blob.push_back(0);
  rvv::Machine target({.vlen_bits = 128});
  EXPECT_THROW(snap::restore_machine(target, blob), SnapshotTrap);
}

// --- machine round-trip -----------------------------------------------------

TEST(SnapshotMachine, EmptyMachineRoundTrip) {
  rvv::Machine a({.vlen_bits = 512});
  const snap::Blob blob = snap::save_machine(a);
  rvv::Machine b({.vlen_bits = 512});
  snap::restore_machine(b, blob);
  expect_same_counts(b.counter().snapshot(), a.counter().snapshot(), "empty");
  // Both machines behave identically from here.
  expect_same_counts(run_once(b), run_once(a), "first run after restore");
}

TEST(SnapshotMachine, WarmedMachineRoundTripBitIdentical) {
  rvv::Machine a({.vlen_bits = 256});
  warm(a);
  const snap::Blob blob = snap::save_machine(a);

  rvv::Machine b({.vlen_bits = 256});
  snap::restore_machine(b, blob);
  expect_same_counts(b.counter().snapshot(), a.counter().snapshot(),
                     "restored ledger");
  EXPECT_GT(b.exec_cache().pending_trace_count() +
                b.exec_cache().pending_decoded_count(),
            0u)
      << "a warmed snapshot should park cache content for adoption";

  // The restored machine reruns the kernel bit-identically in counts, and
  // the parked trace is adopted (stable after its first live recording).
  expect_same_counts(run_once(b), run_once(a), "rerun");
  EXPECT_GT(b.exec_cache().stats().trace_adoptions, 0u);
  expect_same_counts(run_once(b), run_once(a), "second rerun");
}

TEST(SnapshotMachine, RestoredEqualsFreshMachineCounts) {
  // regen_tables builds fresh machines; a restored machine must charge the
  // same counts for the same kernel or the paper tables would drift.
  rvv::Machine fresh({.vlen_bits = 256});
  warm(fresh);

  rvv::Machine source({.vlen_bits = 256});
  warm(source);
  rvv::Machine restored({.vlen_bits = 256});
  snap::restore_machine(restored, snap::save_machine(source));

  expect_same_counts(run_once(restored), run_once(fresh),
                     "restored vs fresh kernel run");
}

TEST(SnapshotMachine, RegfileTelemetryRoundTrips) {
  rvv::Machine a({.vlen_bits = 128, .model_register_pressure = true});
  {
    // LMUL=8 at VLEN=128 puts real pressure on the file: spills happen.
    rvv::MachineScope scope(a);
    auto d = iota_data(2000);
    std::vector<u32> flags(d.size(), 0);
    for (std::size_t i = 0; i < flags.size(); i += 97) flags[i] = 1;
    svm::seg_plus_scan<u32, 8>(std::span<u32>(d), std::span<const u32>(flags));
  }
  ASSERT_NE(a.regfile(), nullptr);
  rvv::Machine b({.vlen_bits = 128, .model_register_pressure = true});
  snap::restore_machine(b, snap::save_machine(a));
  ASSERT_NE(b.regfile(), nullptr);
  EXPECT_EQ(b.regfile()->spill_count(), a.regfile()->spill_count());
  EXPECT_EQ(b.regfile()->reload_count(), a.regfile()->reload_count());
  EXPECT_EQ(b.regfile()->peak_registers(), a.regfile()->peak_registers());
}

TEST(SnapshotMachine, TunerCacheRoundTripsAndSkipsMeasurement) {
  const rvv::Machine::Config cfg{.vlen_bits = 256};
  tune::AutoTuner tuner;
  rvv::Machine a(cfg);
  {
    tune::TunerScope ts(tuner);
    rvv::MachineScope scope(a);
    auto d = iota_data(2000);
    svm::plus_scan<u32>(std::span<u32>(d));  // tuned: measures candidates
  }
  ASSERT_GT(tuner.stats().measurements, 0u);
  ASSERT_FALSE(tuner.winners().empty());

  tune::AutoTuner restored_tuner;
  rvv::Machine b(cfg);
  snap::restore_machine(b, snap::save_machine(a, &tuner), &restored_tuner);

  // The restored tuner replays the winner without re-measuring.
  {
    tune::TunerScope ts(restored_tuner);
    rvv::MachineScope scope(b);
    auto d = iota_data(2000);
    svm::plus_scan<u32>(std::span<u32>(d));
  }
  EXPECT_EQ(restored_tuner.stats().measurements, 0u);
  EXPECT_EQ(restored_tuner.stats().hits, 1u);
}

// --- epoch protocol ---------------------------------------------------------

TEST(SnapshotEpoch, RestoreInvalidatesPreRestoreState) {
  const rvv::Machine::Config cfg{.vlen_bits = 256};
  rvv::Machine source(cfg);
  warm(source);
  const snap::Blob blob = snap::save_machine(source);

  // The target is itself warm: live stable traces and a tuner cache keyed
  // to the pre-restore epoch.
  rvv::Machine target(cfg);
  warm(target);
  ASSERT_GT(target.exec_cache().trace_count(), 0u);
  tune::AutoTuner stale_tuner;
  {
    tune::TunerScope ts(stale_tuner);
    rvv::MachineScope scope(target);
    auto d = iota_data(2000);
    svm::plus_scan<u32>(std::span<u32>(d));
  }
  ASSERT_FALSE(stale_tuner.winners().empty());

  const u64 invalidations_before = target.exec_cache().stats().invalidations;
  const u64 epoch_before = rvv::reconfigure_epoch();
  snap::restore_machine(target, blob);

  // The restore went through the single invalidation path: epoch bumped,
  // live caches dropped (snapshot content is parked, not live).
  EXPECT_GT(rvv::reconfigure_epoch(), epoch_before);
  EXPECT_GT(target.exec_cache().stats().invalidations, invalidations_before);
  EXPECT_EQ(target.exec_cache().trace_count(), 0u);

  // A tuner that was NOT part of the restore sees the epoch bump and drops
  // its pre-restore winners instead of replaying them (stale cross-machine
  // state can never replay).
  {
    tune::TunerScope ts(stale_tuner);
    rvv::MachineScope scope(target);
    auto d = iota_data(2000);
    svm::plus_scan<u32>(std::span<u32>(d));
  }
  EXPECT_EQ(stale_tuner.stats().hits, 0u)
      << "pre-restore tuner entries replayed across the epoch bump";
}

// --- rejection and corruption robustness ------------------------------------

TEST(SnapshotReject, MismatchedConfigLeavesTargetUntouched) {
  rvv::Machine source({.vlen_bits = 256});
  warm(source);
  const snap::Blob blob = snap::save_machine(source);

  {
    rvv::Machine target({.vlen_bits = 512});
    warm(target);
    const sim::CountSnapshot before = target.counter().snapshot();
    EXPECT_THROW(snap::restore_machine(target, blob), SnapshotTrap);
    expect_same_counts(target.counter().snapshot(), before, "vlen mismatch");
  }
  {
    rvv::Machine target(
        {.vlen_bits = 256, .model_register_pressure = false});
    warm(target);
    const sim::CountSnapshot before = target.counter().snapshot();
    EXPECT_THROW(snap::restore_machine(target, blob), SnapshotTrap);
    expect_same_counts(target.counter().snapshot(), before,
                       "pressure mismatch");
  }
}

TEST(SnapshotReject, PoolSnapshotIntoMachineAndViceVersa) {
  rvv::Machine m({.vlen_bits = 128});
  const snap::Blob machine_blob = snap::save_machine(m);

  par::HartPool pool({.harts = 2, .shard_size = 64,
                      .machine = {.vlen_bits = 128}});
  const snap::Blob pool_blob = snap::save_pool(pool);

  rvv::Machine target({.vlen_bits = 128});
  EXPECT_THROW(snap::restore_machine(target, pool_blob), SnapshotTrap);
  par::HartPool pool2({.harts = 2, .shard_size = 64,
                       .machine = {.vlen_bits = 128}});
  EXPECT_THROW(snap::restore_pool(pool2, machine_blob), SnapshotTrap);
}

/// The corruption sweep: every truncation boundary and every flipped bit of
/// a real warmed snapshot must surface as SnapshotTrap — never UB, never a
/// partially restored machine.  Runs under ASan/UBSan in CI.
TEST(SnapshotCorruption, TruncationAtEveryByteRejected) {
  rvv::Machine source({.vlen_bits = 128});
  warm(source, 600);
  const snap::Blob blob = snap::save_machine(source);

  rvv::Machine target({.vlen_bits = 128});
  warm(target, 600);
  const sim::CountSnapshot before = target.counter().snapshot();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    snap::Blob cut(blob.begin(),
                   blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(snap::restore_machine(target, cut), SnapshotTrap)
        << "truncation to " << len << " bytes was accepted";
  }
  expect_same_counts(target.counter().snapshot(), before,
                     "target after truncation sweep");
  // The pristine blob still restores: the sweep did not damage the target.
  snap::restore_machine(target, blob);
  expect_same_counts(target.counter().snapshot(), source.counter().snapshot(),
                     "restore after sweep");
}

TEST(SnapshotCorruption, EveryBitFlipRejected) {
  // An empty machine keeps the blob small enough to flip every single bit.
  rvv::Machine source({.vlen_bits = 128});
  const snap::Blob blob = snap::save_machine(source);

  rvv::Machine target({.vlen_bits = 128});
  const sim::CountSnapshot before = target.counter().snapshot();
  for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
    snap::Blob bad = blob;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(snap::restore_machine(target, bad), SnapshotTrap)
        << "bit flip at " << bit << " was accepted";
  }
  expect_same_counts(target.counter().snapshot(), before,
                     "target after bit-flip sweep");
}

TEST(SnapshotCorruption, HeaderPayloadBitFlipsOnWarmSnapshot) {
  // The warmed-blob variant flips a stride of bits across header AND
  // section payloads (the full sweep would be slow at this size).
  rvv::Machine source({.vlen_bits = 128});
  warm(source, 600);
  const snap::Blob blob = snap::save_machine(source);
  rvv::Machine target({.vlen_bits = 128});
  for (std::size_t bit = 0; bit < blob.size() * 8; bit += 41) {
    snap::Blob bad = blob;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(snap::restore_machine(target, bad), SnapshotTrap)
        << "bit flip at " << bit << " was accepted";
  }
}

// --- crafted (CRC-valid) corruption -----------------------------------------
//
// The sweeps above are caught by the section CRCs, which anyone producing a
// snapshot file can recompute — so the field-range validation behind the
// CRCs must hold on CRC-valid input too.  These helpers re-derive enough of
// the version-2 layout (DESIGN.md §11) to patch one field and fix the CRC.

u32 crc32_ieee(const std::uint8_t* data, std::size_t size) {
  u32 crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

u32 u32_at(const snap::Blob& blob, std::size_t off) {
  u32 v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= u32{blob[off + i]} << (8 * i);
  return v;
}

void put_u32(snap::Blob& blob, std::size_t off, u32 v) {
  for (std::size_t i = 0; i < 4; ++i) {
    blob[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

struct SectionRef {
  u32 id = 0;
  std::size_t header = 0;   ///< offset of the section header
  std::size_t payload = 0;  ///< offset of the payload bytes
  std::size_t size = 0;
};

std::vector<SectionRef> section_refs(const snap::Blob& blob) {
  std::vector<SectionRef> refs;
  std::size_t pos = 24;  // container header: magic + version + flags + n + crc
  const u32 count = u32_at(blob, 16);
  for (u32 i = 0; i < count; ++i) {
    SectionRef ref;
    ref.id = u32_at(blob, pos);
    ref.header = pos;
    std::uint64_t size = 0;
    for (int b = 0; b < 8; ++b) {
      size |= std::uint64_t{blob[pos + 4 + static_cast<std::size_t>(b)]}
              << (8 * b);
    }
    ref.size = static_cast<std::size_t>(size);
    ref.payload = pos + 16;
    pos = ref.payload + ref.size;
    refs.push_back(ref);
  }
  return refs;
}

void fix_section_crc(snap::Blob& blob, const SectionRef& ref) {
  put_u32(blob, ref.header + 12, crc32_ieee(blob.data() + ref.payload, ref.size));
}

/// Offset, within a machine-section, of the freelist table's entry count.
std::size_t freelist_count_offset(const snap::Blob& blob,
                                  const SectionRef& sec) {
  std::size_t off = sec.payload;
  off += 4 + 2;                         // VLEN + two config flags
  off += 4 + sim::kNumInstClasses * 8;  // counter ledger
  off += 4 + 4 + 8;                     // vsetvl memo
  const bool has_regfile = blob[off] != 0;
  off += 1;
  if (has_regfile) off += 5 * 8 + 4;    // register-file telemetry
  off += 8 * 8;                         // buffer-pool stats
  return off;
}

/// Set the container's version field and re-seal the header CRC, so the
/// version check alone decides.
void set_version(snap::Blob& blob, u32 version) {
  put_u32(blob, 8, version);
  put_u32(blob, 20, crc32_ieee(blob.data(), 20));
}

TEST(SnapshotFormat, WrongVersionRejected) {
  rvv::Machine m({.vlen_bits = 128});
  snap::Blob blob = snap::save_machine(m);
  blob[8] ^= 1;  // version low byte — also breaks the header CRC
  rvv::Machine target({.vlen_bits = 128});
  EXPECT_THROW(snap::restore_machine(target, blob), SnapshotTrap);

  // A file written before the version bump, with an intact header CRC: the
  // trap names both versions and the target keeps its counts.
  rvv::Machine source({.vlen_bits = 128});
  warm(source);
  snap::Blob old = snap::save_machine(source);
  set_version(old, 1);
  warm(target);
  const sim::CountSnapshot before = target.counter().snapshot();
  const std::string want = "unsupported version 1 (this build reads version " +
                           std::to_string(snap::kFormatVersion) + ")";
  try {
    snap::restore_machine(target, old);
    ADD_FAILURE() << "version-1 snapshot was accepted";
  } catch (const SnapshotTrap& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  expect_same_counts(target.counter().snapshot(), before,
                     "target after version-1 restore");
}

TEST(SnapshotCorruption, CrcValidFreelistClassOutOfRangeRejected) {
  // A freelist class below kMinClass names a block too small for the pool's
  // BlockHeader; accepting one would make restore write past the block.
  rvv::Machine source({.vlen_bits = 128});
  warm(source);  // parks recycled blocks: the freelist table is non-empty
  const snap::Blob blob = snap::save_machine(source);

  const std::vector<SectionRef> secs = section_refs(blob);
  ASSERT_FALSE(secs.empty());
  ASSERT_EQ(secs[0].id, snap::kSectionMachine);
  const std::size_t count_off = freelist_count_offset(blob, secs[0]);
  ASSERT_GT(u32_at(blob, count_off), 0u)
      << "warmed machine should park at least one block";
  // Guard against layout drift: the entry we are about to patch must hold a
  // class the loader accepts, or the offsets above no longer line up.
  const std::size_t cls_off = count_off + 4;
  ASSERT_GE(u32_at(blob, cls_off), sim::BufferPool::kMinClass);
  ASSERT_LT(u32_at(blob, cls_off), sim::BufferPool::kNumClasses);

  rvv::Machine target({.vlen_bits = 128});
  const sim::CountSnapshot before = target.counter().snapshot();
  for (const u32 cls : {0u, 1u, sim::BufferPool::kMinClass - 1,
                        sim::BufferPool::kNumClasses, 0xFFFFFFFFu}) {
    snap::Blob bad = blob;
    put_u32(bad, cls_off, cls);
    fix_section_crc(bad, secs[0]);
    EXPECT_THROW(snap::restore_machine(target, bad), SnapshotTrap)
        << "freelist class " << cls << " was accepted";
  }
  expect_same_counts(target.counter().snapshot(), before,
                     "target after crafted freelist corruption");
  // The pristine blob still restores.
  snap::restore_machine(target, blob);
  expect_same_counts(target.counter().snapshot(), source.counter().snapshot(),
                     "restore after crafted corruption");
}

// --- checkpoint / rollback (chaos) ------------------------------------------

TEST(SnapshotCheckpoint, RollbackMakesChaosExcursionInvisible) {
  rvv::Machine m({.vlen_bits = 256});
  warm(m);
  snap::Checkpoint checkpoint(m);

  // Golden pass.
  const sim::CountSnapshot golden = run_once(m);

  // Rollback, then the same pass with an injected trap mid-kernel.
  checkpoint.rollback();
  check::FaultInjector injector({.trap_at_instruction = 40});
  {
    rvv::MachineScope scope(m);
    m.set_fault_hook(&injector);
    auto d = iota_data(3000);
    EXPECT_THROW((svm::plus_scan<u32, 2>(std::span<u32>(d))), InjectedTrap);
    m.set_fault_hook(nullptr);
  }
  EXPECT_EQ(injector.fired(), 1u);

  // Rollback again: the rerun must be bit-identical to the golden pass.
  checkpoint.rollback();
  expect_same_counts(run_once(m), golden, "post-chaos rerun");
}

// --- pool round-trip --------------------------------------------------------

class SnapshotPool : public ::testing::TestWithParam<unsigned> {};

TEST_P(SnapshotPool, RoundTripAtHartCount) {
  const unsigned harts = GetParam();
  const par::HartPool::Config cfg{.harts = harts, .shard_size = 128,
                                  .machine = {.vlen_bits = 256}};

  par::HartPool a(cfg);
  const auto job = [&](par::HartPool& pool) {
    pool.for_shards(harts * 3, [&](std::size_t shard) {
      auto d = iota_data(200 + shard);
      svm::plus_scan<u32, 2>(std::span<u32>(d));
    });
  };
  job(a);
  job(a);  // second pass warms the per-hart trace caches

  const snap::Blob blob = snap::save_pool(a);
  par::HartPool b(cfg);
  snap::restore_pool(b, blob);
  expect_same_counts(b.merged_counts(), a.merged_counts(), "restored pool");

  // Identical behavior from the warm state onward.
  job(a);
  job(b);
  expect_same_counts(b.merged_counts(), a.merged_counts(), "pool rerun");
}

INSTANTIATE_TEST_SUITE_P(HartCounts, SnapshotPool,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(SnapshotPoolMisc, HartCountMismatchRejected) {
  par::HartPool a({.harts = 2, .shard_size = 64,
                   .machine = {.vlen_bits = 128}});
  const snap::Blob blob = snap::save_pool(a);
  par::HartPool b({.harts = 4, .shard_size = 64,
                   .machine = {.vlen_bits = 128}});
  EXPECT_THROW(snap::restore_pool(b, blob), SnapshotTrap);
}

TEST(SnapshotPoolMisc, NonQuiescentRescueRejectedBeforeAnyMutation) {
  // A live rescue machine is validated with the harts, before the apply
  // loop: a non-quiescent rescue must trap with every hart untouched,
  // whether the snapshot carries a rescue section or is about to reset it.
  par::HartPool pool({.harts = 2, .shard_size = 64,
                      .machine = {.vlen_bits = 128}});
  warm(pool.machine(0));
  const snap::Blob no_rescue = snap::save_pool(pool);
  rvv::Machine& rescue = pool.ensure_rescue_machine();
  const snap::Blob with_rescue = snap::save_pool(pool);

  // Drift hart 0 past both snapshots, then park a live value on the rescue
  // machine so it is no longer quiescent.
  warm(pool.machine(0));
  const sim::CountSnapshot live = pool.machine(0).counter().snapshot();
  {
    rvv::MachineScope scope(rescue);
    const auto held = rvv::vmv_v_x<u32>(1u, 4);
    EXPECT_THROW(snap::restore_pool(pool, with_rescue), SnapshotTrap);
    EXPECT_THROW(snap::restore_pool(pool, no_rescue), SnapshotTrap);
    // Both traps fired before any mutation: hart 0 still shows its
    // post-snapshot counts, not the snapshotted ones.
    expect_same_counts(pool.machine(0).counter().snapshot(), live,
                       "hart 0 after rejected restores");
  }

  // With the rescue quiescent again, both snapshots restore cleanly.
  snap::restore_pool(pool, with_rescue);
  snap::restore_pool(pool, no_rescue);
}

// --- serve cold start -------------------------------------------------------

TEST(SnapshotServe, ColdStartFromCheckpointFile) {
  const std::string path = ::testing::TempDir() + "snap_serve_cold.snap";
  serve::ScanService::Config cfg;
  cfg.harts = 2;
  cfg.machine.vlen_bits = 256;
  cfg.background = false;

  serve::Response first;
  sim::CountSnapshot warm_counts;
  {
    serve::ScanService svc(cfg);
    serve::Request req;
    req.kind = serve::Kind::kScan;
    req.tenant = 1;
    req.data = {1, 2, 3, 4, 5};
    first = svc.call(std::move(req));
    ASSERT_TRUE(first.ok());
    svc.stop();
    svc.checkpoint_to(path);
    warm_counts = svc.pool().merged_counts();
  }

  // Cold start from the file: the pool comes up with the checkpointed
  // ledger and serves identical results at identical cost.
  serve::ScanService::Config warm_cfg = cfg;
  warm_cfg.restore_snapshot = path;
  serve::ScanService svc(warm_cfg);
  expect_same_counts(svc.pool().merged_counts(), warm_counts,
                     "cold-started pool ledger");
  serve::Request req;
  req.kind = serve::Kind::kScan;
  req.tenant = 1;
  req.data = {1, 2, 3, 4, 5};
  const serve::Response resp = svc.call(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.data, first.data);
  EXPECT_EQ(resp.billed_total, first.billed_total);
  svc.stop();
  std::remove(path.c_str());
}

TEST(SnapshotServe, MismatchedRestoreFailsConstruction) {
  const std::string path = ::testing::TempDir() + "snap_serve_mismatch.snap";
  {
    serve::ScanService::Config cfg;
    cfg.harts = 2;
    cfg.machine.vlen_bits = 256;
    cfg.background = false;
    serve::ScanService svc(cfg);
    svc.stop();
    svc.checkpoint_to(path);
  }
  serve::ScanService::Config other;
  other.harts = 2;
  other.machine.vlen_bits = 512;  // VLEN differs from the checkpoint
  other.background = false;
  other.restore_snapshot = path;
  EXPECT_THROW(serve::ScanService svc(other), SnapshotTrap);
  std::remove(path.c_str());
}

TEST(SnapshotServe, CheckpointCadenceWritesBetweenWaves) {
  const std::string path = ::testing::TempDir() + "snap_serve_cadence.snap";
  serve::ScanService::Config cfg;
  cfg.harts = 2;
  cfg.machine.vlen_bits = 256;
  cfg.background = false;
  cfg.checkpoint_every_waves = 1;
  cfg.checkpoint_path = path;
  serve::ScanService svc(cfg);
  serve::Request req;
  req.kind = serve::Kind::kReduce;
  req.tenant = 1;
  req.data = {7, 8, 9};
  ASSERT_TRUE(svc.call(std::move(req)).ok());
  EXPECT_GE(svc.stats().checkpoints, 1u);
  EXPECT_EQ(svc.stats().checkpoint_failures, 0u);
  // The cadence checkpoint is a valid pool snapshot.
  const snap::Info info = snap::inspect(snap::read_file(path));
  EXPECT_EQ(info.sections.front().id, snap::kSectionPool);
  svc.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rvvsvm
