// Machine snapshot/restore — instant warm starts for the emulator stack.
//
// A configured rvv::Machine is expensive to warm: the vsetvl memo, the
// decoded-op table, the stable strip-mine traces (PR 6) and the autotuner's
// measured-config cache (PR 8) are all built by *running kernels*.  The
// serve daemon pays that cost on every cold start and the chaos suite pays
// it again after every injected fault, replaying the golden script to get
// back to a known state.  This module serializes the whole warm state to a
// versioned, checksummed binary blob and restores it into a machine that is
// bit-identical in data and instruction counts to the original
// (ROADMAP's snapshot/restore item, grounded in libriscv's
// decoder_cache_serialize).
//
// What a snapshot carries:
//   * machine configuration (VLEN, pressure mode, exec cache) —
//     compared against the restore target, never applied to it;
//   * the instruction-count ledger (per-class counter) and the vsetvl memo;
//   * register-file telemetry (spill/reload counters, LRU clock, value ids);
//   * buffer-pool statistics and freelist shape (restored pools come up with
//     their caches pre-warmed to the same size classes);
//   * the decoded-op dispatch table and every stable strip-mine trace, as
//     *content* (names and labels are process-local pointers, so restored
//     entries park as pending state inside the ExecCache and are adopted by
//     live execution — see ExecCache::install_pending);
//   * the autotuner's measured-config winners (shared cache: serialized once
//     per snapshot, not per hart).
//
// Restore discipline (validate-then-charge, applied to deserialization):
// the entire blob is parsed and validated — magic, version, per-section
// CRC32, field ranges, configuration match, target-machine preconditions
// (every hart AND the live rescue machine for pools) — before one byte of
// machine state mutates.  A staging step then performs every allocation the
// apply needs (freelist storage, a missing rescue machine), so the apply
// phase itself is no-throw: even std::bad_alloc surfaces as a typed trap
// with the target untouched.  Any failure raises
// rvvsvm::SnapshotTrap and leaves the target exactly as it was.  A restore
// that proceeds first routes through Machine::invalidate_exec_caches(), the
// single invalidation path shared with reconfiguration: it drops all three
// derived caches (decoded ops, traces, tuned configs) and bumps the
// reconfigure epoch, so stale cross-machine state can never replay.  The
// tuner import happens after the bump and syncs to the new epoch.
//
// Container format (all integers little-endian; DESIGN.md §11):
//
//   magic "RVVSNAP\0" | u32 version | u32 flags | u32 section_count
//   | u32 header_crc | sections...
//   section: u32 id | u64 payload_size | u32 payload_crc | payload bytes
//
// Sections appear in order: one kSectionPool (pool snapshots only), one
// kSectionMachine per machine (hart order, rescue machine last when the
// pool section flags one), one kSectionTuner.  Unknown ids, trailing bytes,
// or reserved flags are rejected — readers are strict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "par/hart_pool.hpp"
#include "rvv/machine.hpp"
#include "tune/autotuner.hpp"

namespace rvvsvm::snap {

/// Bumped whenever the layout changes; loaders reject other versions.
/// Version 2 dropped the machine section's buffer-pool mode byte.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Section identifiers (stable: new sections append).
inline constexpr std::uint32_t kSectionPool = 1;
inline constexpr std::uint32_t kSectionMachine = 2;
inline constexpr std::uint32_t kSectionTuner = 3;

using Blob = std::vector<std::uint8_t>;

/// Serialize one machine (plus `tuner`'s winners when non-null).  The
/// machine must be quiescent — buffer pool drained, no live vector values —
/// or SnapshotTrap is raised (an in-flight machine cannot be restored).
[[nodiscard]] Blob save_machine(rvv::Machine& m,
                                const tune::AutoTuner* tuner = nullptr);

/// Validate `blob` end to end, then restore it into `m` (and import the
/// tuner section into `tuner` when non-null).  SnapshotTrap on any
/// corruption, version/config mismatch, or non-quiescent target; the target
/// is untouched on failure.  On success the machine's counter, memo,
/// register-file telemetry, pool freelists and cache stats equal the
/// saved machine's, and the cache content is parked for live adoption.
void restore_machine(rvv::Machine& m, const Blob& blob,
                     tune::AutoTuner* tuner = nullptr);

/// Serialize a whole pool: every hart's machine, the rescue machine when it
/// exists, the abandoned-count ledger, and the shared tuner cache once.
/// Valid only between jobs (the usual pool-access rule).
[[nodiscard]] Blob save_pool(par::HartPool& pool,
                             const tune::AutoTuner* tuner = nullptr);

/// Restore a pool snapshot into `pool`, which must have the same hart
/// count, shard size and per-hart machine configuration (SnapshotTrap
/// otherwise).  A snapshot carrying a rescue machine re-materializes it;
/// a pool whose live rescue machine is absent from the snapshot has it
/// reset, so merged_counts() round-trips exactly either way.
void restore_pool(par::HartPool& pool, const Blob& blob,
                  tune::AutoTuner* tuner = nullptr);

/// Whole-blob file I/O.  SnapshotTrap on any I/O failure.
void write_file(const std::string& path, const Blob& blob);
[[nodiscard]] Blob read_file(const std::string& path);

/// Parsed container header, for tests and tooling.  Validates the header
/// and every section CRC (SnapshotTrap on failure) without touching any
/// machine.
struct SectionInfo {
  std::uint32_t id = 0;
  std::size_t size = 0;
};
struct Info {
  std::uint32_t version = 0;
  std::vector<SectionInfo> sections;
};
[[nodiscard]] Info inspect(const Blob& blob);

/// In-memory checkpoint/rollback bracket — the chaos engine's replacement
/// for golden-script replay.  Construction snapshots the machine; after an
/// injected fault, rollback() restores it to the checkpointed state (same
/// validated path as file restores), so the faulted run can be re-executed
/// and compared against the golden run directly.
class Checkpoint {
 public:
  explicit Checkpoint(rvv::Machine& m, tune::AutoTuner* tuner = nullptr)
      : m_(&m), tuner_(tuner), blob_(save_machine(m, tuner)) {}

  void rollback() { restore_machine(*m_, blob_, tuner_); }

  [[nodiscard]] const Blob& blob() const noexcept { return blob_; }

 private:
  rvv::Machine* m_;
  tune::AutoTuner* tuner_;
  Blob blob_;
};

}  // namespace rvvsvm::snap
