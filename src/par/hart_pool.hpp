// A pool of emulated harts with a reusable, self-healing fork-join runner.
//
// Each worker thread owns one rvv::Machine — one hart — created on the
// worker itself so the machine's buffer pool binds to that thread.  The
// active-machine pointer is thread-local, so harts execute svm:: kernels
// concurrently without aliasing any state: counters, register-pressure
// models and buffer pools are all per-hart.
//
// Collectives dispatch fork-join jobs: for_shards runs a body over every
// shard index (shards assigned to harts in contiguous, deterministic runs —
// see partition.hpp) and blocks until all harts finish.  A one-shard job
// always runs on hart 0, which is how the cross-shard combine phases land
// on a deterministic counter.  The calling thread never touches a hart's
// machine directly — it only reads counters between jobs, which the
// fork-join mutex handshake orders.
//
// Failure isolation (the robustness layer): every shard executes under a
// per-shard catch.  A shard whose body throws is retried on its hart up to
// RecoveryPolicy::max_retries times (the caller's RecoveryHooks restore any
// in-place state first), then — if fallback_inline is set — re-executed on
// the calling thread under a lazily created rescue machine.  A cooperative
// cancellation (DeadlineTrap) is never re-run: it would only re-cancel at
// the same budget.  Every failure, recovered or not, lands in a structured
// ShardFailure inside the epoch's EpochReport; if any shard remains
// unrecovered the whole report is thrown as ShardExecutionError.  There is
// no timeout: a body that never returns blocks its collective.
//
// Instruction accounting: every hart's counter accumulates independently and
// merged_counts() sums them (plus the rescue machine).  Because shard
// decomposition and shard-to-hart assignment depend only on (n, shard_size,
// harts) and each shard's work only on the shard, the merged count for a
// fixed shard size is identical for 1, 2, 4 or 8 harts — the engine's
// determinism invariant.  Recovery preserves it exactly: a failed attempt's
// counts are rolled back off the hart's counter before the retry, so golden
// totals only ever contain work that committed once.  The rolled-back
// counts are reported separately via EpochReport::abandoned_counts and the
// pool-lifetime abandoned_counts() — never folded into merged_counts().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rvv/machine.hpp"
#include "par/partition.hpp"
#include "sim/inst_counter.hpp"
#include "sim/trap.hpp"

namespace rvvsvm::par {

/// What the pool does when a shard body throws.  The default policy is
/// report-only: no retries, no fallback — every failure is collected and the
/// epoch throws ShardExecutionError.  A shard cancelled by a deadline
/// (sim::TrapKind::kDeadlineExceeded) skips both channels under any policy.
struct RecoveryPolicy {
  /// Re-run a failed shard on its own hart up to this many times before
  /// declaring it failed there.  RecoveryHooks::restore runs before each
  /// retry so in-place kernels restart from clean input.
  unsigned max_retries = 0;
  /// After the hart gives up, re-execute the shard on the calling thread
  /// under the pool's rescue machine (whose counts merge like a hart's).
  bool fallback_inline = false;

  /// True when any recovery channel is live — the signal for collectives to
  /// allocate checkpoint storage (RecoveryHooks) for their in-place phases.
  [[nodiscard]] constexpr bool armed() const noexcept {
    return max_retries > 0 || fallback_inline;
  }
};

/// Structured record of one shard's failure.  Present in the epoch report
/// whether or not the shard was eventually recovered.
struct ShardFailure {
  /// Shard index within the collective.
  std::size_t shard = 0;
  /// Hart that owned the shard when it first failed.
  int hart = -1;
  /// Executions attempted (initial try + retries + inline fallback).
  unsigned attempts = 0;
  /// A retry or the inline fallback eventually committed the shard.
  bool recovered = false;
  /// Recovery happened on the calling thread's rescue machine.
  bool inline_fallback = false;
  /// what() of the first exception (with "; fallback: ..." appended when the
  /// inline re-execution failed too).
  std::string message;
  /// True when the exception was a typed rvvsvm::Trap, making `context`
  /// and `trap_kind` meaningful (op, vl, LMUL, instruction number, hart at
  /// throw, taxonomy member).
  bool has_context = false;
  TrapContext context{};
  /// Taxonomy member of the typed trap (valid only when has_context) — the
  /// key service layers map to stable per-request error codes.
  sim::TrapKind trap_kind = sim::TrapKind::kInjected;
};

/// Everything the pool knows about one fork-join epoch's failures.
struct EpochReport {
  std::vector<ShardFailure> failures;
  /// Counts rolled back from failed/abandoned attempts this epoch — work
  /// that executed but never committed.  Reported separately so golden
  /// merged totals stay exact.
  sim::CountSnapshot abandoned_counts;

  [[nodiscard]] bool all_recovered() const noexcept {
    for (const auto& f : failures) {
      if (!f.recovered) return false;
    }
    return true;
  }
};

/// Thrown by for_shards when at least one shard could not be recovered under
/// the pool's policy.  Carries the full epoch report; derives
/// std::runtime_error so pre-trap catch sites keep working.
class ShardExecutionError : public std::runtime_error {
 public:
  explicit ShardExecutionError(EpochReport report);

  [[nodiscard]] const EpochReport& report() const noexcept { return *report_; }

 private:
  std::shared_ptr<const EpochReport> report_;  // shared: exceptions are copied
};

/// Per-shard checkpoint callbacks supplied by collectives whose shard body
/// mutates state in place (and therefore cannot simply be re-run).  Only
/// invoked while the pool's recovery policy is armed: `save` once before a
/// shard's first attempt, `restore` before every re-attempt (retry or
/// inline fallback).  Both run unlocked on the executing thread and must not
/// touch any emulated machine.
struct RecoveryHooks {
  std::function<void(std::size_t shard)> save;
  std::function<void(std::size_t shard)> restore;
};

class HartPool {
 public:
  struct Config {
    /// Worker harts; 0 selects std::thread::hardware_concurrency().
    unsigned harts = 0;
    /// Elements per shard for the sharded collectives.  The shard size — not
    /// the hart count — fixes the work decomposition and therefore the
    /// merged dynamic instruction count.
    std::size_t shard_size = 1u << 12;
    /// Per-hart machine configuration (VLEN, pressure model, buffer pool).
    rvv::Machine::Config machine{};
    /// Failure handling; default is collect-and-report with no recovery.
    RecoveryPolicy recovery{};
  };

  HartPool();
  explicit HartPool(Config cfg);
  ~HartPool();

  HartPool(const HartPool&) = delete;
  HartPool& operator=(const HartPool&) = delete;

  [[nodiscard]] unsigned harts() const noexcept;
  [[nodiscard]] std::size_t shard_size() const noexcept;
  /// True when the configured recovery policy has any channel armed.
  [[nodiscard]] bool recovery_armed() const noexcept;

  /// Fork-join over shard indices [0, num_shards): hart h takes part iff
  /// h < min(harts, num_shards) and runs body(shard) for its contiguous run
  /// of shards under its own MachineScope; the call returns when every
  /// participant is done.  for_shards(1, ...) therefore runs on hart 0.
  /// Shard failures are isolated, retried and recovered per the pool's
  /// RecoveryPolicy; if any shard stays unrecovered, the collected
  /// EpochReport is thrown as ShardExecutionError (a std::runtime_error).
  /// `hooks` checkpoint in-place shard state for re-execution.
  void for_shards(std::size_t num_shards,
                  const std::function<void(std::size_t shard)>& body,
                  const RecoveryHooks& hooks = {});

  /// This hart's machine.  Only valid between jobs (the pool is idle
  /// whenever the public API is not executing), and only for inspection —
  /// driving kernels on it from the calling thread would trip the buffer
  /// pool's ownership assert.
  [[nodiscard]] rvv::Machine& machine(unsigned hart);

  /// Failure report of the most recent for_shards call (empty `failures`
  /// after a clean epoch).  Valid between jobs.
  [[nodiscard]] const EpochReport& last_report() const noexcept;

  /// Per-hart dynamic instruction counts since construction or the last
  /// reset_counts().
  [[nodiscard]] std::vector<sim::CountSnapshot> per_hart_counts() const;

  /// Sum of the per-hart counts plus the rescue machine — the whole-pool
  /// dynamic instruction count.  Failed attempts never appear here (their
  /// counts are rolled back), so after full recovery this matches a
  /// fault-free run exactly.
  [[nodiscard]] sim::CountSnapshot merged_counts() const;

  /// Pool-lifetime sum of rolled-back (non-committed) attempt counts — the
  /// other side of the merged_counts() ledger.  Zeroed by reset_counts().
  [[nodiscard]] sim::CountSnapshot abandoned_counts() const;

  /// Fork-join epochs dispatched to the workers since construction (each
  /// for_shards call counts one; a zero-shard call reaches no worker and
  /// counts zero).  Service telemetry reads this to relate
  /// request throughput to pool dispatch pressure.
  [[nodiscard]] std::uint64_t epochs() const;

  /// Zero every hart's counter, the rescue machine's counter, and the
  /// abandoned-count ledger.
  void reset_counts() noexcept;

  // --- snapshot support (src/snap) ---------------------------------------
  // Valid only between jobs, like every other pool access from the calling
  // thread.  The snapshot layer reads machine state through machine(h) and
  // these accessors, and restores it in place: per-hart buffer pools are
  // drained between jobs, so the drained-pool re-binding rule makes the
  // cross-thread restore legal (the worker re-binds on its next acquire).

  /// The inline-fallback rescue machine, or nullptr while none was ever
  /// needed.  Its counts are part of merged_counts(), so snapshots must
  /// carry it.
  [[nodiscard]] rvv::Machine* rescue_machine() noexcept;

  /// Create the rescue machine if it does not exist yet, so a restore can
  /// re-materialize a snapshot that carried one.
  [[nodiscard]] rvv::Machine& ensure_rescue_machine();

  /// Overwrite the pool-lifetime abandoned-count ledger (restore path).
  void restore_abandoned_counts(const sim::CountSnapshot& counts) noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace rvvsvm::par
