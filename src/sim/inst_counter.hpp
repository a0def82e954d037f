// Dynamic instruction accounting, the repo's substitute for Spike.
//
// The paper evaluates every kernel by its *dynamic instruction count* on the
// Spike functional simulator (Spike is not cycle-accurate, so retired
// instructions are the metric).  This module provides the equivalent:
// a categorized counter that every emulated RVV instruction and every modeled
// scalar instruction reports into.  Benchmarks read counts or deltas from it
// and print the paper's tables.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace rvvsvm::sim {

/// Classification of a retired instruction.  Vector classes mirror the RVV
/// instruction groups used by the paper's kernels; scalar classes mirror the
/// RV64I base-ISA groups that appear in strip-mined loop bookkeeping and in
/// the sequential baselines.
enum class InstClass : std::size_t {
  kVectorConfig,   ///< vsetvl / vsetvli / vsetivli
  kVectorLoad,     ///< vle / vlse / vluxei / vloxei / vlm / vl<k>r
  kVectorStore,    ///< vse / vsse / vsuxei / vsoxei / vsm / vs<k>r
  kVectorArith,    ///< vadd, vsub, vmul, vand, ..., vmerge
  kVectorMask,     ///< vmseq/vmsne/..., vmand/vmor/..., viota, vid, vcpop,
                   ///< vfirst, vmsbf/vmsif/vmsof
  kVectorPermute,  ///< vslideup/vslidedown/vslide1*, vrgather, vcompress
  kVectorReduce,   ///< vredsum, vredmax, ...
  kVectorMove,     ///< vmv.v.x, vmv.v.v, vmv.s.x, vmv.x.s
  kVectorSpill,    ///< vs<k>r.v emitted by the register-pressure model
  kVectorReload,   ///< vl<k>r.v emitted by the register-pressure model
  kScalarAlu,      ///< add/addi/sub/slli/and/... on x-registers
  kScalarLoad,     ///< lb/lh/lw/ld
  kScalarStore,    ///< sb/sh/sw/sd
  kScalarBranch,   ///< beq/bne/blt/... and unconditional jumps
  kScalarCall,     ///< jal/jalr used as call or return
  kCount           ///< number of classes (not a class)
};

inline constexpr std::size_t kNumInstClasses =
    static_cast<std::size_t>(InstClass::kCount);

/// Short mnemonic name for reports ("v.arith", "s.alu", ...).
[[nodiscard]] std::string_view to_string(InstClass cls) noexcept;

/// True for the vector instruction classes (including spill/reload traffic,
/// which consists of whole-vector-register moves).
[[nodiscard]] constexpr bool is_vector(InstClass cls) noexcept {
  return static_cast<std::size_t>(cls) <=
         static_cast<std::size_t>(InstClass::kVectorReload);
}

/// Immutable copy of the per-class counts at one point in time.  Snapshots
/// subtract, so a benchmark brackets a kernel with two snapshots and reports
/// the delta — the kernel's dynamic instruction count.
class CountSnapshot {
 public:
  constexpr CountSnapshot() noexcept : counts_{} {}

  [[nodiscard]] constexpr std::uint64_t count(InstClass cls) const noexcept {
    return counts_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;
  [[nodiscard]] std::uint64_t vector_total() const noexcept;
  [[nodiscard]] std::uint64_t scalar_total() const noexcept;
  /// Spill + reload traffic inserted by the register-pressure model.
  [[nodiscard]] std::uint64_t spill_total() const noexcept;

  /// Element-wise difference; requires *this to be taken after `earlier`
  /// with no intervening reset (checked per class in debug builds).
  [[nodiscard]] CountSnapshot operator-(const CountSnapshot& earlier) const;

  /// Per-class equality — the trace cache verifies a recorded iteration
  /// against its successor by comparing whole per-op count deltas.
  [[nodiscard]] bool operator==(const CountSnapshot&) const noexcept = default;

  /// Element-wise sum — merges the counts of independent harts.  Retired
  /// instructions are additive across harts, so the merged snapshot is the
  /// whole-pool dynamic instruction count.
  CountSnapshot& operator+=(const CountSnapshot& other) noexcept;
  [[nodiscard]] CountSnapshot operator+(const CountSnapshot& other) const noexcept;

  friend std::ostream& operator<<(std::ostream& os, const CountSnapshot& s);

 private:
  friend class InstCounter;
  std::array<std::uint64_t, kNumInstClasses> counts_;
};

/// Sum of per-hart snapshots: the merged dynamic instruction count of a
/// multi-hart run.  For a fixed shard decomposition the merged count is
/// deterministic and independent of how shards were assigned to harts.
[[nodiscard]] CountSnapshot merge_counts(const CountSnapshot* per_hart,
                                         std::size_t num_harts) noexcept;

/// Mutable dynamic-instruction counter.  One counter belongs to each
/// rvv::Machine; all emulated instructions executed under that machine report
/// here.  Not thread-safe by design: a Machine is a single hart.
class InstCounter {
 public:
  /// Record `n` retired instructions of class `cls`.
  void add(InstClass cls, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(cls)] += n;
  }

  /// Record `times` snapshots' worth of retired instructions at once — the
  /// bulk-charge primitive behind trace replay: a replayed strip-mine
  /// iteration (or a run of `times` identical ones) lands all its per-class
  /// counts in one call instead of one add() per emulated instruction.
  void add_all(const CountSnapshot& delta, std::uint64_t times = 1) noexcept {
    for (std::size_t i = 0; i < kNumInstClasses; ++i) {
      counts_[i] += delta.counts_[i] * times;
    }
  }

  [[nodiscard]] std::uint64_t count(InstClass cls) const noexcept {
    return counts_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Copy the current counts into a value object.
  [[nodiscard]] CountSnapshot snapshot() const noexcept;

  /// Overwrite the counts with a snapshot taken earlier on this counter.
  /// This is the rollback primitive behind trap recovery: a trapped
  /// instruction, or a whole abandoned shard attempt, restores the counter
  /// so the golden totals only ever contain retired work.
  void restore(const CountSnapshot& snap) noexcept { counts_ = snap.counts_; }

  /// Zero every class.
  void reset() noexcept { counts_.fill(0); }

 private:
  std::array<std::uint64_t, kNumInstClasses> counts_{};
};

}  // namespace rvvsvm::sim
