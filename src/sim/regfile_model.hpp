// Vector register-file pressure model.
//
// RVV has 32 architectural vector registers.  Setting LMUL = k groups k
// consecutive, k-aligned registers into one operand, so at LMUL = 8 only the
// groups {v8, v16, v24} remain allocatable once v0 is reserved for masks.
// When a kernel keeps more simultaneously-live vector values than the file
// can hold, the compiler spills whole register groups to the stack
// (`vs<k>r.v`) and reloads them (`vl<k>r.v`).  Section 6.3 of the paper shows
// this is why segmented scan at LMUL = 8 is *slower* than LMUL = 1 for small
// inputs (Table 5).
//
// This module reproduces that effect from first principles.  The RVV
// emulator drives it with the value lifecycle of every emulated instruction:
//   begin_inst();  use(a); use(b);  d = define(lmul);  end_inst();
// and with release(v) when a C++ vreg value dies.  A C++ value's lifetime is
// its live range — exactly the information a register allocator derives —
// so allocation decisions here mirror what a linear-scan allocator does over
// the same code.  Evictions target the cheapest aligned register window and
// prefer least-recently-used values (values touched by the in-flight
// instruction are pinned).  An eviction of an LMUL=k group charges k
// kVectorSpill instructions and the first use after eviction charges k
// kVectorReload instructions: 2022-era RISC-V compilers expanded register-
// group spills into per-register vs1r.v/vl1r.v sequences for VLEN-agnostic
// stack frames, which is the overhead regime the paper's Table 5 reflects.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/inst_counter.hpp"

namespace rvvsvm::sim {

/// Identifier of an SSA-like vector value (one per defining instruction).
using ValueId = std::uint64_t;

/// Sentinel for "no value".
inline constexpr ValueId kNoValue = 0;

class VRegFileModel {
 public:
  /// Architectural vector registers: RVV fixes the file at 32, with v0
  /// reserved as the mask register for masked ops.
  static constexpr unsigned kNumRegs = 32;

  explicit VRegFileModel(InstCounter& counter) : counter_(&counter) {}

  VRegFileModel(const VRegFileModel&) = delete;
  VRegFileModel& operator=(const VRegFileModel&) = delete;

  // The lifecycle entry points below run once (or more) per emulated
  // instruction — millions of times per benchmark cell — so their fast paths
  // are defined inline here; the slow paths (eviction, reload, tracing) stay
  // in the .cpp file.

  /// Bracket one emulated instruction.  Values touched between begin and end
  /// are pinned and cannot be evicted to make room for each other.  Pinning
  /// is epoch-based: bumping the epoch on both edges unpins everything at
  /// once, with no per-value sweep.
  void begin_inst() {
    assert(!in_inst_ && "nested begin_inst");
    in_inst_ = true;
    ++pin_epoch_;
    if (trace_sink_) trace_begin();
  }
  void end_inst() {
    assert(in_inst_ && "end_inst without begin_inst");
    if (trace_sink_) trace_end();
    ++pin_epoch_;
    in_inst_ = false;
  }

  /// Operand read.  Reloads the value if it was spilled (charging one
  /// kVectorReload) and refreshes its LRU stamp.
  void use(ValueId v) {
    Value* val = find_value(v);
    if (val == nullptr) {
      throw std::logic_error("VRegFileModel::use of unknown or released value");
    }
    const bool was_spilled = val->base_reg < 0;
    if (was_spilled) reload(v, *val);
    touch(*val);
    if (in_inst_) val->pin_epoch = pin_epoch_;
    if (trace_sink_) trace_use(*val, was_spilled);
  }

  /// Operand read through the mask port (v0).  Like use(), but additionally
  /// charges one vector move when the active mask in v0 changes, the way a
  /// compiler re-materializes `vmv1r.v v0, vK` before a masked op.
  void use_as_mask(ValueId v);

  /// Result written by an instruction: allocates an lmul-aligned group for a
  /// fresh value and returns its id.  Evicts LRU values (charging spills) if
  /// the file is full.  `lmul` must be 1, 2, 4 or 8; masks occupy one
  /// register (pass lmul = 1).
  [[nodiscard]] ValueId define(unsigned lmul);

  /// The C++ value holding `v` died (destructor or overwrite): its register
  /// group becomes free without spill traffic.  Ignores kNoValue and ids
  /// already released.
  void release(ValueId v) {
    if (v == kNoValue) return;
    for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
      if (it->id != v) continue;
      if (it->val.base_reg >= 0) {
        vacate(it->val.base_reg, it->val.lmul);
      }
      if (active_mask_ == v) active_mask_ = kNoValue;
      *it = values_.back();
      values_.pop_back();
      return;
    }
  }

  /// Number of values currently live (in a register or spilled).
  [[nodiscard]] unsigned live_values() const noexcept {
    return static_cast<unsigned>(values_.size());
  }
  /// Number of live values currently resident in registers.
  [[nodiscard]] unsigned resident_values() const noexcept;
  /// Total spill stores charged so far.
  [[nodiscard]] std::uint64_t spill_count() const noexcept { return spills_; }
  /// Total reload loads charged so far.
  [[nodiscard]] std::uint64_t reload_count() const noexcept { return reloads_; }
  /// High-water mark of registers simultaneously occupied.
  [[nodiscard]] unsigned peak_registers() const noexcept { return peak_regs_; }

  /// Fold the spill/reload traffic of a replayed trace into the stats.
  /// Replay skips the per-instruction allocator events (the record pass
  /// proved the iteration self-contained and captured their charges), but
  /// its bulk charge includes recorded kVectorSpill/kVectorReload
  /// instructions; mirroring them here keeps spill_count()/reload_count()
  /// consistent with the machine's counter whether or not a trace replayed.
  void add_replayed_traffic(std::uint64_t spills, std::uint64_t reloads) noexcept {
    spills_ += spills;
    reloads_ += reloads;
  }

  /// Counters that survive across kernels, as one value for snapshot/restore
  /// (src/snap).  The live-value set is *not* part of this: kernels release
  /// every value on return, so both snapshot and restore require
  /// live_values() == 0 (the snapshot layer validates and traps first).
  struct Telemetry {
    std::uint64_t spills = 0;
    std::uint64_t reloads = 0;
    std::uint64_t clock = 0;
    std::uint64_t inst_seq = 0;
    ValueId next_id = 1;
    unsigned peak_regs = 0;
  };
  [[nodiscard]] Telemetry telemetry() const noexcept {
    return Telemetry{spills_, reloads_, clock_, inst_seq_, next_id_, peak_regs_};
  }
  void restore_telemetry(const Telemetry& t) noexcept {
    assert(live_values() == 0 &&
           "VRegFileModel::restore_telemetry with live values");
    spills_ = t.spills;
    reloads_ = t.reloads;
    clock_ = t.clock;
    inst_seq_ = t.inst_seq;
    next_id_ = t.next_id;
    peak_regs_ = t.peak_regs;
  }

  /// Install a trace sink: one line per emulated instruction describing its
  /// register-file events ("#42 use v8:m8 use v16:m8(reload) def v24:m8
  /// [spill v0..]"), the commit-log view Spike users debug with.  Pass
  /// nullptr to disable.  Tracing does not change any count.
  void set_trace_sink(std::function<void(const std::string&)> sink) {
    trace_sink_ = std::move(sink);
  }

 private:
  struct Value {
    unsigned lmul = 1;
    int base_reg = -1;           // -1 when spilled
    std::uint64_t last_touch = 0;
    std::uint64_t pin_epoch = 0;  // pinned iff equal to the model's epoch
  };
  /// Live values, unordered (erase swaps with the back).  The live set is
  /// bounded by the register file plus spilled values — small enough that a
  /// backwards linear scan of one contiguous array beats a node-based map,
  /// and this lookup sits on the emulator's per-instruction path.  All
  /// allocation decisions read reg_owner_/last_touch, never this array's
  /// order, so the layout cannot change modeled counts.
  struct Entry {
    ValueId id;
    Value val;
  };

  [[nodiscard]] Value* find_value(ValueId v) noexcept {
    // Backwards: the most recently defined values are also the most used.
    for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
      if (it->id == v) return &it->val;
    }
    return nullptr;
  }

  [[nodiscard]] bool pinned(const Value& val) const noexcept {
    return val.pin_epoch == pin_epoch_;
  }

  /// Aligned-window mask for an lmul group starting at `base`.
  [[nodiscard]] static std::uint64_t group_mask(unsigned base, unsigned lmul) noexcept {
    return ((std::uint64_t{1} << lmul) - 1) << base;
  }

  /// First candidate base for an lmul-aligned group: v0 is the mask
  /// register, so the lowest window that avoids it starts at max(1, lmul).
  [[nodiscard]] static unsigned first_group(unsigned lmul) noexcept {
    return lmul > 1 ? lmul : 1;
  }

  /// Find a free lmul-aligned group; returns base register or -1.  One
  /// bitmask test per candidate window, lowest base first (the same search
  /// order the scanning version used, so allocation is unchanged).
  [[nodiscard]] int find_free_group(unsigned lmul) const noexcept {
    for (unsigned base = first_group(lmul); base + lmul <= kNumRegs; base += lmul) {
      if ((occupied_mask_ & group_mask(base, lmul)) == 0) return static_cast<int>(base);
    }
    return -1;
  }
  /// Make room for an lmul-aligned group, evicting LRU unpinned values.
  int make_room(unsigned lmul);
  void occupy(int base, unsigned lmul, ValueId v);
  void vacate(int base, unsigned lmul);
  /// Bring a spilled value back into a register.
  void reload(ValueId v, Value& val);
  void touch(Value& val) noexcept { val.last_touch = ++clock_; }

  /// Append an event to the in-flight instruction's trace line.
  void trace_event(const std::string& event);
  void trace_begin();
  void trace_end();
  void trace_use(const Value& val, bool was_spilled);

  InstCounter* counter_;
  std::array<ValueId, kNumRegs> reg_owner_{};  // per architectural register
  std::uint64_t occupied_mask_ = 0;         // bit r set iff reg_owner_[r] != kNoValue
  std::vector<Entry> values_;               // the live values
  ValueId next_id_ = 1;
  ValueId active_mask_ = kNoValue;          // value currently held in v0
  std::uint64_t pin_epoch_ = 1;
  std::uint64_t clock_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t reloads_ = 0;
  unsigned occupied_regs_ = 0;
  unsigned peak_regs_ = 0;
  bool in_inst_ = false;
  std::function<void(const std::string&)> trace_sink_;
  std::string trace_line_;
  std::uint64_t inst_seq_ = 0;
};

}  // namespace rvvsvm::sim
