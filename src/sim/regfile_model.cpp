#include "sim/regfile_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace rvvsvm::sim {

namespace {

constexpr bool valid_lmul(unsigned lmul) noexcept {
  return lmul == 1 || lmul == 2 || lmul == 4 || lmul == 8;
}

}  // namespace

void VRegFileModel::trace_begin() {
  trace_line_ = "#" + std::to_string(++inst_seq_);
}

void VRegFileModel::trace_end() {
  trace_sink_(trace_line_);
  trace_line_.clear();
}

void VRegFileModel::trace_use(const Value& val, bool was_spilled) {
  trace_event("use v" + std::to_string(val.base_reg) + ":m" +
              std::to_string(val.lmul) + (was_spilled ? "(reload)" : ""));
}

void VRegFileModel::use_as_mask(ValueId v) {
  use(v);
  if (active_mask_ != v) {
    // The compiler materializes the mask into v0 (vmv1r.v v0, vK).
    counter_->add(InstClass::kVectorMove);
    active_mask_ = v;
    if (trace_sink_) trace_event("mask->v0");
  }
}

ValueId VRegFileModel::define(unsigned lmul) {
  if (!valid_lmul(lmul)) throw std::invalid_argument("define: lmul must be 1, 2, 4 or 8");
  const int base = make_room(lmul);
  const ValueId id = next_id_++;
  occupy(base, lmul, id);
  Value val;
  val.lmul = lmul;
  val.base_reg = base;
  if (in_inst_) val.pin_epoch = pin_epoch_;
  values_.push_back(Entry{id, val});
  touch(values_.back().val);
  if (trace_sink_) {
    trace_event("def v" + std::to_string(base) + ":m" + std::to_string(lmul));
  }
  return id;
}

unsigned VRegFileModel::resident_values() const noexcept {
  unsigned n = 0;
  for (const Entry& e : values_) n += (e.val.base_reg >= 0) ? 1u : 0u;
  return n;
}

int VRegFileModel::make_room(unsigned lmul) {
  if (const int base = find_free_group(lmul); base >= 0) return base;

  // No free aligned group: pick the aligned window that is cheapest to
  // clear — fewest distinct owners, least recently used on ties — and spill
  // exactly those owners, the way an allocator evicts an interfering live
  // range rather than arbitrary registers.
  int best_base = -1;
  std::size_t best_owners = std::numeric_limits<std::size_t>::max();
  std::uint64_t best_recency = std::numeric_limits<std::uint64_t>::max();
  std::vector<ValueId> best_victims;

  for (unsigned base = first_group(lmul); base + lmul <= kNumRegs; base += lmul) {
    std::vector<ValueId> owners;
    std::uint64_t recency = 0;
    bool usable = true;
    for (unsigned r = base; r < base + lmul && usable; ++r) {
      const ValueId owner = reg_owner_[r];
      if (owner == kNoValue) continue;
      const Value& val = *find_value(owner);
      if (pinned(val)) {
        usable = false;
        break;
      }
      if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
        owners.push_back(owner);
        recency = std::max(recency, val.last_touch);
      }
    }
    if (!usable) continue;
    if (owners.size() < best_owners ||
        (owners.size() == best_owners && recency < best_recency)) {
      best_owners = owners.size();
      best_recency = recency;
      best_base = static_cast<int>(base);
      best_victims = std::move(owners);
    }
  }

  if (best_base < 0) {
    throw std::logic_error(
        "VRegFileModel: register file exhausted by a single instruction "
        "(more pinned operands than architectural registers)");
  }
  for (ValueId victim : best_victims) {
    Value& val = *find_value(victim);
    if (trace_sink_) {
      trace_event("spill v" + std::to_string(val.base_reg) + ":m" +
                  std::to_string(val.lmul));
    }
    vacate(val.base_reg, val.lmul);
    val.base_reg = -1;
    ++spills_;
    // Spilling an LMUL=k group retires k whole-register stores: 2022-era
    // RISC-V toolchains expanded group spills into per-register vs1r.v
    // sequences for VLEN-agnostic stack frames (vs<k>r.v grouping came
    // later), and the paper's Table 5 overheads are consistent with that.
    counter_->add(InstClass::kVectorSpill, val.lmul);
  }
  const int base = find_free_group(lmul);
  assert(base >= 0);
  return base;
}

void VRegFileModel::occupy(int base, unsigned lmul, ValueId v) {
  for (unsigned r = static_cast<unsigned>(base); r < static_cast<unsigned>(base) + lmul; ++r) {
    assert(reg_owner_[r] == kNoValue);
    reg_owner_[r] = v;
  }
  occupied_mask_ |= group_mask(static_cast<unsigned>(base), lmul);
  occupied_regs_ += lmul;
  peak_regs_ = std::max(peak_regs_, occupied_regs_);
}

void VRegFileModel::vacate(int base, unsigned lmul) {
  for (unsigned r = static_cast<unsigned>(base); r < static_cast<unsigned>(base) + lmul; ++r) {
    reg_owner_[r] = kNoValue;
  }
  occupied_mask_ &= ~group_mask(static_cast<unsigned>(base), lmul);
  occupied_regs_ -= lmul;
}

void VRegFileModel::trace_event(const std::string& event) {
  if (!trace_sink_ || !in_inst_) return;
  trace_line_ += ' ';
  trace_line_ += event;
}

void VRegFileModel::reload(ValueId v, Value& val) {
  const int base = make_room(val.lmul);
  occupy(base, val.lmul, v);
  val.base_reg = base;
  ++reloads_;
  // Reload mirrors the spill: k per-register vl1r.v moves for an LMUL=k
  // group (see the note in make_room).
  counter_->add(InstClass::kVectorReload, val.lmul);
}

}  // namespace rvvsvm::sim
