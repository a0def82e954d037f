// Shared machinery for the emulated instruction implementations.
//
// Every emulated RVV instruction follows the same validate-then-charge
// protocol (the trap discipline — see sim/trap.hpp):
//   1. validate every operand (cross-machine, capacity, memory bounds);
//      violations raise a typed trap before anything is charged,
//   2. charge one dynamic instruction of its class to the machine's counter
//      (via ChargeGuard, which also gives the fault-injection hook its
//      pre-charge window and un-charges if the instruction aborts later),
//   3. drive the register-pressure model (pin operands, define the result),
//   4. compute the result elements for [0, vl) and poison the tail.
// A trapped instruction therefore never retires: the counter is not
// half-charged, the register file holds no leaked value, and pool storage
// unwinds by RAII.  The helpers here implement that protocol once so the
// per-instruction code in arith.hpp / mask_ops.hpp / permute.hpp stays a
// one-line semantic lambda.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "rvv/config.hpp"
#include "rvv/machine.hpp"
#include "rvv/vreg.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/inst_counter.hpp"
#include "sim/regfile_model.hpp"
#include "sim/trap.hpp"

namespace rvvsvm::rvv::detail {

/// Performs C++ arithmetic in the unsigned companion type so overflow is
/// defined modular wrap, then converts back — the RVV integer semantics.
template <VectorElement T>
using Wide = std::make_unsigned_t<T>;

template <VectorElement T>
[[nodiscard]] constexpr T wrap_add(T a, T b) noexcept {
  return static_cast<T>(static_cast<Wide<T>>(static_cast<Wide<T>>(a) +
                                             static_cast<Wide<T>>(b)));
}
template <VectorElement T>
[[nodiscard]] constexpr T wrap_sub(T a, T b) noexcept {
  return static_cast<T>(static_cast<Wide<T>>(static_cast<Wide<T>>(a) -
                                             static_cast<Wide<T>>(b)));
}
template <VectorElement T>
[[nodiscard]] constexpr T wrap_mul(T a, T b) noexcept {
  return static_cast<T>(static_cast<Wide<T>>(static_cast<Wide<T>>(a) *
                                             static_cast<Wide<T>>(b)));
}
/// Shift amounts use only log2(SEW) low bits (RVV 1.0 section 11.6).
template <VectorElement T>
[[nodiscard]] constexpr unsigned shamt(T b) noexcept {
  return static_cast<unsigned>(static_cast<Wide<T>>(b) & (kSewBits<T> - 1));
}

/// Validation context of the instruction being emulated: the machine plus
/// the identity fields every trap must carry.  Step 1 of the protocol runs
/// entirely through this object, so every operand violation raises a typed
/// trap with full context before anything is charged.
struct OpCtx {
  Machine& m;
  const char* op;
  std::size_t vl;
  unsigned lmul;

  [[nodiscard]] TrapContext context() const noexcept {
    return m.trap_context(op, vl, lmul);
  }

  [[noreturn]] void trap_operand(const std::string& detail) const {
    throw OperandTrap(std::string(op) + ": " + detail, context());
  }
  [[noreturn]] void trap_memory(const std::string& detail,
                                std::size_t element) const {
    throw MemoryAccessTrap(std::string(op) + ": " + detail, element, context());
  }

  /// Validate vl against an operand's capacity (VLMAX for its SEW/LMUL).
  void check_vl(std::size_t capacity, const char* operand) const {
    if (vl > capacity) {
      trap_operand(std::string("vl exceeds capacity of ") + operand +
                   " (VLMAX for this SEW/LMUL)");
    }
  }

  /// Validate that an operand was produced on this instruction's machine.
  void check_machine(const Machine& other, const char* operand) const {
    if (&other != &m) {
      trap_operand(std::string(operand) + " from a different machine");
    }
  }
};

/// Step 2 of the protocol: charge exactly one dynamic instruction of class
/// `cls`.  In normal operation this is a plain counter add (plus one
/// predictable branch).  When fault injection is armed on the machine, the
/// constructor routes through Machine::charge — giving the hook its
/// pre-charge trap window — and the destructor un-charges everything the
/// instruction added (including spill/reload traffic from its allocator
/// events) if it aborts after the charge, e.g. on an injected allocation
/// failure.  A trapped instruction never retires, so it never half-charges.
///
/// This is also the per-op hook of the execution cache (rvv/decode.hpp).
/// When the machine's tracer is recording a strip-mine iteration, the
/// guard's lifetime is the op's charge window: the constructor opens it
/// (resolving the op through the level-1 decoded-op cache) and the
/// destructor closes it with the exact per-class counts it retired.  When
/// the tracer is replaying, a matching op is consumed from the trace and
/// the guard does nothing at all — no fault window, no counter add, no
/// rollback snapshot; the counts land with the iteration's bulk charge.
/// `sew_bits` and `masked` extend the op identity to the full
/// (op, SEW, LMUL, masked?) decode key; mask-register ops pass sew_bits 0.
class ChargeGuard {
 public:
  ChargeGuard(Machine& m, sim::InstClass cls, const char* op, std::size_t vl,
              unsigned lmul, unsigned sew_bits = 0, bool masked = false)
      : m_(m) {
    // Replay first: it is the per-op hot path when the execution cache is
    // engaged, and `replaying()` is a single mode compare.  The record and
    // fault-armed paths run at most once per (trace, shape) resp. only
    // under an armed chaos schedule, so they stay out of line.
    ExecTracer& tr = m.tracer();
    if (tr.replaying()) {
      if (tr.match(op, cls, vl, lmul, sew_bits, masked)) {
        mode_ = Mode::kReplayed;
        return;
      }
      // Diverged from the trace: the tracer charged the consumed prefix
      // and disengaged; interpret this op normally below.
    } else if (tr.engaged()) {
      if (tr.record_begin(op, cls, vl, lmul, sew_bits, masked)) {
        mode_ = Mode::kRecording;
        uncaught_ = std::uncaught_exceptions();
        m.charge(cls, op, vl, lmul);
        return;
      }
    }
    if (m.fault_armed()) {
      mode_ = Mode::kArmed;
      uncaught_ = std::uncaught_exceptions();
      snap_ = m.counter().snapshot();
    }
    m.charge(cls, op, vl, lmul);
  }
  ~ChargeGuard() {
    switch (mode_) {
      case Mode::kFast:
      case Mode::kReplayed:
        return;
      case Mode::kRecording:
        if (std::uncaught_exceptions() > uncaught_) {
          m_.tracer().record_abandon();
        } else {
          m_.tracer().record_commit();
        }
        return;
      case Mode::kArmed:
        if (std::uncaught_exceptions() > uncaught_) {
          m_.counter().restore(snap_);
        }
        return;
    }
  }
  ChargeGuard(const ChargeGuard&) = delete;
  ChargeGuard& operator=(const ChargeGuard&) = delete;

 private:
  enum class Mode : std::uint8_t { kFast, kReplayed, kRecording, kArmed };

  Machine& m_;
  Mode mode_ = Mode::kFast;
  int uncaught_ = 0;
  sim::CountSnapshot snap_;
};

/// RAII bracket around one instruction's register-allocator events.
/// All operand use() calls must precede define().
///
/// During trace replay the allocator is skipped entirely: the record pass
/// captured the iteration's spill/reload charges in the trace, and the
/// self-containment precondition (no values live across the iteration
/// boundary) makes them reproducible.  define() then returns kNoValue, so
/// replay-produced vregs carry no allocator token.
class AllocGuard {
 public:
  explicit AllocGuard(Machine& machine)
      : regfile_(machine.tracer().replaying() ? nullptr : machine.regfile()) {
    if (regfile_ != nullptr) {
      uncaught_ = std::uncaught_exceptions();
      regfile_->begin_inst();
    }
  }
  ~AllocGuard() {
    if (regfile_ == nullptr) return;
    // If the instruction aborts between define() and the result token
    // taking ownership (an injected allocation failure inside make_vreg),
    // the defined register group would leak and the machine would lose one
    // register per trap.  Release it so a trapped instruction leaves the
    // register file exactly as it found it.  (release() ignores ids the
    // token did take ownership of and already released.)
    if (pending_ != sim::kNoValue && std::uncaught_exceptions() > uncaught_) {
      regfile_->release(pending_);
    }
    regfile_->end_inst();
  }
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  void use(sim::ValueId id) {
    if (regfile_ != nullptr && id != sim::kNoValue) regfile_->use(id);
  }
  void use_mask(sim::ValueId id) {
    if (regfile_ != nullptr && id != sim::kNoValue) regfile_->use_as_mask(id);
  }
  [[nodiscard]] sim::ValueId define(unsigned lmul) {
    pending_ = regfile_ != nullptr ? regfile_->define(lmul) : sim::kNoValue;
    return pending_;
  }

 private:
  sim::VRegFileModel* regfile_;
  sim::ValueId pending_ = sim::kNoValue;
  int uncaught_ = 0;
};

/// Result element storage acquired from the machine's buffer pool, poisoned
/// to the tail-agnostic pattern.
template <VectorElement T>
[[nodiscard]] sim::PooledBuffer<T> poisoned_elems(Machine& m, std::size_t capacity) {
  sim::PooledBuffer<T> buf(m.pool(), capacity);
  std::fill_n(buf.data(), capacity, kTailPoison<T>);
  return buf;
}

/// Result storage for an instruction that fully writes the body [0, vl):
/// only the tail [vl, capacity) needs the poison pattern, so skip the body
/// fill.  Callers must write every body element (vcompress, which writes
/// only the packed prefix, uses poisoned_elems instead).  The pool hands
/// out uninitialized storage, so the skipped fill is never paid.
template <VectorElement T>
[[nodiscard]] sim::PooledBuffer<T> result_elems(Machine& m, std::size_t capacity,
                                               std::size_t vl) {
  sim::PooledBuffer<T> buf(m.pool(), capacity);
  std::fill(buf.data() + vl, buf.data() + capacity, kTailPoison<T>);
  return buf;
}

/// Mask variant of result_elems: bits [0, vl) are the caller's to write,
/// the tail holds poison (set bits, the mask-agnostic pattern).
[[nodiscard]] inline sim::PooledBuffer<std::uint8_t> result_bits(
    Machine& m, std::size_t capacity, std::size_t vl) {
  sim::PooledBuffer<std::uint8_t> buf(m.pool(), capacity);
  std::fill(buf.data() + vl, buf.data() + capacity, std::uint8_t{1});
  return buf;
}

/// Result element storage initialized to a copy of `src` (the path for
/// tail/maskedoff-undisturbed destinations such as vmv.s.x).
template <VectorElement T>
[[nodiscard]] sim::PooledBuffer<T> copied_elems(Machine& m, std::span<const T> src) {
  sim::PooledBuffer<T> buf(m.pool(), src.size());
  std::copy(src.begin(), src.end(), buf.data());
  return buf;
}

/// Result mask storage (poison = set bits, the mask-agnostic pattern).
[[nodiscard]] inline sim::PooledBuffer<std::uint8_t> poisoned_bits(
    Machine& m, std::size_t capacity) {
  sim::PooledBuffer<std::uint8_t> buf(m.pool(), capacity);
  std::fill_n(buf.data(), capacity, std::uint8_t{1});
  return buf;
}

/// Finalize a vector result: attach the machine and the allocator token.
template <VectorElement T, unsigned LMUL>
[[nodiscard]] vreg<T, LMUL> make_vreg(Machine& machine, sim::PooledBuffer<T> elems,
                                      sim::ValueId id) {
  return vreg<T, LMUL>(machine, std::move(elems), ValueToken(machine, id));
}

[[nodiscard]] inline vmask make_vmask(Machine& machine,
                                      sim::PooledBuffer<std::uint8_t> bits,
                                      sim::ValueId id) {
  return vmask(machine, std::move(bits), ValueToken(machine, id));
}

/// Unary elementwise instruction: d[i] = f(a[i]).
template <VectorElement T, unsigned LMUL, class F>
[[nodiscard]] vreg<T, LMUL> unary(sim::InstClass cls, const char* op,
                                  const vreg<T, LMUL>& a, std::size_t vl, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, LMUL};
  ctx.check_vl(a.capacity(), "source");
  ChargeGuard charge(m, cls, op, vl, LMUL, kSewBits<T>);
  AllocGuard guard(m);
  guard.use(a.value_id());
  const sim::ValueId id = guard.define(LMUL);
  auto out = result_elems<T>(m, a.capacity(), vl);
  const T* pa = a.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = f(pa[i]);
  return make_vreg<T, LMUL>(m, std::move(out), id);
}

/// Vector-vector elementwise instruction: d[i] = f(a[i], b[i]).
template <VectorElement T, unsigned LMUL, class F>
[[nodiscard]] vreg<T, LMUL> binary_vv(sim::InstClass cls, const char* op,
                                      const vreg<T, LMUL>& a,
                                      const vreg<T, LMUL>& b, std::size_t vl,
                                      F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, LMUL};
  ctx.check_machine(b.machine(), "second source operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(b.capacity(), "second source");
  ChargeGuard charge(m, cls, op, vl, LMUL, kSewBits<T>);
  AllocGuard guard(m);
  guard.use(a.value_id());
  guard.use(b.value_id());
  const sim::ValueId id = guard.define(LMUL);
  auto out = result_elems<T>(m, a.capacity(), vl);
  const T* pa = a.elems().data();
  const T* pb = b.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = f(pa[i], pb[i]);
  return make_vreg<T, LMUL>(m, std::move(out), id);
}

/// Vector-scalar elementwise instruction: d[i] = f(a[i], x).
template <VectorElement T, unsigned LMUL, class F>
[[nodiscard]] vreg<T, LMUL> binary_vx(sim::InstClass cls, const char* op,
                                      const vreg<T, LMUL>& a, T x,
                                      std::size_t vl, F f) {
  return unary(cls, op, a, vl, [&](T ai) { return f(ai, x); });
}

/// Masked vector-vector instruction.  Elements whose mask bit is clear take
/// the maskedoff value (mask-undisturbed) or poison when maskedoff is
/// vundefined() (mask-agnostic), matching the intrinsic API.
template <VectorElement T, unsigned LMUL, class F>
[[nodiscard]] vreg<T, LMUL> masked_binary_vv(sim::InstClass cls, const char* op,
                                             const vmask& mask,
                                             const vreg<T, LMUL>& maskedoff,
                                             const vreg<T, LMUL>& a,
                                             const vreg<T, LMUL>& b,
                                             std::size_t vl, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, LMUL};
  ctx.check_machine(b.machine(), "second source operand");
  ctx.check_machine(mask.machine(), "mask operand");
  if (maskedoff.defined()) {
    ctx.check_machine(maskedoff.machine(), "maskedoff operand");
    ctx.check_vl(maskedoff.capacity(), "maskedoff");
  }
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(b.capacity(), "second source");
  ctx.check_vl(mask.capacity(), "mask");
  ChargeGuard charge(m, cls, op, vl, LMUL, kSewBits<T>, /*masked=*/true);
  AllocGuard guard(m);
  guard.use_mask(mask.value_id());
  guard.use(maskedoff.defined() ? maskedoff.value_id() : sim::kNoValue);
  guard.use(a.value_id());
  guard.use(b.value_id());
  const sim::ValueId id = guard.define(LMUL);
  auto out = result_elems<T>(m, a.capacity(), vl);
  const std::uint8_t* pm = mask.bits().data();
  const T* pa = a.elems().data();
  const T* pb = b.elems().data();
  const T* poff = maskedoff.defined() ? maskedoff.elems().data() : nullptr;
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    po[i] = pm[i] != 0 ? f(pa[i], pb[i])
                       : (poff != nullptr ? poff[i] : kTailPoison<T>);
  }
  return make_vreg<T, LMUL>(m, std::move(out), id);
}

/// Masked vector-scalar instruction.
template <VectorElement T, unsigned LMUL, class F>
[[nodiscard]] vreg<T, LMUL> masked_binary_vx(sim::InstClass cls, const char* op,
                                             const vmask& mask,
                                             const vreg<T, LMUL>& maskedoff,
                                             const vreg<T, LMUL>& a, T x,
                                             std::size_t vl, F f) {
  return masked_binary_vv(cls, op, mask, maskedoff, a, a, vl,
                          [&](T ai, T) { return f(ai, x); });
}

}  // namespace rvvsvm::rvv::detail
