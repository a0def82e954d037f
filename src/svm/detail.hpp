// Strip-mining helper shared by every vectorized SVM kernel.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "rvv/rvv.hpp"
#include "sim/scalar_model.hpp"
#include "svm/tuning.hpp"

namespace rvvsvm::svm::detail {

/// Trap context for a kernel input-contract violation.  Best-effort:
/// machine fields are filled from the active machine when one is scoped
/// (kernels may validate before scoping).
[[nodiscard]] inline TrapContext input_context(const char* op) noexcept {
  if (rvv::Machine* m = rvv::Machine::active_or_null()) {
    return m->trap_context(op, /*vl=*/0, /*lmul=*/0);
  }
  TrapContext ctx;
  ctx.op = op;
  ctx.hart = current_hart();
  return ctx;
}

/// Raise the typed input-contract trap.  InvalidInputTrap derives
/// std::invalid_argument, so existing catch sites keep working.
[[noreturn]] inline void invalid_input(const char* op, const char* detail) {
  throw InvalidInputTrap(std::string(op) + ": " + detail, input_context(op));
}

/// True when the two spans share no element (std::less orders pointers into
/// unrelated arrays too).
template <class T>
[[nodiscard]] bool disjoint(std::span<const T> a, std::span<const T> b) noexcept {
  const std::less<const T*> before;
  return !before(a.data(), b.data() + b.size()) ||
         !before(b.data(), a.data() + a.size());
}

/// True when a fused loop may write the first n elements of `out` while it
/// reads the first n of `in`: the two are the same elements, or share none.
/// An emulated block loads all its operands before its store commits, so
/// there any overlap is harmless; a fused loop runs element by element
/// across a whole run, and with `out` partly overlapping `in` it would read
/// elements it has already overwritten.
template <class T>
[[nodiscard]] bool same_or_disjoint(std::span<const T> out, std::span<const T> in,
                                    std::size_t n) noexcept {
  return out.data() == in.data() || disjoint(out.first(n), in.first(n));
}

/// Runs `body(pos, vl)` over the blocks of an n-element array exactly the
/// way the paper's Listing 2 strip-mines: one vsetvl per iteration (charged
/// inside Machine::vsetvl) plus the documented scalar bookkeeping for
/// `pointer_bumps` live array pointers.  The kernel prologue branch is
/// charged once.
///
/// Each iteration is bracketed by a TraceIteration, feeding the machine's
/// fused-trace cache (rvv/decode.hpp): the first execution of a given
/// (call site, vl, SEW, LMUL) shape records the body's op sequence, the
/// second verifies it, and later iterations — and later calls reaching the
/// same shape — replay it with one bulk charge instead of per-op
/// accounting.  `Body` is a distinct closure type per kernel call site, so
/// the function-local static gives each strip-mined loop its own trace
/// identity.  Scalar bookkeeping (and any scalar charges inside the body)
/// stays live-charged: it sits outside the per-op charge windows, so it is
/// never double-counted by a replay.
template <rvv::VectorElement T, unsigned LMUL, class Body>
void stripmine(std::size_t n, unsigned pointer_bumps, Body body) {
  rvv::Machine& m = rvv::Machine::active();
  static const rvv::TraceSite site{};
  m.scalar().charge(sim::kKernelPrologue);
  std::size_t pos = 0;
  while (n > 0) {
    const std::size_t vl = m.vsetvl<T>(n, LMUL);
    {
      rvv::TraceIteration trace(m, site, vl, rvv::kSewBits<T>, LMUL);
      body(pos, vl);
      trace.finish();
    }
    pos += vl;
    n -= vl;
    m.scalar().charge(sim::stripmine_iteration(pointer_bumps));
  }
}

/// Default `fusable` guard of the fused stripmine: every iteration may fuse.
struct AlwaysFusable {
  constexpr bool operator()(std::size_t, std::size_t) const noexcept {
    return true;
  }
};

/// A `fusable` guard decided once per call (operand overlap, pack's
/// capacity): every block of the call gets the same verdict.
struct FusableIf {
  bool ok;
  constexpr bool operator()(std::size_t, std::size_t) const noexcept { return ok; }
};

/// Fused-execution variant: once the iteration's trace is stable, the whole
/// iteration is charged in bulk and `fused(pos, len)` runs in place of
/// `body(pos, vl)` — no per-op emulation at all, the trace-JIT idea applied
/// to the emulator's hot loop.  The kernel author asserts the contract that
/// makes this exact:
///   * `fused` writes bit-identical data to `body`, and the body's counts do
///     not depend on element values: every block of one shape retires the
///     trace's recorded `iter_total`.  The op sequence itself may depend on
///     the data (`pack`'s store length is its block's popcount) — a fused
///     replay never matches ops one by one; the fuzz oracle's trace layer
///     enforces both halves;
///   * one call `fused(pos, k * vl)` over k consecutive full blocks writes
///     exactly what the k calls `fused(pos + i * vl, vl)`, made in order,
///     would write.  Elementwise loops meet this trivially; the folds carry
///     their state left to right with integer operators that are exactly
///     associative;
///   * `fused` cannot trap, and writes what `body` would, when
///     `fusable(pos, vl)` holds.  Bodies whose validation is purely
///     shape-derived keep the always-true default (the shape was validated
///     when the trace recorded); a body that can trap on element values
///     passes the exact condition its ops trap on (permute's index check,
///     pack's capacity check), and a body whose written operand may partly
///     overlap a read one passes the once-per-call verdict of
///     same_or_disjoint.  `fusable` is evaluated before the iteration's
///     bracket opens, and a block it rejects runs `body` with the tracer
///     idle: it interprets and traps exactly as the interpreter does, and
///     records and replays nothing, so a stable trace stays stable.
/// Recording, verification, and machines with the cache disabled (or a
/// fault schedule armed) all run `body` unchanged.  A fused body copies the
/// scalars it captured by reference (a carry, a shift amount, a broadcast
/// operand) into locals before its loop: through the reference, any store
/// to the array might alias them, and the compiler would reload them every
/// element instead of vectorizing the loop whenever this function is not
/// inlined into the kernel.
///
/// Steady state: after an iteration replays fused, the full blocks that
/// follow it (vl = VLMAX, so the same trace key) run as one *run* — one
/// charge of exactly what that many fused iterations charge one by one
/// (vsetvl, trace total, loop bookkeeping, spill/reload events, per-block
/// stats), then one `fused` call over the whole run.  Fused bodies create
/// no vector values and arm no fault channel, so every engagement
/// precondition the first block passed holds for the whole run.  The run
/// admits only blocks whose vsetvl would pass the deadline poll
/// (Machine::admit_fused_run) and stops at the first block `fusable`
/// rejects; that block, and the tail, go round the loop as before.
/// `fusable` sees every block of a run before the run's fused call, so it
/// must not read what `fused` writes (permute's guard reads only indices,
/// and never fuses when dst overlaps them).
///
/// Always inlined into its kernel, so the fused loops compile in the
/// kernel's own context whatever the guard type adds to this function.  Out
/// of line, the segmented scan's unchanged fused loop ran 1.5x slower in a
/// Release build (microbench_emulator's seg_scan_m8 cells).
template <rvv::VectorElement T, unsigned LMUL, class Body, class Fused,
          class Fusable = AlwaysFusable>
[[gnu::always_inline]] inline void stripmine(std::size_t n, unsigned pointer_bumps,
                                             Body body, Fused fused,
                                             Fusable fusable = {}) {
  rvv::Machine& m = rvv::Machine::active();
  static const rvv::TraceSite site{};
  const sim::ScalarCost step = sim::stripmine_iteration(pointer_bumps);
  m.scalar().charge(sim::kKernelPrologue);
  std::size_t pos = 0;
  while (n > 0) {
    const std::size_t vl = m.vsetvl<T>(n, LMUL);
    rvv::Trace* replayed = nullptr;
    {
      rvv::TraceIteration trace(m, site, vl, rvv::kSewBits<T>, LMUL,
                                fusable(pos, vl));
      if ((replayed = trace.replay_fused()) != nullptr) {
        fused(pos, vl);
      } else {
        body(pos, vl);
        trace.finish();
      }
    }
    pos += vl;
    n -= vl;
    m.scalar().charge(step);
    if (replayed != nullptr && n >= vl) {
      const std::size_t admitted = m.admit_fused_run(*replayed, n / vl, step);
      std::size_t blocks = 0;
      while (blocks < admitted && fusable(pos + blocks * vl, vl)) ++blocks;
      if (blocks == 0) continue;
      m.charge_fused_run(*replayed, blocks, step);
      fused(pos, blocks * vl);
      pos += blocks * vl;
      n -= blocks * vl;
    }
  }
}

}  // namespace rvvsvm::svm::detail
