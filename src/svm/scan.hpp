// Unsegmented scan instructions (paper section 4.3).
//
// The kernels strip-mine the array and run a logarithmic in-register scan
// per block (Figure 1 of the paper): lg(vl) slideup-and-combine steps, with
// the identity splat rematerialized per step (vmv.v.x) the way a compiler
// rematerializes constants instead of keeping them live.  A scalar carry
// propagates the running total between blocks; as in the paper's Listing 6
// it is re-read from memory after the block store (one scalar load + one
// address op).
//
// scan_inclusive computes [a0, a0⊕a1, ...]; scan_exclusive computes
// [I, a0, a0⊕a1, ...] with the identity I of the operator (Blelloch's
// definitions).  Both operate in place and require an active MachineScope.
#pragma once

#include <span>
#include <type_traits>

#include "svm/detail.hpp"
#include "svm/op_traits.hpp"
#include "svm/simd.hpp"

namespace rvvsvm::svm {

namespace detail {

/// The in-register scan of Figure 1: after the call, x[i] holds the
/// inclusive Op-scan of the block.  Charges lg(vl) slideup/combine pairs
/// plus the inner-loop scalar bookkeeping.
template <class Op, rvv::VectorElement T, unsigned LMUL>
[[nodiscard]] rvv::vreg<T, LMUL> inregister_scan(rvv::Machine& m,
                                                 rvv::vreg<T, LMUL> x,
                                                 std::size_t vl) {
  for (std::size_t offset = 1; offset < vl; offset <<= 1) {
    auto y = rvv::vmv_v_x<T, LMUL>(Op::template identity<T>(), vl);
    y = rvv::vslideup(y, x, offset, vl);
    x = Op::vv(x, y, vl);
    m.scalar().charge(sim::kInnerScanStep);
  }
  return x;
}

}  // namespace detail

/// Inclusive Op-scan, in place.
///
/// The fused body replays a stable trace as the sequential left fold
/// `acc = acc ⊕ a[i]`.  That is bit-identical to the emulated block
/// (carry applied over a Hillis-Steele tree scan) because the op-traits
/// operators are exactly associative on their integer element types and
/// the identity is two-sided — the kernel contract stripmine documents,
/// and the fuzz oracle's trace layer checks.  For the same reasons the
/// plus-scan folds whole host vectors at a time (an in-vector prefix plus
/// the broadcast carry, simd.hpp) and finishes the run's last partial
/// vector with the scalar fold.
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void scan_inclusive(std::span<T> data) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kScanInclusive, data.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          scan_inclusive<Op, T, decltype(lc)::value>(std::span<T>(sc.a));
        },
        [&](auto lc) { scan_inclusive<Op, T, decltype(lc)::value>(data); });
    return;
  } else {
  rvv::Machine& m = rvv::Machine::active();
  T carry = Op::template identity<T>();
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/1,
      [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        x = detail::inregister_scan<Op>(m, std::move(x), vl);
        x = Op::vx(x, carry, vl);
        rvv::vse(data.subspan(pos), x, vl);
        // carry = data[pos + vl - 1] (Listing 6 line 33)
        carry = data[pos + vl - 1];
        m.scalar().charge({.alu = 1, .load = 1});
      },
      [&](std::size_t pos, std::size_t len) {
        T* p = data.data() + pos;
        std::size_t i = 0;
        if constexpr (std::is_same_v<Op, PlusOp> && simd::kVectorLoop<T>) {
          constexpr std::size_t kLanes = simd::kLanes<T>;
          auto c = simd::splat(carry);
          for (; i + kLanes <= len; i += kLanes) {
            c += simd::prefix_sum<T>(simd::load(p + i));
            simd::store(p + i, c);
            c = simd::broadcast_last<T>(c);
          }
          carry = static_cast<T>(c[0]);
        }
        T acc = carry;
        for (; i < len; ++i) {
          acc = Op::template scalar<T>(acc, p[i]);
          p[i] = acc;
        }
        carry = acc;
      });
  }
}

/// Exclusive Op-scan, in place: result[0] = I, result[i] = scan of a[0..i).
/// The block result is derived from the in-register inclusive scan with a
/// vslide1up that injects the incoming carry; the outgoing carry is read
/// from the inclusive block tail with vslidedown + vmv.x.s so no extra
/// memory traffic is needed.
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void scan_exclusive(std::span<T> data) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kScanExclusive, data.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          scan_exclusive<Op, T, decltype(lc)::value>(std::span<T>(sc.a));
        },
        [&](auto lc) { scan_exclusive<Op, T, decltype(lc)::value>(data); });
    return;
  } else {
  rvv::Machine& m = rvv::Machine::active();
  T carry = Op::template identity<T>();
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/1,
      [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        x = detail::inregister_scan<Op>(m, std::move(x), vl);
        const T block_total =
            rvv::vmv_x_s(rvv::vslidedown(x, vl - 1, vl));
        auto ex = rvv::vslide1up(x, Op::template identity<T>(), vl);
        ex = Op::vx(ex, carry, vl);
        rvv::vse(data.subspan(pos), ex, vl);
        carry = Op::template scalar<T>(carry, block_total);
        m.scalar().charge({.alu = 1});
      },
      [&](std::size_t pos, std::size_t len) {
        // out[i] = carry ⊕ (I-prefixed inclusive fold of a[0..i)); the
        // running fold replaces the slide1up-shifted tree scan, element
        // by element identical for the same associativity reasons as the
        // inclusive fused body.  The vector loop shifts each in-vector
        // inclusive prefix up one lane, as the block's vslide1up does.
        T* p = data.data() + pos;
        std::size_t i = 0;
        if constexpr (std::is_same_v<Op, PlusOp> && simd::kVectorLoop<T>) {
          constexpr std::size_t kLanes = simd::kLanes<T>;
          auto c = simd::splat(carry);
          for (; i + kLanes <= len; i += kLanes) {
            const auto inclusive = simd::prefix_sum<T>(simd::load(p + i));
            simd::store(p + i, c + simd::shift_up<1, T>(inclusive));
            c += simd::broadcast_last<T>(inclusive);
          }
          carry = static_cast<T>(c[0]);
        }
        const T in = carry;
        T run = Op::template identity<T>();
        for (; i < len; ++i) {
          const T ai = p[i];
          p[i] = Op::template scalar<T>(in, run);
          run = Op::template scalar<T>(run, ai);
        }
        carry = Op::template scalar<T>(in, run);
      });
  }
}

/// The named forms of the paper and of Blelloch's model.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void plus_scan(std::span<T> data) { scan_inclusive<PlusOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void plus_scan_exclusive(std::span<T> data) { scan_exclusive<PlusOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void max_scan(std::span<T> data) { scan_inclusive<MaxOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void max_scan_exclusive(std::span<T> data) { scan_exclusive<MaxOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void min_scan(std::span<T> data) { scan_inclusive<MinOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void or_scan(std::span<T> data) { scan_inclusive<OrOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void and_scan(std::span<T> data) { scan_inclusive<AndOp, T, LMUL>(data); }
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void xor_scan(std::span<T> data) { scan_inclusive<XorOp, T, LMUL>(data); }

/// Whole-array reduction via vredsum per block (the model's reduce
/// instruction; also the total the enumerate operation returns).
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
[[nodiscard]] T reduce(std::span<const T> data) {
  if constexpr (LMUL == kTunedLmul) {
    return detail::tuned_run<T>(
        tune::Shape::kReduce, data.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          static_cast<void>(
              reduce<Op, T, decltype(lc)::value>(std::span<const T>(sc.a)));
        },
        [&](auto lc) { return reduce<Op, T, decltype(lc)::value>(data); });
  } else {
  T acc = Op::template identity<T>();
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/1,
      [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        if constexpr (std::is_same_v<Op, PlusOp>) {
          acc = rvv::vredsum(x, vl, acc);
        } else if constexpr (std::is_same_v<Op, MaxOp>) {
          acc = rvv::vredmax(x, vl, acc);
        } else if constexpr (std::is_same_v<Op, MinOp>) {
          acc = rvv::vredmin(x, vl, acc);
        } else if constexpr (std::is_same_v<Op, OrOp>) {
          acc = rvv::vredor(x, vl, acc);
        } else if constexpr (std::is_same_v<Op, AndOp>) {
          acc = rvv::vredand(x, vl, acc);
        } else {
          acc = rvv::vredxor(x, vl, acc);
        }
      },
      [&](std::size_t pos, std::size_t len) {
        // The emulated vred* folds acc = f(acc, a[i]) left to right with
        // f textually equal to Op::scalar — this IS that loop.  The
        // accumulator is a local: through the captured reference every
        // step would store it (p may alias it), and the compiler could
        // not vectorize the fold.
        const T* p = data.data() + pos;
        T fold = acc;
        for (std::size_t i = 0; i < len; ++i) {
          fold = Op::template scalar<T>(fold, p[i]);
        }
        acc = fold;
      });
  return acc;
  }
}

}  // namespace rvvsvm::svm
