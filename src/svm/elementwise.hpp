// Elementwise instructions of the scan vector model (paper section 4.1).
//
// Every function strip-mines its input with the schedule of the paper's
// Listing 4: vsetvl + loads + one arithmetic instruction + store per block,
// plus the scalar loop bookkeeping.  All operate in place on the first
// operand, mirroring the paper's p-add signature; `LMUL` selects the
// register-group multiplier studied in section 6.3.
//
// A kernel must run inside an rvv::MachineScope; dynamic instruction counts
// accumulate on that machine's counter.
#pragma once

#include <span>

#include "svm/detail.hpp"

namespace rvvsvm::svm {

namespace detail {

/// `f` is the strip-mined op body; `s` is its exact scalar semantic
/// (s(a[i], x) == element i of f's result), which the fused trace replay
/// runs directly over the array once the block's trace is stable.  The
/// two-operand form fuses only when `b` is `a` itself or disjoint from it
/// (detail::same_or_disjoint); any other overlap interprets.
/// At LMUL == kTunedLmul (the public kernels' default) the autotuner picks
/// the register grouping; measurement reuses the caller's own f/s closures
/// on scratch data, so one head here tunes the whole p_add/p_sub/... family.
template <rvv::VectorElement T, unsigned LMUL, class F, class S>
void elementwise_vx(std::span<T> a, T x, F f, S s) {
  if constexpr (LMUL == kTunedLmul) {
    tuned_run<T>(
        tune::Shape::kElementwiseVx, a.size(),
        [&](auto lc, TuneScratch<T>& sc) {
          elementwise_vx<T, decltype(lc)::value>(std::span<T>(sc.a), x, f, s);
        },
        [&](auto lc) { elementwise_vx<T, decltype(lc)::value>(a, x, f, s); });
    return;
  } else {
  svm::detail::stripmine<T, LMUL>(
      a.size(), /*pointer_bumps=*/1,
      [&](std::size_t pos, std::size_t vl) {
        auto va = rvv::vle<T, LMUL>(a.subspan(pos), vl);
        va = f(va, x, vl);
        rvv::vse(a.subspan(pos), va, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        T* pa = a.data() + pos;
        const T xv = x;
        for (std::size_t i = 0; i < vl; ++i) pa[i] = s(pa[i], xv);
      });
  }
}

template <rvv::VectorElement T, unsigned LMUL, class F, class S>
void elementwise_vv(std::span<T> a, std::span<const T> b, F f, S s) {
  if constexpr (LMUL == kTunedLmul) {
    tuned_run<T>(
        tune::Shape::kElementwiseVv, a.size(),
        [&](auto lc, TuneScratch<T>& sc) {
          elementwise_vv<T, decltype(lc)::value>(
              std::span<T>(sc.a), std::span<const T>(sc.b), f, s);
        },
        [&](auto lc) { elementwise_vv<T, decltype(lc)::value>(a, b, f, s); });
    return;
  } else {
  if (b.size() < a.size()) detail::invalid_input("elementwise", "operand size mismatch");
  svm::detail::stripmine<T, LMUL>(
      a.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto va = rvv::vle<T, LMUL>(a.subspan(pos), vl);
        auto vb = rvv::vle<T, LMUL>(b.subspan(pos), vl);
        va = f(va, vb, vl);
        rvv::vse(a.subspan(pos), va, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        T* pa = a.data() + pos;
        const T* pb = b.data() + pos;
        for (std::size_t i = 0; i < vl; ++i) pa[i] = s(pa[i], pb[i]);
      },
      FusableIf{same_or_disjoint(std::span<const T>(a), b, a.size())});
  }
}

}  // namespace detail

// Each kernel passes the strip-mined op body AND the scalar lambda that is
// its exact elementwise semantic — the same expression the emulated op's
// lane loop evaluates (arith.hpp), so fused trace replay is bit-identical.

/// p-add (vector + scalar broadcast): a[i] += x.  The paper's Listing 4.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_add(std::span<T> a, std::type_identity_t<T> x) {
  detail::elementwise_vx<T, LMUL>(
      a, x,
      [](const auto& va, T xx, std::size_t vl) { return rvv::vadd(va, xx, vl); },
      [](T ai, T xx) { return rvv::detail::wrap_add(ai, xx); });
}

/// p-add (vector + vector): a[i] += b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_add(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vadd(va, vb, vl); },
      [](T ai, T bi) { return rvv::detail::wrap_add(ai, bi); });
}

/// p-sub: a[i] -= x.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_sub(std::span<T> a, std::type_identity_t<T> x) {
  detail::elementwise_vx<T, LMUL>(
      a, x,
      [](const auto& va, T xx, std::size_t vl) { return rvv::vsub(va, xx, vl); },
      [](T ai, T xx) { return rvv::detail::wrap_sub(ai, xx); });
}

/// p-sub: a[i] -= b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_sub(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vsub(va, vb, vl); },
      [](T ai, T bi) { return rvv::detail::wrap_sub(ai, bi); });
}

/// p-multiply: a[i] *= x.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_mul(std::span<T> a, std::type_identity_t<T> x) {
  detail::elementwise_vx<T, LMUL>(
      a, x,
      [](const auto& va, T xx, std::size_t vl) { return rvv::vmul(va, xx, vl); },
      [](T ai, T xx) { return rvv::detail::wrap_mul(ai, xx); });
}

/// p-multiply: a[i] *= b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_mul(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vmul(va, vb, vl); },
      [](T ai, T bi) { return rvv::detail::wrap_mul(ai, bi); });
}

/// p-maximum: a[i] = max(a[i], b[i]).
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_max(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vmax(va, vb, vl); },
      [](T ai, T bi) { return ai > bi ? ai : bi; });
}

/// p-minimum: a[i] = min(a[i], b[i]).
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_min(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vmin(va, vb, vl); },
      [](T ai, T bi) { return ai < bi ? ai : bi; });
}

/// p-and: a[i] &= b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_and(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vand(va, vb, vl); },
      [](T ai, T bi) { return static_cast<T>(ai & bi); });
}

/// p-or: a[i] |= b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_or(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vor(va, vb, vl); },
      [](T ai, T bi) { return static_cast<T>(ai | bi); });
}

/// p-shift-right (logical): a[i] >>= k.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_shift_right(std::span<T> a, std::type_identity_t<T> k) {
  detail::elementwise_vx<T, LMUL>(
      a, k,
      [](const auto& va, T kk, std::size_t vl) { return rvv::vsrl(va, kk, vl); },
      [](T ai, T kk) {
        using U = rvv::detail::Wide<T>;
        return static_cast<T>(static_cast<U>(ai) >> rvv::detail::shamt(kk));
      });
}

/// p-shift-left: a[i] <<= k.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_shift_left(std::span<T> a, std::type_identity_t<T> k) {
  detail::elementwise_vx<T, LMUL>(
      a, k,
      [](const auto& va, T kk, std::size_t vl) { return rvv::vsll(va, kk, vl); },
      [](T ai, T kk) {
        using U = rvv::detail::Wide<T>;
        return static_cast<T>(
            static_cast<U>(static_cast<U>(ai) << rvv::detail::shamt(kk)));
      });
}

/// p-xor: a[i] ^= b[i].
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_xor(std::span<T> a, std::span<const T> b) {
  detail::elementwise_vv<T, LMUL>(
      a, b,
      [](const auto& va, const auto& vb, std::size_t vl) { return rvv::vxor(va, vb, vl); },
      [](T ai, T bi) { return static_cast<T>(ai ^ bi); });
}

/// p-combine: a[i] = x ⊕ a[i] for an op-traits operator (see op_traits.hpp;
/// the scalar is the EARLIER operand, matching the vx orientation contract).
/// This is the offset-fixup step of two-level scans: after each shard is
/// scanned locally, the exclusive scan of the shard totals is folded into
/// every element of the shard with one elementwise pass.
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_combine(std::span<T> a, std::type_identity_t<T> x) {
  detail::elementwise_vx<T, LMUL>(
      a, x,
      // vreg deduces T and the (tuner-resolved) LMUL; naming LMUL here would
      // pin the sentinel.
      [](const auto& va, T xx, std::size_t vl) { return Op::vx(va, xx, vl); },
      // vx computes x ⊕ a[i]: the scalar is the earlier operand.
      [](T ai, T xx) { return Op::scalar(xx, ai); });
}

/// p-select, the conditional move of the scan vector model with the paper's
/// split-operation signature: where flags[i] is non-zero, dst[i] is replaced
/// by if_true[i]; elsewhere dst keeps its value.  Fuses only when `dst` is
/// each read operand or disjoint from it.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_select(std::span<const T> flags, std::span<const T> if_true, std::span<T> dst) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kSelect, dst.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          p_select<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                           std::span<const T>(sc.b),
                                           std::span<T>(sc.c));
        },
        [&](auto lc) { p_select<T, decltype(lc)::value>(flags, if_true, dst); });
    return;
  } else {
  if (flags.size() < dst.size() || if_true.size() < dst.size()) {
    detail::invalid_input("p_select", "operand size mismatch");
  }
  detail::stripmine<T, LMUL>(
      dst.size(), /*pointer_bumps=*/3,
      [&](std::size_t pos, std::size_t vl) {
        auto vf = rvv::vle<T, LMUL>(flags.subspan(pos), vl);
        auto vt = rvv::vle<T, LMUL>(if_true.subspan(pos), vl);
        auto vd = rvv::vle<T, LMUL>(dst.subspan(pos), vl);
        const auto mask = rvv::vmsne(vf, T{0}, vl);
        vd = rvv::vmerge(mask, vt, vd, vl);
        rvv::vse(dst.subspan(pos), vd, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* pf = flags.data() + pos;
        const T* pt = if_true.data() + pos;
        T* pd = dst.data() + pos;
        // Both operands load before the select, so the loop compiles to a
        // blend instead of a branch on the (random) flags.
        for (std::size_t i = 0; i < vl; ++i) {
          const T t = pt[i];
          const T d = pd[i];
          pd[i] = pf[i] != T{0} ? t : d;
        }
      },
      detail::FusableIf{
          detail::same_or_disjoint(std::span<const T>(dst), flags, dst.size()) &&
          detail::same_or_disjoint(std::span<const T>(dst), if_true, dst.size())});
  }
}

namespace detail {

/// `cmp` drives the mask op; `scmp(a[i], b[i])` is its exact scalar relation,
/// run directly by fused trace replay.  Both compare forms fuse only when
/// `dst` is each read operand or disjoint from it.
template <rvv::VectorElement T, unsigned LMUL, class Cmp, class SCmp>
void flag_compare(std::span<const T> a, std::span<const T> b, std::span<T> dst,
                  Cmp cmp, SCmp scmp) {
  if constexpr (LMUL == kTunedLmul) {
    tuned_run<T>(
        tune::Shape::kFlagVv, a.size(),
        [&](auto lc, TuneScratch<T>& sc) {
          flag_compare<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                               std::span<const T>(sc.b),
                                               std::span<T>(sc.c), cmp, scmp);
        },
        [&](auto lc) {
          flag_compare<T, decltype(lc)::value>(a, b, dst, cmp, scmp);
        });
    return;
  } else {
  if (b.size() < a.size() || dst.size() < a.size()) {
    detail::invalid_input("p_flag", "operand size mismatch");
  }
  stripmine<T, LMUL>(
      a.size(), /*pointer_bumps=*/3,
      [&](std::size_t pos, std::size_t vl) {
        auto va = rvv::vle<T, LMUL>(a.subspan(pos), vl);
        auto vb = rvv::vle<T, LMUL>(b.subspan(pos), vl);
        const auto mask = cmp(va, vb, vl);
        auto ones = rvv::vmv_v_x<T, LMUL>(T{1}, vl);
        auto flags = rvv::vmerge(mask, ones,
                                 rvv::vmv_v_x<T, LMUL>(T{0}, vl), vl);
        rvv::vse(dst.subspan(pos), flags, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* pa = a.data() + pos;
        const T* pb = b.data() + pos;
        T* pd = dst.data() + pos;
        for (std::size_t i = 0; i < vl; ++i) pd[i] = scmp(pa[i], pb[i]) ? T{1} : T{0};
      },
      FusableIf{same_or_disjoint(std::span<const T>(dst), a, a.size()) &&
                same_or_disjoint(std::span<const T>(dst), b, a.size())});
  }
}

}  // namespace detail

/// Comparison flags (Blelloch's elementwise predicates): dst[i] = 1 when the
/// relation holds between a[i] and b[i], else 0 — producing the 0/1 flag
/// vectors that enumerate/split/segmented kernels consume.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_lt(std::span<const T> a, std::span<const T> b, std::span<T> dst) {
  detail::flag_compare<T, LMUL>(
      a, b, dst,
      [](const auto& x, const auto& y, std::size_t vl) { return rvv::vmslt(x, y, vl); },
      [](T x, T y) { return x < y; });
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_eq(std::span<const T> a, std::span<const T> b, std::span<T> dst) {
  detail::flag_compare<T, LMUL>(
      a, b, dst,
      [](const auto& x, const auto& y, std::size_t vl) { return rvv::vmseq(x, y, vl); },
      [](T x, T y) { return x == y; });
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_gt(std::span<const T> a, std::span<const T> b, std::span<T> dst) {
  detail::flag_compare<T, LMUL>(
      a, b, dst,
      [](const auto& x, const auto& y, std::size_t vl) { return rvv::vmsgt(x, y, vl); },
      [](T x, T y) { return x > y; });
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_ne(std::span<const T> a, std::span<const T> b, std::span<T> dst) {
  detail::flag_compare<T, LMUL>(
      a, b, dst,
      [](const auto& x, const auto& y, std::size_t vl) { return rvv::vmsne(x, y, vl); },
      [](T x, T y) { return x != y; });
}

namespace detail {

template <rvv::VectorElement T, unsigned LMUL, class Cmp, class SCmp>
void flag_compare_vx(std::span<const T> a, T x, std::span<T> dst, Cmp cmp,
                     SCmp scmp) {
  if constexpr (LMUL == kTunedLmul) {
    tuned_run<T>(
        tune::Shape::kFlagVx, a.size(),
        [&](auto lc, TuneScratch<T>& sc) {
          flag_compare_vx<T, decltype(lc)::value>(
              std::span<const T>(sc.a), x, std::span<T>(sc.b), cmp, scmp);
        },
        [&](auto lc) {
          flag_compare_vx<T, decltype(lc)::value>(a, x, dst, cmp, scmp);
        });
    return;
  } else {
  if (dst.size() < a.size()) detail::invalid_input("p_flag", "dst too small");
  stripmine<T, LMUL>(
      a.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto va = rvv::vle<T, LMUL>(a.subspan(pos), vl);
        const auto mask = cmp(va, x, vl);
        auto flags = rvv::vmerge(mask, rvv::vmv_v_x<T, LMUL>(T{1}, vl),
                                 rvv::vmv_v_x<T, LMUL>(T{0}, vl), vl);
        rvv::vse(dst.subspan(pos), flags, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* pa = a.data() + pos;
        T* pd = dst.data() + pos;
        const T xv = x;
        for (std::size_t i = 0; i < vl; ++i) pd[i] = scmp(pa[i], xv) ? T{1} : T{0};
      },
      FusableIf{same_or_disjoint(std::span<const T>(dst), a, a.size())});
  }
}

}  // namespace detail

/// Scalar-comparand flags: dst[i] = 1 when the relation holds between a[i]
/// and x (thresholding, pivot comparisons).
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_gt(std::span<const T> a, std::type_identity_t<T> x, std::span<T> dst) {
  detail::flag_compare_vx<T, LMUL>(
      a, x, dst,
      [](const auto& v, T xx, std::size_t vl) { return rvv::vmsgt(v, xx, vl); },
      [](T e, T xx) { return e > xx; });
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_lt(std::span<const T> a, std::type_identity_t<T> x, std::span<T> dst) {
  detail::flag_compare_vx<T, LMUL>(
      a, x, dst,
      [](const auto& v, T xx, std::size_t vl) { return rvv::vmslt(v, xx, vl); },
      [](T e, T xx) { return e < xx; });
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_flag_eq(std::span<const T> a, std::type_identity_t<T> x, std::span<T> dst) {
  detail::flag_compare_vx<T, LMUL>(
      a, x, dst,
      [](const auto& v, T xx, std::size_t vl) { return rvv::vmseq(v, xx, vl); },
      [](T e, T xx) { return e == xx; });
}

/// Elementwise width conversion: dst[i] = (To)src[i], strip-mined at the
/// wider type's VLMAX and using the single-instruction vzext/vsext (widen)
/// or vnsrl (narrow) forms.  Lets algorithms over narrow keys compute with
/// wide indices, as RVV mixed-width code does.
template <rvv::VectorElement From, rvv::VectorElement To, unsigned LMUL = 1>
void p_convert(std::span<const From> src, std::span<To> dst) {
  if (dst.size() < src.size()) detail::invalid_input("p_convert", "dst too small");
  using Wide = std::conditional_t<(sizeof(From) > sizeof(To)), From, To>;
  rvv::Machine& m = rvv::Machine::active();
  m.scalar().charge(sim::kKernelPrologue);
  std::size_t n = src.size();
  std::size_t pos = 0;
  while (n > 0) {
    const std::size_t vl = m.vsetvl<Wide>(n, LMUL);
    auto v = rvv::vle<From, LMUL>(src.subspan(pos), vl);
    if constexpr (sizeof(From) < sizeof(To)) {
      rvv::vse(dst.subspan(pos), rvv::vext<To>(v, vl), vl);
    } else if constexpr (sizeof(From) > sizeof(To)) {
      rvv::vse(dst.subspan(pos), rvv::vnsrl<To>(v, vl), vl);
    } else {
      static_assert(std::is_same_v<From, To>,
                    "same-width type punning is not a vector conversion");
      rvv::vse(dst.subspan(pos), v, vl);
    }
    pos += vl;
    n -= vl;
    m.scalar().charge(sim::stripmine_iteration(2));
  }
}

/// Elementwise copy (the model's move instruction): dst[i] = src[i].  Fuses
/// only when `dst` is `src` or disjoint from it.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void p_copy(std::span<const T> src, std::span<T> dst) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kCopy, dst.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          p_copy<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                         std::span<T>(sc.b));
        },
        [&](auto lc) { p_copy<T, decltype(lc)::value>(src, dst); });
    return;
  } else {
  if (src.size() < dst.size()) detail::invalid_input("p_copy", "source too short");
  detail::stripmine<T, LMUL>(
      dst.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto v = rvv::vle<T, LMUL>(src.subspan(pos), vl);
        rvv::vse(dst.subspan(pos), v, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* ps = src.data() + pos;
        T* pd = dst.data() + pos;
        for (std::size_t i = 0; i < vl; ++i) pd[i] = ps[i];
      },
      detail::FusableIf{
          detail::same_or_disjoint(std::span<const T>(dst), src, dst.size())});
  }
}

}  // namespace rvvsvm::svm
