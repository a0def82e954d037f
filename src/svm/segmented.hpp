// Segmented scan instructions (paper section 5).
//
// Segments are described by head-flags (the descriptor the paper chooses
// because it maps directly onto RVV mask instructions): head_flags[i] != 0
// marks the first element of a segment, and element 0 always starts a
// segment whether or not its flag is set.
//
// The kernel follows the paper's Listing 10.  Per strip-mine block:
//   * a mask of segment heads is built with vmsne,
//   * vmsbf turns it into the carry mask — only elements before the first
//     head of the block may receive the carry from the previous block,
//   * a head flag is planted at block position 0 with vmv.s.x,
//   * the in-register segmented scan runs lg(vl) steps (Figure 4): each
//     step slides values and flags up by `offset`, combines where no head
//     has been crossed (masked by the accumulated flags), and ORs the flag
//     vector with its slid copy to propagate segment boundaries.
// The flag vector rides in a regular vector register because RVV has no
// mask-register slide instruction (paper section 5.2).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "svm/detail.hpp"
#include "svm/elementwise.hpp"
#include "svm/op_traits.hpp"
#include "svm/permute_ops.hpp"

namespace rvvsvm::svm {

namespace detail {

/// In-register segmented scan (paper Figure 4).  `flags` must hold 0/1 head
/// flags with flags[0] = 1.  Returns the block's inclusive segmented scan.
template <class Op, rvv::VectorElement T, unsigned LMUL>
[[nodiscard]] rvv::vreg<T, LMUL> inregister_seg_scan(rvv::Machine& m,
                                                     rvv::vreg<T, LMUL> x,
                                                     rvv::vreg<T, LMUL> flags,
                                                     std::size_t vl) {
  for (std::size_t offset = 1; offset < vl; offset <<= 1) {
    const auto combine = rvv::vmseq(flags, T{0}, vl);
    auto y = rvv::vmv_v_x<T, LMUL>(Op::template identity<T>(), vl);
    y = rvv::vslideup(y, x, offset, vl);
    x = Op::vv_m(combine, x, x, y, vl);
    auto fy = rvv::vmv_v_x<T, LMUL>(T{1}, vl);
    fy = rvv::vslideup(fy, flags, offset, vl);
    flags = rvv::vor(flags, fy, vl);
    m.scalar().charge(sim::kInnerScanStep);
  }
  return x;
}

/// The segment-tail flags of the first n elements: tails[i] = 1 iff element
/// i closes its segment, i.e. tails[i] = head_flags[i + 1], with 1 after the
/// last element.  Each block slides its head flags down by one, pulling in
/// the next block's first flag (or the sentinel 1) with a scalar load and
/// branch; that charge is the same for every block, so the fused body is
/// the shifted copy alone.
template <rvv::VectorElement T, unsigned LMUL>
[[nodiscard]] std::vector<T> segment_tails(std::span<const T> head_flags,
                                           std::size_t n) {
  rvv::Machine& m = rvv::Machine::active();
  std::vector<T> tails(n);
  stripmine<T, LMUL>(
      n, /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto h = rvv::vle<T, LMUL>(head_flags.subspan(pos), vl);
        const T sentinel = (pos + vl < n) ? head_flags[pos + vl] : T{1};
        m.scalar().charge({.load = 1, .branch = 1});
        auto t = rvv::vslide1down(h, sentinel, vl);
        rvv::vse(std::span<T>(tails).subspan(pos), t, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const std::size_t shifted = pos + vl < n ? vl : vl - 1;
        std::copy_n(head_flags.data() + pos + 1, shifted, tails.data() + pos);
        if (shifted < vl) tails[n - 1] = T{1};
      });
  return tails;
}

}  // namespace detail

/// Inclusive segmented Op-scan, in place.  head_flags[i] must be 0 or 1.
///
/// The fused body replays a stable trace as the sequential segmented fold:
/// `acc` restarts at every head and otherwise accumulates `acc ⊕ a[i]`,
/// starting from the incoming carry.  That is bit-equal to the emulated
/// block (the vmsbf carry mask applied over the Figure 4 tree) for the same
/// associativity and two-sided-identity reasons as scan_inclusive's fold.
/// Both segmented scans fuse only when `data` is `head_flags` itself or
/// disjoint from it (detail::same_or_disjoint).
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_scan_inclusive(std::span<T> data, std::span<const T> head_flags) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kSegScanInclusive, data.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          // All-zero flags are legal: element 0 always starts a segment.
          seg_scan_inclusive<Op, T, decltype(lc)::value>(
              std::span<T>(sc.a), std::span<const T>(sc.b));
        },
        [&](auto lc) {
          seg_scan_inclusive<Op, T, decltype(lc)::value>(data, head_flags);
        });
    return;
  } else {
  if (head_flags.size() < data.size()) {
    detail::invalid_input("seg_scan", "head_flags shorter than data");
  }
  rvv::Machine& m = rvv::Machine::active();
  T carry = Op::template identity<T>();
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        auto flags = rvv::vle<T, LMUL>(head_flags.subspan(pos), vl);
        const auto heads = rvv::vmsne(flags, T{0}, vl);
        const auto carry_mask = rvv::vmsbf(heads, vl);
        flags = rvv::vmv_s_x(flags, T{1}, vl);
        x = detail::inregister_seg_scan<Op>(m, std::move(x), std::move(flags), vl);
        x = Op::vx_m(carry_mask, x, x, carry, vl);
        rvv::vse(data.subspan(pos), x, vl);
        carry = data[pos + vl - 1];  // Listing 10 line 33
        m.scalar().charge({.alu = 1, .load = 1});
      },
      [&](std::size_t pos, std::size_t vl) {
        T* p = data.data() + pos;
        const T* ph = head_flags.data() + pos;
        T acc = carry;
        for (std::size_t i = 0; i < vl; ++i) {
          const T folded = Op::template scalar<T>(acc, p[i]);
          acc = ph[i] != T{0} ? p[i] : folded;
          p[i] = acc;
        }
        carry = acc;
      },
      detail::FusableIf{detail::same_or_disjoint(std::span<const T>(data),
                                                 head_flags, data.size())});
  }
}

/// The paper's segmented plus-scan (Listing 10) and friends.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_plus_scan(std::span<T> data, std::span<const T> head_flags) {
  seg_scan_inclusive<PlusOp, T, LMUL>(data, head_flags);
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_max_scan(std::span<T> data, std::span<const T> head_flags) {
  seg_scan_inclusive<MaxOp, T, LMUL>(data, head_flags);
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_min_scan(std::span<T> data, std::span<const T> head_flags) {
  seg_scan_inclusive<MinOp, T, LMUL>(data, head_flags);
}
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_or_scan(std::span<T> data, std::span<const T> head_flags) {
  seg_scan_inclusive<OrOp, T, LMUL>(data, head_flags);
}

/// Exclusive segmented Op-scan, in place: within each segment,
/// result[i] = Op-fold of the segment's elements strictly before i (the
/// identity at every segment head).  Works for any operator, invertible or
/// not: each block computes the inclusive in-register scan, derives the
/// exclusive form with one vslide1up that injects the incoming carry, and
/// forces segment heads to the identity with vmerge.  The fused body is the
/// sequential segmented fold from the carry, bit-equal for the same reasons
/// as seg_scan_inclusive's.
template <class Op, rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_scan_exclusive(std::span<T> data, std::span<const T> head_flags) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kSegScanExclusive, data.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          seg_scan_exclusive<Op, T, decltype(lc)::value>(
              std::span<T>(sc.a), std::span<const T>(sc.b));
        },
        [&](auto lc) {
          seg_scan_exclusive<Op, T, decltype(lc)::value>(data, head_flags);
        });
    return;
  } else {
  if (head_flags.size() < data.size()) {
    detail::invalid_input("seg_scan_exclusive", "head_flags shorter than data");
  }
  rvv::Machine& m = rvv::Machine::active();
  T carry = Op::template identity<T>();
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/2, [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        auto flags = rvv::vle<T, LMUL>(head_flags.subspan(pos), vl);
        const auto heads = rvv::vmsne(flags, T{0}, vl);
        const auto carry_mask = rvv::vmsbf(heads, vl);
        flags = rvv::vmv_s_x(flags, T{1}, vl);
        x = detail::inregister_seg_scan<Op>(m, std::move(x), std::move(flags), vl);
        x = Op::vx_m(carry_mask, x, x, carry, vl);
        // Outgoing carry: the inclusive tail, extracted in-register.
        const T next_carry = rvv::vmv_x_s(rvv::vslidedown(x, vl - 1, vl));
        // Exclusive form: shift by one (injecting the incoming carry) and
        // reset heads to the identity.
        auto ex = rvv::vslide1up(x, carry, vl);
        ex = rvv::vmerge(heads, rvv::vmv_v_x<T, LMUL>(Op::template identity<T>(), vl),
                         ex, vl);
        rvv::vse(data.subspan(pos), ex, vl);
        carry = next_carry;
        m.scalar().charge({.alu = 1});
      },
      [&](std::size_t pos, std::size_t vl) {
        // The inclusive fold of seg_scan_inclusive's fused body, writing
        // each element's incoming accumulator instead: the identity at a
        // head, else the fold of the segment so far (the carry first).
        T* p = data.data() + pos;
        const T* ph = head_flags.data() + pos;
        T acc = carry;
        for (std::size_t i = 0; i < vl; ++i) {
          const T ai = p[i];
          const bool head = ph[i] != T{0};
          p[i] = head ? Op::template identity<T>() : acc;
          acc = head ? ai : Op::template scalar<T>(acc, ai);
        }
        carry = acc;
      },
      detail::FusableIf{detail::same_or_disjoint(std::span<const T>(data),
                                                 head_flags, data.size())});
  }
}

/// Exclusive segmented plus-scan, in place (the form split-and-segment
/// algorithms rank with).  `scratch` is retained for API compatibility with
/// the subtraction-based implementation; it is no longer read.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void seg_plus_scan_exclusive(std::span<T> data, std::span<const T> head_flags,
                             std::span<T> scratch) {
  static_cast<void>(scratch);
  seg_scan_exclusive<PlusOp, T, LMUL>(data, head_flags);
}

/// Segmented distribute: copies each segment's head value across the whole
/// segment (Blelloch's "copy" / distribute primitive, used for pivot
/// broadcast in quicksort).  Implemented as an inclusive segmented max-scan
/// over a vector that holds the head values and the minimum element
/// elsewhere; correct for any element type because non-head positions are
/// first forced to the operator identity.  Composed from tuned primitives;
/// its own LMUL only shapes the flag-fixup pass, so it stays pinned at 1.
template <rvv::VectorElement T, unsigned LMUL = 1>
void seg_distribute(std::span<T> data, std::span<const T> head_flags) {
  if (head_flags.size() < data.size()) {
    detail::invalid_input("seg_distribute", "head_flags shorter than data");
  }
  // Force non-head elements to the max-scan identity, then scan.
  detail::stripmine<T, LMUL>(
      data.size(), /*pointer_bumps=*/2, [&](std::size_t pos, std::size_t vl) {
        auto x = rvv::vle<T, LMUL>(data.subspan(pos), vl);
        auto flags = rvv::vle<T, LMUL>(head_flags.subspan(pos), vl);
        auto heads = rvv::vmsne(flags, T{0}, vl);
        if (pos == 0) {
          // Element 0 is always a segment head.
          auto first = rvv::vmsof(rvv::vmset(vl), vl);
          heads = rvv::vmor(heads, first, vl);
        }
        x = rvv::vmerge(heads, x, rvv::vmv_v_x<T, LMUL>(MaxOp::identity<T>(), vl), vl);
        rvv::vse(data.subspan(pos), x, vl);
      });
  seg_max_scan<T, LMUL>(data, head_flags);
}

/// Segmented broadcast-from-tail: copies each segment's LAST value across
/// the whole segment.  Composed from the model's own primitives — reverse
/// the data and the (tail-derived) flags, distribute, reverse back — the way
/// Blelloch expresses backward propagation.  Used to broadcast per-segment
/// totals (e.g. partition counts in quicksort).  Composed from other
/// primitives, so it keeps a pinned LMUL instead of a tuned head.
template <rvv::VectorElement T, unsigned LMUL = 1>
void seg_broadcast_tail(std::span<T> data, std::span<const T> head_flags) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if (head_flags.size() < n) {
    detail::invalid_input("seg_broadcast_tail", "head_flags shorter than data");
  }
  // Built on reverse(), whose scatter indices are computed in T.
  if (n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    detail::invalid_input("seg_broadcast_tail", "indices overflow the element type; widen first");
  }
  const std::vector<T> tails = detail::segment_tails<T, LMUL>(head_flags, n);
  std::vector<T> rev_data(n);
  std::vector<T> rev_heads(n);
  reverse<T, LMUL>(std::span<const T>(data), std::span<T>(rev_data));
  reverse<T, LMUL>(std::span<const T>(tails), std::span<T>(rev_heads));
  seg_distribute<T, LMUL>(std::span<T>(rev_data), std::span<const T>(rev_heads));
  reverse<T, LMUL>(std::span<const T>(rev_data), data);
}

}  // namespace rvvsvm::svm
