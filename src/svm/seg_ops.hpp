// Higher-order segmented operations composed from the model's primitives:
// segmented split (Blelloch's split-and-segment step) and segmented reduce.
// These are the workhorses of the flat data-parallel style: quicksort,
// histogramming and run-length encoding are thin wrappers over them.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "svm/elementwise.hpp"
#include "svm/ops.hpp"
#include "svm/permute_ops.hpp"
#include "svm/segmented.hpp"

namespace rvvsvm::svm {

/// Segmented stable split: within every segment (described by
/// `head_flags`), moves the elements of src whose flag is 0 to the front of
/// the segment and the rest behind them, preserving order within each
/// group.  Writes the result to dst.  When `new_heads` is non-empty it
/// receives updated head flags that additionally mark each segment's
/// flag-1 group start, i.e. the segmentation *after* the split (Blelloch's
/// split-and-segment).
template <rvv::VectorElement T, unsigned LMUL = 1>
void seg_split(std::span<const T> src, std::span<T> dst, std::span<const T> flags,
               std::span<const T> head_flags, std::span<T> new_heads = {}) {
  const std::size_t n = src.size();
  if (dst.size() < n || flags.size() < n || head_flags.size() < n) {
    detail::invalid_input("seg_split", "operand size mismatch");
  }
  if (!new_heads.empty() && new_heads.size() < n) {
    detail::invalid_input("seg_split", "new_heads too small");
  }
  if (n == 0) return;
  // Destination indices are computed in T; the same narrow-index overflow
  // guard as svm::split (n == 2^SEW exactly is fine: indices 0..2^SEW-1 fit).
  if (n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    detail::invalid_input("seg_split", "destination indices overflow the element type; widen first");
  }

  // rank0 / rank1: exclusive per-segment counts of each group.
  std::vector<T> rank0(flags.begin(), flags.begin() + static_cast<long>(n));
  std::vector<T> rank1(n);
  {
    // rank0 scans the *complement* of the flags.
    std::vector<T> not_flags(n, T{1});
    p_sub<T, LMUL>(std::span<T>(not_flags), flags.first(n));
    rank0.assign(not_flags.begin(), not_flags.end());
    seg_scan_exclusive<PlusOp, T, LMUL>(std::span<T>(rank0), head_flags);
    rank1.assign(flags.begin(), flags.begin() + static_cast<long>(n));
    seg_scan_exclusive<PlusOp, T, LMUL>(std::span<T>(rank1), head_flags);
  }

  // tot0: per-segment count of flag-0 elements, broadcast to every element.
  std::vector<T> tot0(n, T{1});
  p_sub<T, LMUL>(std::span<T>(tot0), flags.first(n));
  seg_plus_scan<T, LMUL>(std::span<T>(tot0), head_flags);
  seg_broadcast_tail<T, LMUL>(std::span<T>(tot0), head_flags);

  // seg_start: each element's segment start index.
  std::vector<T> seg_start(n);
  index_fill<T, LMUL>(std::span<T>(seg_start));
  seg_distribute<T, LMUL>(std::span<T>(seg_start), head_flags);

  // dest = seg_start + (flag ? tot0 + rank1 : rank0).
  std::vector<T> dest(rank1);
  p_add<T, LMUL>(std::span<T>(dest), std::span<const T>(tot0));
  std::vector<T> not_flags(n, T{1});
  p_sub<T, LMUL>(std::span<T>(not_flags), flags.first(n));
  p_select<T, LMUL>(std::span<const T>(not_flags), std::span<const T>(rank0),
                    std::span<T>(dest));
  p_add<T, LMUL>(std::span<T>(dest), std::span<const T>(seg_start));

  permute<T, LMUL>(src, dst, std::span<const T>(dest));

  if (!new_heads.empty()) {
    p_copy<T, LMUL>(head_flags.first(n), new_heads.first(n));
    // Mark each flag-1 group start (seg_start + tot0), masked so segments
    // whose flag-1 group is empty don't scatter past their end; scattering
    // onto an existing head (all-ones segment: tot0 = 0) is harmless.
    std::vector<T> boundary(seg_start);
    p_add<T, LMUL>(std::span<T>(boundary), std::span<const T>(tot0));
    // mask = heads .* has1 (non-zero only at heads of segments that have
    // flag-1 elements).  has1 is a segmented OR, not a plus-scan: a count
    // would wrap to zero for a segment of exactly 2^SEW one-flags and drop
    // that segment's boundary head.
    std::vector<T> has1(flags.begin(), flags.begin() + static_cast<long>(n));
    seg_or_scan<T, LMUL>(std::span<T>(has1), head_flags);
    seg_broadcast_tail<T, LMUL>(std::span<T>(has1), head_flags);
    std::vector<T> mask(has1);
    p_mul<T, LMUL>(std::span<T>(mask), head_flags.first(n));
    // Element 0's segment is headed implicitly; include it in the mask.
    if (head_flags[0] == T{0} && has1[0] != T{0}) mask[0] = T{1};
    const std::vector<T> ones(n, T{1});
    permute_masked<T, LMUL>(std::span<const T>(ones), new_heads.first(n),
                            std::span<const T>(boundary), std::span<const T>(mask));
  }
}

/// Segmented reduce: folds each segment of `data` with Op and writes the
/// per-segment totals, in segment order, to the front of `out`.  Returns
/// the number of segments.  Composed as inclusive scan -> pack the segment
/// tails.
template <class Op, rvv::VectorElement T, unsigned LMUL = 1>
std::size_t seg_reduce(std::span<const T> data, std::span<const T> head_flags,
                       std::span<T> out) {
  const std::size_t n = data.size();
  if (head_flags.size() < n) {
    detail::invalid_input("seg_reduce", "head_flags shorter than data");
  }
  if (n == 0) return 0;
  std::vector<T> totals(data.begin(), data.begin() + static_cast<long>(n));
  seg_scan_inclusive<Op, T, LMUL>(std::span<T>(totals), head_flags);
  const std::vector<T> tails = detail::segment_tails<T, LMUL>(head_flags, n);
  return pack<T, LMUL>(std::span<const T>(totals), out, std::span<const T>(tails));
}

}  // namespace rvvsvm::svm
