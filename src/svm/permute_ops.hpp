// Permutation instructions of the scan vector model (paper section 4.2).
//
// permute scatters src[i] to dst[index[i]] with the indexed store (VSUXEI)
// exactly as the paper's Listing 5; gather is its inverse (indexed load);
// pack compresses flagged elements to the front of dst (vcompress).  All are
// out-of-place: in-place permutation would create element dependences the
// vector unit cannot honor (paper section 4.2).
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "svm/detail.hpp"

namespace rvvsvm::svm {

/// permute: dst[index[i]] = src[i].  `index` must be a permutation of
/// [0, n) for a full permute; duplicate indices follow the ISA's
/// unordered-scatter semantics (last writer in element order wins in this
/// emulator, as on in-order implementations).
///
/// The fused body is the scatter itself, in element order.  vsuxei traps on
/// an index beyond dst, so the block fuses only when every index in it is in
/// range — validated per block, before the bulk charge; a block holding a
/// bad index runs interpreted and traps like the interpreter.  A dst
/// overlapping src or index (an in-place permute the paper rules out) never
/// fuses: the emulated block loads both operands before its store commits,
/// and the fused loop would not.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void permute(std::span<const T> src, std::span<T> dst, std::span<const T> index) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kPermute, src.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          // All-zero indices collide but follow the documented
          // unordered-scatter semantics; counts are shape-deterministic.
          permute<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                          std::span<T>(sc.b),
                                          std::span<const T>(sc.c));
        },
        [&](auto lc) { permute<T, decltype(lc)::value>(src, dst, index); });
    return;
  } else {
  if (index.size() < src.size()) detail::invalid_input("permute", "index too short");
  using UI = std::make_unsigned_t<T>;
  const bool disjoint =
      detail::disjoint<T>(dst, src) && detail::disjoint<T>(dst, index);
  detail::stripmine<T, LMUL>(
      src.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto vs = rvv::vle<T, LMUL>(src.subspan(pos), vl);
        auto vi = rvv::vle<T, LMUL>(index.subspan(pos), vl);
        rvv::vsuxei(dst, vi, vs, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* ps = src.data() + pos;
        const T* pi = index.data() + pos;
        T* pd = dst.data();
        for (std::size_t i = 0; i < vl; ++i) {
          pd[static_cast<std::size_t>(static_cast<UI>(pi[i]))] = ps[i];
        }
      },
      [&](std::size_t pos, std::size_t vl) {
        // vsuxei's index check for the whole block: its largest index.
        const T* pi = index.data() + pos;
        UI hi = 0;
        for (std::size_t i = 0; i < vl; ++i) hi = std::max(hi, static_cast<UI>(pi[i]));
        return disjoint && static_cast<std::size_t>(hi) < dst.size();
      });
  }
}

/// Masked permute: scatters only elements whose flag is non-zero.  Used by
/// the split-and-segment building blocks, which pin their own LMUL — so this
/// keeps a pinned default instead of a tuned head.
template <rvv::VectorElement T, unsigned LMUL = 1>
void permute_masked(std::span<const T> src, std::span<T> dst,
                    std::span<const T> index, std::span<const T> flags) {
  if (index.size() < src.size() || flags.size() < src.size()) {
    detail::invalid_input("permute_masked", "operand size mismatch");
  }
  detail::stripmine<T, LMUL>(src.size(), /*pointer_bumps=*/3,
                             [&](std::size_t pos, std::size_t vl) {
                               auto vs = rvv::vle<T, LMUL>(src.subspan(pos), vl);
                               auto vi = rvv::vle<T, LMUL>(index.subspan(pos), vl);
                               auto vf = rvv::vle<T, LMUL>(flags.subspan(pos), vl);
                               const auto mask = rvv::vmsne(vf, T{0}, vl);
                               rvv::vsuxei_m(mask, dst, vi, vs, vl);
                             });
}

/// gather (back-permute): dst[i] = src[index[i]] via the indexed load.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void gather(std::span<const T> src, std::span<T> dst, std::span<const T> index) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kGather, dst.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          gather<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                         std::span<T>(sc.b),
                                         std::span<const T>(sc.c));
        },
        [&](auto lc) { gather<T, decltype(lc)::value>(src, dst, index); });
    return;
  } else {
  if (index.size() < dst.size()) detail::invalid_input("gather", "index too short");
  detail::stripmine<T, LMUL>(dst.size(), /*pointer_bumps=*/2,
                             [&](std::size_t pos, std::size_t vl) {
                               auto vi = rvv::vle<T, LMUL>(index.subspan(pos), vl);
                               auto vd = rvv::vluxei(src, vi, vl);
                               rvv::vse(dst.subspan(pos), vd, vl);
                             });
  }
}

/// pack: moves the elements of src whose flag is non-zero, in order, to the
/// front of dst.  Returns the number of packed elements.  Uses vcompress
/// per block plus vcpop to advance the output cursor.
///
/// The block's store length k is its popcount, so the op sequence depends
/// on the data, but its counts do not: vse retires one instruction for any
/// vl, and the register-pressure model sees the same values whatever k is.
/// A stable trace therefore replays fused for every k.  The fused body is a
/// host compress: branch-free into a stack chunk, then the kept prefix is
/// copied to dst.  The only trap a block can raise is the capacity check,
/// and no block raises it exactly when the call's nonzero flags fit dst, so
/// the guard is decided once per call; a dst overlapping src or flags never
/// fuses (the emulated block loads both before its store commits).
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
[[nodiscard]] std::size_t pack(std::span<const T> src, std::span<T> dst,
                               std::span<const T> flags) {
  if constexpr (LMUL == kTunedLmul) {
    return detail::tuned_run<T>(
        tune::Shape::kPack, src.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          // Zero flags pack nothing; the cursor stays at 0 and dst is never
          // too small.  vcompress/vcpop are still charged per block.
          static_cast<void>(pack<T, decltype(lc)::value>(
              std::span<const T>(sc.a), std::span<T>(sc.b),
              std::span<const T>(sc.c)));
        },
        [&](auto lc) { return pack<T, decltype(lc)::value>(src, dst, flags); });
  } else {
  if (flags.size() < src.size()) detail::invalid_input("pack", "flags too short");
  rvv::Machine& m = rvv::Machine::active();
  bool fusable = detail::disjoint<T>(dst, src) && detail::disjoint<T>(dst, flags);
  if (fusable && dst.size() < src.size()) {
    const auto kept = std::ranges::count_if(flags.first(src.size()),
                                            [](T f) { return f != T{0}; });
    fusable = static_cast<std::size_t>(kept) <= dst.size();
  }
  std::size_t out = 0;
  detail::stripmine<T, LMUL>(
      src.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto vs = rvv::vle<T, LMUL>(src.subspan(pos), vl);
        auto vf = rvv::vle<T, LMUL>(flags.subspan(pos), vl);
        const auto mask = rvv::vmsne(vf, T{0}, vl);
        const auto packed = rvv::vcompress(vs, mask, vl);
        const std::size_t k = rvv::vcpop(mask, vl);
        if (dst.size() < out + k) {
          // Discovered mid-kernel, once the packed count is known — a
          // capacity violation (out_of_range), not an input-shape one.
          throw OperandTrap("pack: destination too small",
                            detail::input_context("pack"));
        }
        rvv::vse(dst.subspan(out), packed, k);
        out += k;
        m.scalar().charge({.alu = 1});  // cursor bump
      },
      [&](std::size_t pos, std::size_t len) {
        constexpr std::size_t kChunk = 256;
        T chunk[kChunk] = {};
        for (std::size_t done = 0; done < len; done += kChunk) {
          const std::size_t c = std::min(kChunk, len - done);
          const T* ps = src.data() + pos + done;
          const T* pf = flags.data() + pos + done;
          std::size_t k = 0;
          for (std::size_t i = 0; i < c; ++i) {
            chunk[k] = ps[i];
            k += pf[i] != T{0} ? 1u : 0u;
          }
          std::copy_n(chunk, k, dst.data() + out);
          out += k;
        }
      },
      detail::FusableIf{fusable});
  return out;
  }
}

/// reverse: dst[i] = src[n-1-i], built from vid + vrsub + indexed store —
/// the standard scan-vector-model way to express a reversal as a permute.
/// Only called from composites that pin their LMUL, so no tuned head.
template <rvv::VectorElement T, unsigned LMUL = 1>
void reverse(std::span<const T> src, std::span<T> dst) {
  if (dst.size() < src.size()) detail::invalid_input("reverse", "destination too small");
  const std::size_t n = src.size();
  // The vrsub below computes n-1-i in T; when n-1 itself does not fit the
  // indices wrap and the scatter silently lands on the wrong elements.
  if (n != 0 && n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    detail::invalid_input("reverse", "indices overflow the element type; widen first");
  }
  detail::stripmine<T, LMUL>(n, /*pointer_bumps=*/1,
                             [&](std::size_t pos, std::size_t vl) {
                               auto vs = rvv::vle<T, LMUL>(src.subspan(pos), vl);
                               auto vi = rvv::vid<T, LMUL>(vl);
                               vi = rvv::vadd(vi, static_cast<T>(pos), vl);
                               vi = rvv::vrsub(vi, static_cast<T>(n - 1), vl);
                               rvv::vsuxei(dst, vi, vs, vl);
                             });
}

}  // namespace rvvsvm::svm
