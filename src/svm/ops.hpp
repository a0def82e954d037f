// Derived operations of the scan vector model (paper sections 4.4 and 5):
// enumerate, get_flags, split, and index — the building blocks of the split
// radix sort and of most Blelloch-style algorithms.
#pragma once

#include <limits>
#include <memory>
#include <span>

#include "svm/elementwise.hpp"
#include "svm/permute_ops.hpp"
#include "svm/simd.hpp"

namespace rvvsvm::svm {

/// enumerate (paper Listing 8): dst[i] = number of positions j < i with
/// flags[j] == set_bit; returns the total count of such positions.  The
/// flags vector must contain only 0 and 1.  Maps to viota per block with the
/// running count propagated through vcpop, exactly as the paper optimizes it.
/// The fused body is that block as one pass: each output is the incoming
/// count plus the matches before it (viota + vadd, wrapped in T), and the
/// count then advances by the block's match count (vcpop).  Its main loop
/// takes a host vector at a time: the in-vector plus-prefix of the 0/1
/// match lanes (simd.hpp), minus each lane's own match, is viota's
/// exclusive count, and the broadcast last lane advances the count.
/// `dst` may be `flags` itself, or disjoint from it; any other overlap
/// interprets, because the emulated block loads all its flags before its
/// store and the fused loop would read flags it had already overwritten.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
std::size_t enumerate(std::span<const T> flags, std::span<T> dst, bool set_bit) {
  if constexpr (LMUL == kTunedLmul) {
    return detail::tuned_run<T>(
        tune::Shape::kEnumerate, flags.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          static_cast<void>(enumerate<T, decltype(lc)::value>(
              std::span<const T>(sc.a), std::span<T>(sc.b), set_bit));
        },
        [&](auto lc) {
          return enumerate<T, decltype(lc)::value>(flags, dst, set_bit);
        });
  } else {
  if (dst.size() < flags.size()) detail::invalid_input("enumerate", "dst too small");
  rvv::Machine& m = rvv::Machine::active();
  // The per-element offsets wrap in T (they feed T-wide destination indices),
  // but the returned total is a host-side count: for narrow T it must not
  // wrap at n >= 2^SEW (e.g. u8 flags with n == 256 and no set bits).
  const T target = set_bit ? T{1} : T{0};
  T count{0};
  std::size_t total = 0;
  detail::stripmine<T, LMUL>(
      flags.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto v = rvv::vle<T, LMUL>(flags.subspan(pos), vl);
        const auto mask = rvv::vmseq(v, target, vl);
        v = rvv::viota<T, LMUL>(mask, vl);
        v = rvv::vadd(v, count, vl);
        rvv::vse(dst.subspan(pos), v, vl);
        const std::size_t pop = rvv::vcpop(mask, vl);
        count = rvv::detail::wrap_add(count, static_cast<T>(pop));
        total += pop;
        m.scalar().charge({.alu = 1});  // count += vcpop
      },
      [&](std::size_t pos, std::size_t len) {
        const T* pf = flags.data() + pos;
        T* pd = dst.data() + pos;
        const T want = target;
        const T start = count;
        std::size_t pop = 0;
        std::size_t i = 0;
        if constexpr (simd::kVectorLoop<T>) {
          using V = simd::Vec<T>;
          constexpr std::size_t kLanes = simd::kLanes<T>;
          const V want_v = simd::splat(want);
          V base = simd::splat(start);
          for (; i + kLanes <= len; i += kLanes) {
            const V match = __builtin_convertvector(simd::load(pf + i) == want_v, V) & 1;
            const V inclusive = simd::prefix_sum<T>(match);
            simd::store(pd + i, base + inclusive - match);
            // At most kLanes matches: the last lane holds the vector's exact
            // count even for 8-bit T.
            pop += inclusive[kLanes - 1];
            base += simd::broadcast_last<T>(inclusive);
          }
        }
        for (; i < len; ++i) {
          const bool match = pf[i] == want;  // read first: dst may be flags itself
          pd[i] = rvv::detail::wrap_add(static_cast<T>(pop), start);
          pop += match ? 1u : 0u;
        }
        count = rvv::detail::wrap_add(count, static_cast<T>(pop));
        total += pop;
      },
      detail::FusableIf{
          detail::same_or_disjoint(std::span<const T>(dst), flags, flags.size())});
  return total;
  }
}

/// get_flags: flags[i] = bit `bit` of src[i] (the radix sort key probe).
/// The fused body applies vsrl's and vand's lane semantics directly: a
/// logical shift in Wide<T> by the SEW-masked amount, then the low bit.
/// It fuses only when `flags` is `src` or disjoint from it.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
void get_flags(std::span<const T> src, std::span<T> flags, unsigned bit) {
  if constexpr (LMUL == kTunedLmul) {
    detail::tuned_run<T>(
        tune::Shape::kGetFlags, src.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          get_flags<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                            std::span<T>(sc.b), 0);
        },
        [&](auto lc) { get_flags<T, decltype(lc)::value>(src, flags, bit); });
    return;
  } else {
  if (flags.size() < src.size()) detail::invalid_input("get_flags", "flags too small");
  using W = rvv::detail::Wide<T>;
  const unsigned shamt = rvv::detail::shamt(static_cast<T>(bit));
  detail::stripmine<T, LMUL>(
      src.size(), /*pointer_bumps=*/2,
      [&](std::size_t pos, std::size_t vl) {
        auto v = rvv::vle<T, LMUL>(src.subspan(pos), vl);
        v = rvv::vsrl(v, static_cast<T>(bit), vl);
        v = rvv::vand(v, T{1}, vl);
        rvv::vse(flags.subspan(pos), v, vl);
      },
      [&](std::size_t pos, std::size_t vl) {
        const T* ps = src.data() + pos;
        T* pf = flags.data() + pos;
        const unsigned sh = shamt;
        for (std::size_t i = 0; i < vl; ++i) {
          pf[i] = static_cast<T>(static_cast<T>(static_cast<W>(ps[i]) >> sh) & T{1});
        }
      },
      detail::FusableIf{
          detail::same_or_disjoint(std::span<const T>(flags), src, src.size())});
  }
}

namespace detail {

/// True when every flag is 0 or 1 (their OR is at most 1 exactly then);
/// `zeros` is then how many are 0.
template <rvv::VectorElement T>
[[nodiscard]] bool count_binary_zeros(std::span<const T> flags, std::size_t& zeros) {
  using W = rvv::detail::Wide<T>;
  W any = 0;
  std::size_t ones = 0;
  for (const T f : flags) {
    any |= static_cast<W>(f);
    ones += static_cast<W>(f);
  }
  zeros = flags.size() - ones;
  return any <= 1;
}

/// Stable partition of src by 0/1 flags into dst: the 0-flagged elements
/// from dst[0] and the 1-flagged ones from dst[zeros], each stored at the
/// cursor its flag selects and that cursor advanced, with no branch on the
/// flag.
template <rvv::VectorElement T>
void partition_binary(std::span<const T> src, std::span<const T> flags,
                      std::span<T> dst, std::size_t zeros) {
  const T* ps = src.data();
  const T* pf = flags.data();
  T* pd = dst.data();
  std::size_t lo = 0;
  std::size_t hi = zeros;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::size_t one = static_cast<rvv::detail::Wide<T>>(pf[i]);
    pd[one != 0 ? hi : lo] = ps[i];
    hi += one;
    lo += one ^ 1u;
  }
}

}  // namespace detail

/// split (paper Listing 7 / Figure 3): stable-partitions src into dst by
/// flag value — elements with flag 0 first (original order preserved),
/// then elements with flag 1.  Returns the number of 0-flagged elements.
/// `flags` must contain only 0 and 1.
///
/// Emulated, split is five strip-mine loops: enumerate twice, p-add,
/// p-select and the permute that scatters src through the indices the
/// first four build in two n-element temporaries.  Once all five replay
/// fused, a call is their charges and one scatter, so it replays at the
/// call level (rvv::Machine::admit_call_replay).  The first call of a
/// (call site, n, SEW, LMUL) shape in which every iteration of every loop
/// replayed fused stores what it retired; a later call of that shape
/// charges the record in one add and runs the composite body instead of
/// the loops: one pass checks that every flag is 0 or 1 and counts the
/// zeros, and a second stable-partitions src into dst with two cursors.
/// It builds no temporaries.  A call replays only when the machine is
/// ready (cache on, no fault channel armed, tracer idle, no live vector
/// values), `dst` is disjoint from `src` and `flags`, every flag is 0 or 1
/// (checked before anything is written), and any armed deadline lies
/// beyond the call's last instruction; any other call runs the loops, and
/// a deadline inside it traps where the interpreter's does.
template <rvv::VectorElement T, unsigned LMUL = kTunedLmul>
std::size_t split(std::span<const T> src, std::span<T> dst, std::span<const T> flags) {
  if constexpr (LMUL == kTunedLmul) {
    return detail::tuned_run<T>(
        tune::Shape::kSplit, src.size(),
        [&](auto lc, detail::TuneScratch<T>& sc) {
          // Representative n never exceeds the caller's n, so the scratch
          // run passes the same index-overflow guard the real call will.
          static_cast<void>(split<T, decltype(lc)::value>(
              std::span<const T>(sc.a), std::span<T>(sc.b),
              std::span<const T>(sc.c)));
        },
        [&](auto lc) { return split<T, decltype(lc)::value>(src, dst, flags); });
  } else {
  const std::size_t n = src.size();
  if (dst.size() < n || flags.size() < n) {
    detail::invalid_input("split", "operand size mismatch");
  }
  // Destination indices are computed in T; when the largest index n-1 does
  // not fit, the scatter would silently collide.  (n == 2^SEW exactly is
  // fine: indices 0..2^SEW-1 all fit, and the wrapped count cast below is
  // only ever selected when some flag is 1, i.e. count < n.)
  if (n != 0 && n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    detail::invalid_input("split", "destination indices overflow the element type; widen first");
  }
  rvv::Machine& m = rvv::Machine::active();
  static const rvv::TraceSite site{};
  std::size_t zeros = 0;
  const bool eligible = m.call_replay_ready() &&
                        detail::disjoint<T>(dst.first(n), src) &&
                        detail::disjoint<T>(dst.first(n), flags.first(n)) &&
                        detail::count_binary_zeros(flags.first(n), zeros);
  if (eligible) {
    if (const rvv::CallRecord* r = m.admit_call_replay(site, n, rvv::kSewBits<T>, LMUL)) {
      m.charge_call_replay(*r);
      detail::partition_binary(src, flags, dst, zeros);
      return zeros;
    }
  }
  const rvv::Machine::CallMark mark = m.mark_call();
  // Destinations of the 0- and 1-flagged elements.  enumerate writes every
  // element before anything reads one, so the buffers start uninitialized.
  const auto down_buf = std::make_unique_for_overwrite<T[]>(n);
  const auto up_buf = std::make_unique_for_overwrite<T[]>(n);
  const std::span<T> i_down(down_buf.get(), n);
  const std::span<T> i_up(up_buf.get(), n);
  const std::span<const T> f = flags.first(n);
  const std::size_t count = enumerate<T, LMUL>(f, i_down, false);
  static_cast<void>(enumerate<T, LMUL>(f, i_up, true));
  p_add<T, LMUL>(i_up, static_cast<T>(count));
  p_select<T, LMUL>(f, std::span<const T>(i_up), i_down);
  permute<T, LMUL>(src, dst, std::span<const T>(i_down));
  if (eligible) {
    const std::size_t vlmax = m.vlmax<T>(LMUL);
    m.record_call(site, n, rvv::kSewBits<T>, LMUL, mark, 5 * ((n + vlmax - 1) / vlmax));
  }
  return count;
  }
}

/// index (Blelloch's index instruction): dst[i] = start + i.  A pure
/// generator with one stream; kept at a pinned LMUL (tuning has nothing to
/// trade off against register pressure here).
template <rvv::VectorElement T, unsigned LMUL = 1>
void index_fill(std::span<T> dst, std::type_identity_t<T> start = T{0}) {
  detail::stripmine<T, LMUL>(dst.size(), /*pointer_bumps=*/1,
                             [&](std::size_t pos, std::size_t vl) {
                               auto v = rvv::vid<T, LMUL>(vl);
                               v = rvv::vadd(v, rvv::detail::wrap_add(
                                                    start, static_cast<T>(pos)),
                                             vl);
                               rvv::vse(dst.subspan(pos), v, vl);
                             });
}

}  // namespace rvvsvm::svm
