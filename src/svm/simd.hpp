// Host SIMD helpers for the fused plus-prefix bodies (plus scans, enumerate).
//
// A fused body replays a stable trace as a host loop over the array (see
// svm::detail::stripmine).  For a prefix fold that loop is one serial
// dependence chain per element; these helpers give it a vectorized main
// loop plus a scalar tail, the shape of ATen's Loops.h: 16-byte GCC/Clang
// vectors over the unsigned companion type rvv::detail::Wide<T> (so lane
// arithmetic wraps exactly as the emulated ops do, for signed T too),
// memcpy loads and stores (no alignment or aliasing assumptions), an
// in-vector inclusive prefix by lane shifts, and the last lane broadcast as
// the carry into the next vector.  They compile to baseline x86-64 (SSE2)
// shuffles and adds: no -march option, no runtime dispatch.
//
// Only the plus operator has a lane form: it is the one the scans,
// enumerate and the benchmark workloads run.  Every other operator keeps
// the scalar fold.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

#include "rvv/config.hpp"
#include "rvv/ops_detail.hpp"

namespace rvvsvm::svm::simd {

template <rvv::VectorElement T>
using Vec [[gnu::vector_size(16)]] = rvv::detail::Wide<T>;

/// Lanes of one vector: 16 for 8-bit elements down to 2 for 64-bit ones.
template <rvv::VectorElement T>
inline constexpr std::size_t kLanes = 16 / sizeof(T);

/// True when T's fused plus-prefix takes the vector loop: at least four
/// lanes.  With two 64-bit lanes the in-vector prefix costs as much as the
/// scalar fold it replaces, and measured no faster.
template <rvv::VectorElement T>
inline constexpr bool kVectorLoop = kLanes<T> >= 4;

template <rvv::VectorElement T>
[[nodiscard]] inline Vec<T> load(const T* p) noexcept {
  Vec<T> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <rvv::VectorElement T>
inline void store(T* p, Vec<T> v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

template <rvv::VectorElement T>
[[nodiscard]] inline Vec<T> splat(T x) noexcept {
  return Vec<T>{} + static_cast<rvv::detail::Wide<T>>(x);
}

namespace detail {

template <std::size_t, std::size_t V>
inline constexpr std::size_t kConstant = V;

template <std::size_t S, rvv::VectorElement T, std::size_t... I>
[[nodiscard]] inline Vec<T> shift_up(Vec<T> v, std::index_sequence<I...>) noexcept {
  return __builtin_shufflevector(Vec<T>{}, v, (I < S ? I : kLanes<T> + I - S)...);
}

template <rvv::VectorElement T, std::size_t... I>
[[nodiscard]] inline Vec<T> broadcast_last(Vec<T> v,
                                           std::index_sequence<I...>) noexcept {
  return __builtin_shufflevector(v, v, kConstant<I, kLanes<T> - 1>...);
}

}  // namespace detail

/// v moved up by S lanes, with zeros in the S lanes it vacates: one
/// whole-register byte shift.
template <std::size_t S, rvv::VectorElement T>
[[nodiscard]] inline Vec<T> shift_up(Vec<T> v) noexcept {
  return detail::shift_up<S, T>(v, std::make_index_sequence<kLanes<T>>{});
}

/// Every lane set to v's last lane: the running total as the next carry.
template <rvv::VectorElement T>
[[nodiscard]] inline Vec<T> broadcast_last(Vec<T> v) noexcept {
  return detail::broadcast_last<T>(v, std::make_index_sequence<kLanes<T>>{});
}

/// Inclusive plus-prefix within one vector: lane i becomes v[0] + ... + v[i].
/// lg(lanes) shift-and-add steps, Figure 1's tree inside a host register;
/// exact because wrapping addition is associative and zero, which fills the
/// vacated lanes, is its identity.
template <rvv::VectorElement T, std::size_t S = 1>
[[nodiscard]] inline Vec<T> prefix_sum(Vec<T> v) noexcept {
  if constexpr (S < kLanes<T>) {
    return prefix_sum<T, 2 * S>(v + shift_up<S, T>(v));
  } else {
    return v;
  }
}

}  // namespace rvvsvm::svm::simd
