// Single-width integer reduction instructions (RVV 1.0 chapter 14).
// RVV reductions fold vs2[0..vl) together with the scalar seed held in
// vs1[0] and deposit the result in vd[0]; the emulator exposes the scalar
// directly, which is how every kernel in this repo consumes them.
#pragma once

#include <limits>

#include "rvv/ops_detail.hpp"

namespace rvvsvm::rvv {

namespace detail {

template <VectorElement T, unsigned L, class F>
[[nodiscard]] T reduce(const char* op, const vreg<T, L>& a, std::size_t vl,
                       T seed, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, L};
  ctx.check_vl(a.capacity(), "source");
  ChargeGuard charge(m, sim::InstClass::kVectorReduce, op, vl, L, kSewBits<T>);
  AllocGuard guard(m);
  guard.use(a.value_id());
  T acc = seed;
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) acc = f(acc, pa[i]);
  return acc;
}

template <VectorElement T, unsigned L, class F>
[[nodiscard]] T reduce_m(const char* op, const vmask& mask,
                         const vreg<T, L>& a, std::size_t vl, T seed, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, L};
  ctx.check_machine(mask.machine(), "mask operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(mask.capacity(), "mask");
  ChargeGuard charge(m, sim::InstClass::kVectorReduce, op, vl, L, kSewBits<T>, /*masked=*/true);
  AllocGuard guard(m);
  guard.use_mask(mask.value_id());
  guard.use(a.value_id());
  T acc = seed;
  const std::uint8_t* pm = mask.bits().data();
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) {
    if (pm[i] != 0) acc = f(acc, pa[i]);
  }
  return acc;
}

}  // namespace detail

/// vredsum.vs with seed (the value in vs1[0]).
template <VectorElement T, unsigned L>
[[nodiscard]] T vredsum(const vreg<T, L>& a, std::size_t vl,
                        std::type_identity_t<T> seed = T{0}) {
  return detail::reduce("vredsum", a, vl, seed, [](T ai, T bi) noexcept { return detail::wrap_add(ai, bi); });
}

/// vredmax[u].vs.  Default seed is the type's minimum so the result is the
/// plain maximum of the active elements.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredmax(const vreg<T, L>& a, std::size_t vl,
                        std::type_identity_t<T> seed = std::numeric_limits<T>::min()) {
  return detail::reduce("vredmax", a, vl, seed, [](T x, T y) { return x > y ? x : y; });
}

/// vredmin[u].vs.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredmin(const vreg<T, L>& a, std::size_t vl,
                        std::type_identity_t<T> seed = std::numeric_limits<T>::max()) {
  return detail::reduce("vredmin", a, vl, seed, [](T x, T y) { return x < y ? x : y; });
}

/// vredand.vs.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredand(const vreg<T, L>& a, std::size_t vl,
                        std::type_identity_t<T> seed = static_cast<T>(~T{0})) {
  return detail::reduce("vredand", a, vl, seed, [](T x, T y) { return static_cast<T>(x & y); });
}

/// vredor.vs.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredor(const vreg<T, L>& a, std::size_t vl,
                       std::type_identity_t<T> seed = T{0}) {
  return detail::reduce("vredor", a, vl, seed, [](T x, T y) { return static_cast<T>(x | y); });
}

/// vredxor.vs.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredxor(const vreg<T, L>& a, std::size_t vl,
                        std::type_identity_t<T> seed = T{0}) {
  return detail::reduce("vredxor", a, vl, seed, [](T x, T y) { return static_cast<T>(x ^ y); });
}

/// Masked vredsum (vredsum.vs, v0.t): folds only active elements.
template <VectorElement T, unsigned L>
[[nodiscard]] T vredsum_m(const vmask& mask, const vreg<T, L>& a, std::size_t vl,
                          std::type_identity_t<T> seed = T{0}) {
  return detail::reduce_m("vredsum", mask, a, vl, seed, [](T ai, T bi) noexcept { return detail::wrap_add(ai, bi); });
}

}  // namespace rvvsvm::rvv
