// Vector move/splat instructions (vmv family).
#pragma once

#include <algorithm>

#include "rvv/ops_detail.hpp"

namespace rvvsvm::rvv {

/// vmv.v.x: broadcast a scalar into a fresh vector.  Executes on the active
/// machine (it has no vector operand to take one from).
template <VectorElement T, unsigned L = 1>
[[nodiscard]] vreg<T, L> vmv_v_x(std::type_identity_t<T> x, std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "vmv_v_x", vl, L};
  ctx.check_vl(cap, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMove, "vmv_v_x", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  std::fill_n(out.data(), vl, static_cast<T>(x));
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vmv.v.v: whole-operand copy of the first vl elements into a new register
/// group (the move a compiler emits before a destructive instruction such as
/// vslideup).
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vmv_v_v(const vreg<T, L>& a, std::size_t vl) {
  return detail::unary(sim::InstClass::kVectorMove, "vmv_v_v", a, vl,
                       [](T ai) { return ai; });
}

/// vmv.s.x intrinsic form with a tail-undisturbed destination: writes x to
/// element 0 of a copy of `dest`, leaving elements [1, capacity) unchanged.
/// This is the form the paper uses to plant a head flag at index 0.
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vmv_s_x(const vreg<T, L>& dest, std::type_identity_t<T> x,
                                 std::size_t vl) {
  Machine& m = dest.machine();
  const detail::OpCtx ctx{m, "vmv_s_x", vl, L};
  ctx.check_vl(dest.capacity(), "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMove, "vmv_s_x", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(dest.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::copied_elems<T>(m, dest.elems());
  if (vl > 0) out[0] = x;
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vmv.x.s: read element 0 into a scalar.
template <VectorElement T, unsigned L>
[[nodiscard]] T vmv_x_s(const vreg<T, L>& a) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vmv_x_s", 1, L};
  if (a.capacity() == 0) ctx.trap_operand("empty vector register");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMove, "vmv_x_s", 1, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(a.value_id());
  return a[0];
}

}  // namespace rvvsvm::rvv
