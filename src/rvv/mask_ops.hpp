// Mask-producing and mask-consuming instructions: integer compares
// (vmseq/vmsne/vmslt/...), mask-register logical ops (vmand/vmor/...), and
// the mask utility group (vcpop, vfirst, vmsbf/vmsif/vmsof, viota, vid) that
// the paper's enumerate and segmented-scan kernels are built on.
// Semantics follow RVV 1.0 chapters 11.8 and 15.
#pragma once

#include <cstdint>

#include "rvv/ops_detail.hpp"

namespace rvvsvm::rvv {

namespace detail {

template <VectorElement T, unsigned L, class F>
[[nodiscard]] vmask compare_vv(const char* op, const vreg<T, L>& a,
                               const vreg<T, L>& b, std::size_t vl, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, L};
  ctx.check_machine(b.machine(), "second source operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(b.capacity(), "second source");
  ChargeGuard charge(m, sim::InstClass::kVectorMask, op, vl, L, kSewBits<T>);
  AllocGuard guard(m);
  guard.use(a.value_id());
  guard.use(b.value_id());
  const sim::ValueId id = guard.define(1);  // a mask occupies one register
  auto bits = result_bits(m, a.capacity(), vl);
  const T* pa = a.elems().data();
  const T* pb = b.elems().data();
  std::uint8_t* po = bits.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = f(pa[i], pb[i]) ? 1 : 0;
  return make_vmask(m, std::move(bits), id);
}

template <VectorElement T, unsigned L, class F>
[[nodiscard]] vmask compare_vx(const char* op, const vreg<T, L>& a, T x,
                               std::size_t vl, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, L};
  ctx.check_vl(a.capacity(), "source");
  ChargeGuard charge(m, sim::InstClass::kVectorMask, op, vl, L, kSewBits<T>);
  AllocGuard guard(m);
  guard.use(a.value_id());
  const sim::ValueId id = guard.define(1);
  auto bits = result_bits(m, a.capacity(), vl);
  const T* pa = a.elems().data();
  std::uint8_t* po = bits.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = f(pa[i], x) ? 1 : 0;
  return make_vmask(m, std::move(bits), id);
}

template <class F>
[[nodiscard]] vmask mask_logical(const char* op, const vmask& a, const vmask& b,
                                 std::size_t vl, F f) {
  Machine& m = a.machine();
  const OpCtx ctx{m, op, vl, 1};
  ctx.check_machine(b.machine(), "second source operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(b.capacity(), "second source");
  ChargeGuard charge(m, sim::InstClass::kVectorMask, op, vl, 1);
  AllocGuard guard(m);
  guard.use(a.value_id());
  guard.use(b.value_id());
  const sim::ValueId id = guard.define(1);
  auto bits = result_bits(m, a.capacity(), vl);
  const std::uint8_t* pa = a.bits().data();
  const std::uint8_t* pb = b.bits().data();
  std::uint8_t* po = bits.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = f(pa[i] != 0, pb[i] != 0) ? 1 : 0;
  return make_vmask(m, std::move(bits), id);
}

}  // namespace detail

// --- integer compares producing masks ---------------------------------------

template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmseq(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmseq", a, b, vl, [](T x, T y) { return x == y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmseq(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmseq", a, x, vl, [](T e, T y) { return e == y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsne(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmsne", a, b, vl, [](T x, T y) { return x != y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsne(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmsne", a, x, vl, [](T e, T y) { return e != y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmslt(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmslt", a, b, vl, [](T x, T y) { return x < y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmslt(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmslt", a, x, vl, [](T e, T y) { return e < y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsle(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmsle", a, b, vl, [](T x, T y) { return x <= y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsle(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmsle", a, x, vl, [](T e, T y) { return e <= y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsgt(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmsgt", a, b, vl, [](T x, T y) { return x > y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsgt(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmsgt", a, x, vl, [](T e, T y) { return e > y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsge(const vreg<T, L>& a, const vreg<T, L>& b, std::size_t vl) {
  return detail::compare_vv("vmsge", a, b, vl, [](T x, T y) { return x >= y; });
}
template <VectorElement T, unsigned L>
[[nodiscard]] vmask vmsge(const vreg<T, L>& a, std::type_identity_t<T> x, std::size_t vl) {
  return detail::compare_vx("vmsge", a, x, vl, [](T e, T y) { return e >= y; });
}

// --- mask-register logical instructions -------------------------------------

[[nodiscard]] inline vmask vmand(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmand", a, b, vl, [](bool x, bool y) { return x && y; });
}
[[nodiscard]] inline vmask vmor(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmor", a, b, vl, [](bool x, bool y) { return x || y; });
}
[[nodiscard]] inline vmask vmxor(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmxor", a, b, vl, [](bool x, bool y) { return x != y; });
}
[[nodiscard]] inline vmask vmnand(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmnand", a, b, vl, [](bool x, bool y) { return !(x && y); });
}
[[nodiscard]] inline vmask vmnor(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmnor", a, b, vl, [](bool x, bool y) { return !(x || y); });
}
[[nodiscard]] inline vmask vmxnor(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmxnor", a, b, vl, [](bool x, bool y) { return x == y; });
}
[[nodiscard]] inline vmask vmandn(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmandn", a, b, vl, [](bool x, bool y) { return x && !y; });
}
[[nodiscard]] inline vmask vmorn(const vmask& a, const vmask& b, std::size_t vl) {
  return detail::mask_logical("vmorn", a, b, vl, [](bool x, bool y) { return x || !y; });
}
/// vmnot.m pseudo-instruction (vmnand vs, vs).
[[nodiscard]] inline vmask vmnot(const vmask& a, std::size_t vl) {
  return vmnand(a, a, vl);
}

/// vmclr.m / vmset.m pseudo-instructions: all-clear / all-set masks.
[[nodiscard]] vmask vmclr(std::size_t vl);
[[nodiscard]] vmask vmset(std::size_t vl);

// --- mask utility instructions ----------------------------------------------

/// vcpop.m: number of set bits in [0, vl).
[[nodiscard]] std::size_t vcpop(const vmask& mask, std::size_t vl);

/// vfirst.m: index of the first set bit in [0, vl), or -1 when none.
[[nodiscard]] long vfirst(const vmask& mask, std::size_t vl);

/// vmsbf.m: set-before-first — 1 for every element strictly before the first
/// set bit (all 1s when no bit is set).
[[nodiscard]] vmask vmsbf(const vmask& mask, std::size_t vl);

/// vmsif.m: set-including-first.
[[nodiscard]] vmask vmsif(const vmask& mask, std::size_t vl);

/// vmsof.m: set-only-first.
[[nodiscard]] vmask vmsof(const vmask& mask, std::size_t vl);

/// viota.m: d[i] = number of set mask bits strictly before i — the
/// in-register exclusive enumerate the paper builds its enumerate
/// operation on.
template <VectorElement T, unsigned L = 1>
[[nodiscard]] vreg<T, L> viota(const vmask& mask, std::size_t vl) {
  Machine& m = mask.machine();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "viota", vl, L};
  ctx.check_vl(cap, "destination");
  ctx.check_vl(mask.capacity(), "mask");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "viota", vl, L, kSewBits<T>, /*masked=*/true);
  detail::AllocGuard guard(m);
  guard.use(mask.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  T running{0};
  const std::uint8_t* pm = mask.bits().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    po[i] = running;
    if (pm[i] != 0) running = detail::wrap_add(running, T{1});
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vid.v: d[i] = i.
template <VectorElement T, unsigned L = 1>
[[nodiscard]] vreg<T, L> vid(std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "vid", vl, L};
  ctx.check_vl(cap, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "vid", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = static_cast<T>(i);
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

}  // namespace rvvsvm::rvv
