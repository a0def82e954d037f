// Vector permutation instructions: slides, register gather and compress
// (RVV 1.0 chapter 16).  vslideup is the workhorse of the paper's
// in-register scan (Figure 1); vcompress/vrgather back the scan vector
// model's pack and gather operations.
#pragma once

#include "rvv/ops_detail.hpp"

namespace rvvsvm::rvv {

/// vslideup.vx: d[i] = dest[i] for i < offset, src[i - offset] for
/// offset <= i < vl.  The destination operand supplies the low elements —
/// in the intrinsic API the instruction is destructive, so the emulator
/// takes `dest` by value and returns the merged result.
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vslideup(const vreg<T, L>& dest, const vreg<T, L>& src,
                                  std::size_t offset, std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vslideup", vl, L};
  ctx.check_machine(dest.machine(), "destination operand");
  ctx.check_vl(src.capacity(), "source");
  ctx.check_vl(dest.capacity(), "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vslideup", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(dest.value_id());
  guard.use(src.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, src.capacity(), vl);
  const T* pd = dest.elems().data();
  const T* ps = src.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    po[i] = i < offset ? pd[i] : ps[i - offset];
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vslidedown.vx: d[i] = src[i + offset] when i + offset < VLMAX, else 0.
/// The ISA compares i + OFFSET mathematically, so an offset at or beyond
/// VLMAX zeroes every element; `i + offset` must not be formed first, or a
/// huge offset wraps std::size_t and reads a live element instead.
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vslidedown(const vreg<T, L>& src, std::size_t offset,
                                    std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vslidedown", vl, L};
  ctx.check_vl(src.capacity(), "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vslidedown", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(src.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, src.capacity(), vl);
  const std::size_t cap = src.capacity();
  const bool all_out = offset >= cap;
  const T* ps = src.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    const std::size_t from = i + offset;
    po[i] = !all_out && from < cap ? ps[from] : T{0};
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vslide1up.vx: d[0] = x, d[i] = src[i-1] — the shift used to turn an
/// inclusive scan into an exclusive one.
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vslide1up(const vreg<T, L>& src, std::type_identity_t<T> x,
                                   std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vslide1up", vl, L};
  ctx.check_vl(src.capacity(), "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vslide1up", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(src.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, src.capacity(), vl);
  const T* ps = src.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = (i == 0) ? x : ps[i - 1];
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vslide1down.vx: d[vl-1] = x, d[i] = src[i+1].
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vslide1down(const vreg<T, L>& src, std::type_identity_t<T> x,
                                     std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vslide1down", vl, L};
  ctx.check_vl(src.capacity(), "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vslide1down", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(src.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, src.capacity(), vl);
  const T* ps = src.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = (i + 1 == vl) ? x : ps[i + 1];
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vrgather.vv: d[i] = index[i] < VLMAX ? src[index[i]] : 0.  The ISA reads
/// the index elements as *unsigned* SEW-wide integers, so a signed index
/// type is reinterpreted bit-for-bit (int8 -1 selects element 255), not
/// sign-extended into an always-out-of-range value.
template <VectorElement T, unsigned L, VectorElement I>
[[nodiscard]] vreg<T, L> vrgather(const vreg<T, L>& src, const vreg<I, L>& index,
                                  std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vrgather", vl, L};
  ctx.check_machine(index.machine(), "index operand");
  ctx.check_vl(src.capacity(), "source");
  ctx.check_vl(index.capacity(), "index");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vrgather", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(src.value_id());
  guard.use(index.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, src.capacity(), vl);
  using UI = std::make_unsigned_t<I>;
  const T* ps = src.elems().data();
  const I* pidx = index.elems().data();
  const std::size_t cap = src.capacity();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    const auto ix = static_cast<std::size_t>(static_cast<UI>(pidx[i]));
    po[i] = ix < cap ? ps[ix] : T{0};
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vcompress.vm: packs the elements of src whose mask bit is set to the
/// front of the result; elements past the packed count hold poison
/// (tail-agnostic).
template <VectorElement T, unsigned L>
[[nodiscard]] vreg<T, L> vcompress(const vreg<T, L>& src, const vmask& mask,
                                   std::size_t vl) {
  Machine& m = src.machine();
  const detail::OpCtx ctx{m, "vcompress", vl, L};
  ctx.check_machine(mask.machine(), "mask operand");
  ctx.check_vl(src.capacity(), "source");
  ctx.check_vl(mask.capacity(), "mask");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorPermute, "vcompress", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  // vcompress takes its mask as a regular vector operand, not through v0.
  guard.use(mask.value_id());
  guard.use(src.value_id());
  const sim::ValueId id = guard.define(L);
  // Keeps the full poison fill: only the packed prefix [0, k) is written.
  auto out = detail::poisoned_elems<T>(m, src.capacity());
  std::size_t k = 0;
  const std::uint8_t* pm = mask.bits().data();
  const T* ps = src.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    if (pm[i] != 0) po[k++] = ps[i];
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

}  // namespace rvvsvm::rvv
