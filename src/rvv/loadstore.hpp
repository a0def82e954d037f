// Vector loads and stores: unit-stride (vle/vse), strided (vlse/vsse) and
// indexed (vluxei/vsuxei).  Memory is any span the caller owns; the emulator
// performs the access semantically and charges one dynamic instruction, as
// Spike retires one instruction per vector memory op regardless of vl.
//
// Out-of-bounds accesses raise MemoryAccessTrap carrying the index of the
// first faulting element (the vstart a precise-trap machine would report).
// Unlike hardware, every element's address is validated *before* the charge
// and before any element commits, so a trapped store leaves the destination
// untouched and a trapped instruction never retires — the strong exception
// guarantee the recovery machinery builds on.
#pragma once

#include <algorithm>
#include <span>

#include "rvv/ops_detail.hpp"

namespace rvvsvm::rvv {

namespace detail {

/// First faulting element of a unit-stride access of vl elements over a span
/// of `size` elements; traps unless the whole body is in bounds.
inline void check_contiguous(const OpCtx& ctx, std::size_t size,
                             const char* what) {
  if (ctx.vl > size) {
    ctx.trap_memory(std::string(what) + " span shorter than vl", size);
  }
}

/// Strided access: element i touches offset i*stride; the first faulting
/// element is ceil(size/stride) (or 0 for stride 0 over an empty span).
inline void check_strided(const OpCtx& ctx, std::size_t size,
                          std::size_t stride, const char* what) {
  if (ctx.vl == 0) return;
  if (stride == 0) {
    if (size == 0) {
      ctx.trap_memory(std::string("strided access beyond ") + what + " span",
                      0);
    }
    return;
  }
  const std::size_t first_fault = (size + stride - 1) / stride;
  if (first_fault < ctx.vl) {
    ctx.trap_memory(std::string("strided access beyond ") + what + " span",
                    first_fault);
  }
}

/// Indexed access: validate every (active) element's index before anything
/// commits, trapping on the lowest faulting element per vstart semantics.
/// `mask_bits` may be null (unmasked form); inactive elements never fault.
template <VectorElement I, unsigned L>
inline void check_indexed(const OpCtx& ctx, const vreg<I, L>& index,
                          std::size_t size, const std::uint8_t* mask_bits,
                          const char* what) {
  using UI = std::make_unsigned_t<I>;
  const I* pidx = index.elems().data();
  for (std::size_t i = 0; i < ctx.vl; ++i) {
    if (mask_bits != nullptr && mask_bits[i] == 0) continue;
    const auto ix = static_cast<std::size_t>(static_cast<UI>(pidx[i]));
    if (ix >= size) {
      ctx.trap_memory(std::string("index beyond ") + what + " span", i);
    }
  }
}

}  // namespace detail

/// vle<SEW>.v: unit-stride load of vl elements.  `src.size()` must cover vl.
template <VectorElement T, unsigned L = 1>
[[nodiscard]] vreg<T, L> vle(std::span<const T> src, std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "vle", vl, L};
  ctx.check_vl(cap, "destination");
  detail::check_contiguous(ctx, src.size(), "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorLoad, "vle", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  std::copy_n(src.data(), vl, out.data());
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vse<SEW>.v: unit-stride store of vl elements.
template <VectorElement T, unsigned L>
void vse(std::span<T> dst, const vreg<T, L>& a, std::size_t vl) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vse", vl, L};
  ctx.check_vl(a.capacity(), "source");
  detail::check_contiguous(ctx, dst.size(), "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorStore, "vse", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(a.value_id());
  std::copy_n(a.elems().data(), vl, dst.data());
}

/// Masked unit-stride store (vse<SEW>.v, v0.t): only active elements are
/// written to memory.  The emulator conservatively validates the whole
/// addressed range [0, vl) — stricter than hardware, which only faults on
/// active elements, but deterministic regardless of mask contents.
template <VectorElement T, unsigned L>
void vse_m(const vmask& mask, std::span<T> dst, const vreg<T, L>& a, std::size_t vl) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vse_m", vl, L};
  ctx.check_machine(mask.machine(), "mask operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(mask.capacity(), "mask");
  detail::check_contiguous(ctx, dst.size(), "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorStore, "vse_m", vl, L, kSewBits<T>, /*masked=*/true);
  detail::AllocGuard guard(m);
  guard.use_mask(mask.value_id());
  guard.use(a.value_id());
  const std::uint8_t* pm = mask.bits().data();
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) {
    if (pm[i] != 0) dst[i] = pa[i];
  }
}

/// vlse<SEW>.v: strided load; `stride` is in elements (the ISA's byte stride
/// divided by sizeof(T); the byte-exact form adds nothing to a functional
/// model and element units keep callers overflow-safe).
template <VectorElement T, unsigned L = 1>
[[nodiscard]] vreg<T, L> vlse(std::span<const T> src, std::size_t stride, std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "vlse", vl, L};
  ctx.check_vl(cap, "destination");
  detail::check_strided(ctx, src.size(), stride, "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorLoad, "vlse", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) po[i] = src[i * stride];
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vsse<SEW>.v: strided store; `stride` in elements.
template <VectorElement T, unsigned L>
void vsse(std::span<T> dst, std::size_t stride, const vreg<T, L>& a, std::size_t vl) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vsse", vl, L};
  ctx.check_vl(a.capacity(), "source");
  detail::check_strided(ctx, dst.size(), stride, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorStore, "vsse", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(a.value_id());
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) dst[i * stride] = pa[i];
}

/// vluxei<SEW>.v: indexed (gather) load.  `index[i]` is an *element* index
/// into `src` (the ISA's byte offsets scaled by sizeof(T)).  As in the ISA,
/// index elements are read as unsigned SEW-wide integers, so a signed index
/// type is reinterpreted bit-for-bit rather than sign-extended.
template <VectorElement T, unsigned L, VectorElement I>
[[nodiscard]] vreg<T, L> vluxei(std::span<const T> src, const vreg<I, L>& index,
                                std::size_t vl) {
  Machine& m = index.machine();
  const std::size_t cap = m.vlmax<T>(L);
  const detail::OpCtx ctx{m, "vluxei", vl, L};
  ctx.check_vl(cap, "destination");
  ctx.check_vl(index.capacity(), "index");
  detail::check_indexed(ctx, index, src.size(), nullptr, "source");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorLoad, "vluxei", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(index.value_id());
  const sim::ValueId id = guard.define(L);
  auto out = detail::result_elems<T>(m, cap, vl);
  using UI = std::make_unsigned_t<I>;
  const I* pidx = index.elems().data();
  T* po = out.data();
  for (std::size_t i = 0; i < vl; ++i) {
    po[i] = src[static_cast<std::size_t>(static_cast<UI>(pidx[i]))];
  }
  return detail::make_vreg<T, L>(m, std::move(out), id);
}

/// vsuxei<SEW>.v: indexed (scatter) store — the paper's permutation
/// instruction.  `index[i]` is an element index into `dst`.
template <VectorElement T, unsigned L, VectorElement I>
void vsuxei(std::span<T> dst, const vreg<I, L>& index, const vreg<T, L>& a,
            std::size_t vl) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vsuxei", vl, L};
  ctx.check_machine(index.machine(), "index operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(index.capacity(), "index");
  detail::check_indexed(ctx, index, dst.size(), nullptr, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorStore, "vsuxei", vl, L, kSewBits<T>);
  detail::AllocGuard guard(m);
  guard.use(index.value_id());
  guard.use(a.value_id());
  using UI = std::make_unsigned_t<I>;
  const I* pidx = index.elems().data();
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) {
    dst[static_cast<std::size_t>(static_cast<UI>(pidx[i]))] = pa[i];
  }
}

/// Masked indexed store (vsuxei, v0.t).  As in the ISA, inactive elements
/// never access memory and therefore never fault.
template <VectorElement T, unsigned L, VectorElement I>
void vsuxei_m(const vmask& mask, std::span<T> dst, const vreg<I, L>& index,
              const vreg<T, L>& a, std::size_t vl) {
  Machine& m = a.machine();
  const detail::OpCtx ctx{m, "vsuxei_m", vl, L};
  ctx.check_machine(mask.machine(), "mask operand");
  ctx.check_machine(index.machine(), "index operand");
  ctx.check_vl(a.capacity(), "source");
  ctx.check_vl(mask.capacity(), "mask");
  ctx.check_vl(index.capacity(), "index");
  detail::check_indexed(ctx, index, dst.size(), mask.bits().data(),
                        "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorStore, "vsuxei_m", vl, L, kSewBits<T>, /*masked=*/true);
  detail::AllocGuard guard(m);
  guard.use_mask(mask.value_id());
  guard.use(index.value_id());
  guard.use(a.value_id());
  using UI = std::make_unsigned_t<I>;
  const std::uint8_t* pm = mask.bits().data();
  const I* pidx = index.elems().data();
  const T* pa = a.elems().data();
  for (std::size_t i = 0; i < vl; ++i) {
    if (pm[i] == 0) continue;
    dst[static_cast<std::size_t>(static_cast<UI>(pidx[i]))] = pa[i];
  }
}

}  // namespace rvvsvm::rvv
