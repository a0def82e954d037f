#include "rvv/mask_ops.hpp"

#include <algorithm>

namespace rvvsvm::rvv {

namespace {

/// Result capacity for a fresh mask: big enough for the widest element count
/// this machine can configure (SEW=8 with LMUL=8 gives VLEN elements).
std::size_t mask_capacity(const Machine& m) {
  return vlmax_for(m.vlen_bits(), 8, 8);
}

}  // namespace

vmask vmclr(std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = mask_capacity(m);
  const detail::OpCtx ctx{m, "vmclr", vl, 1};
  ctx.check_vl(cap, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "vmclr", vl, 1);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(1);
  auto bits = detail::result_bits(m, cap, vl);
  std::fill_n(bits.data(), vl, std::uint8_t{0});
  return detail::make_vmask(m, std::move(bits), id);
}

vmask vmset(std::size_t vl) {
  Machine& m = Machine::active();
  const std::size_t cap = mask_capacity(m);
  const detail::OpCtx ctx{m, "vmset", vl, 1};
  ctx.check_vl(cap, "destination");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "vmset", vl, 1);
  detail::AllocGuard guard(m);
  const sim::ValueId id = guard.define(1);
  auto bits = detail::result_bits(m, cap, vl);
  std::fill_n(bits.data(), vl, std::uint8_t{1});
  return detail::make_vmask(m, std::move(bits), id);
}

std::size_t vcpop(const vmask& mask, std::size_t vl) {
  Machine& m = mask.machine();
  const detail::OpCtx ctx{m, "vcpop", vl, 1};
  ctx.check_vl(mask.capacity(), "mask");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "vcpop", vl, 1);
  detail::AllocGuard guard(m);
  guard.use(mask.value_id());
  std::size_t count = 0;
  const std::uint8_t* pm = mask.bits().data();
  for (std::size_t i = 0; i < vl; ++i) count += pm[i] != 0 ? 1u : 0u;
  return count;
}

long vfirst(const vmask& mask, std::size_t vl) {
  Machine& m = mask.machine();
  const detail::OpCtx ctx{m, "vfirst", vl, 1};
  ctx.check_vl(mask.capacity(), "mask");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, "vfirst", vl, 1);
  detail::AllocGuard guard(m);
  guard.use(mask.value_id());
  const std::uint8_t* pm = mask.bits().data();
  for (std::size_t i = 0; i < vl; ++i) {
    if (pm[i] != 0) return static_cast<long>(i);
  }
  return -1;
}

namespace {

enum class FirstKind { kBefore, kIncluding, kOnly };

vmask set_first(const char* op, const vmask& mask, std::size_t vl,
                FirstKind kind) {
  Machine& m = mask.machine();
  const detail::OpCtx ctx{m, op, vl, 1};
  ctx.check_vl(mask.capacity(), "mask");
  detail::ChargeGuard charge(m, sim::InstClass::kVectorMask, op, vl, 1);
  detail::AllocGuard guard(m);
  guard.use(mask.value_id());
  const sim::ValueId id = guard.define(1);
  auto bits = detail::result_bits(m, mask.capacity(), vl);
  const std::uint8_t* pm = mask.bits().data();
  std::uint8_t* po = bits.data();
  bool seen = false;
  for (std::size_t i = 0; i < vl; ++i) {
    const bool here = pm[i] != 0;
    const bool first_here = !seen && here;
    switch (kind) {
      case FirstKind::kBefore:    po[i] = (!seen && !here) ? 1 : 0; break;
      case FirstKind::kIncluding: po[i] = !seen ? 1 : 0; break;
      case FirstKind::kOnly:      po[i] = first_here ? 1 : 0; break;
    }
    seen = seen || here;
  }
  return detail::make_vmask(m, std::move(bits), id);
}

}  // namespace

vmask vmsbf(const vmask& mask, std::size_t vl) {
  return set_first("vmsbf", mask, vl, FirstKind::kBefore);
}

vmask vmsif(const vmask& mask, std::size_t vl) {
  return set_first("vmsif", mask, vl, FirstKind::kIncluding);
}

vmask vmsof(const vmask& mask, std::size_t vl) {
  return set_first("vmsof", mask, vl, FirstKind::kOnly);
}

}  // namespace rvvsvm::rvv
