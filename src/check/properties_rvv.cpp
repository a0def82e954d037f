// Per-instruction differential properties for the rvv:: emulator layer.
//
// Every check loads its operands at FULL register capacity (vl = VLMAX from
// zero-padded buffers) so the complete register contents — body and tail —
// are known, then runs the instruction under test at the case's vl and
// compares the whole register (including the tail-agnostic poison pattern)
// against an independently coded scalar reference (see harness.hpp).
//
// The fuzzer draws unsigned element types only; signed-specific semantics
// (vsra on signed types, signed compares, signed index reinterpretation in
// vrgather/vluxei) are pinned as direct unit tests in
// tests/test_fuzz_regressions.cpp.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "check/oracle.hpp"

namespace rvvsvm::check {

namespace {

using detail::diff_expected;
using detail::flatten;
using detail::norm_vlen;
using detail::observe;
using detail::to_bits;
using detail::to_elems;

/// Per-check state shared by every rvv property body: the normalized shape
/// and the full-capacity operand images.
template <class T, unsigned L>
struct Ctx {
  unsigned vlen;
  std::size_t cap;
  std::size_t vl;
  std::vector<T> am, bm;
  std::vector<std::uint8_t> mb;
  T x;

  explicit Ctx(const Case& c)
      : vlen(norm_vlen(c.vlen)),
        cap(rvv::vlmax_for(vlen, rvv::kSewBits<T>, L)),
        vl(c.vl % (cap + 1)),
        am(to_elems<T>(c.a, cap)),
        bm(to_elems<T>(c.b, cap)),
        mb(to_bits(c.m, cap)),
        x(static_cast<T>(c.scalar)) {}

  [[nodiscard]] rvv::vreg<T, L> load(const std::vector<T>& mem) const {
    return rvv::vle<T, L>(std::span<const T>(mem), cap);
  }
  [[nodiscard]] rvv::vmask load_mask(const std::vector<std::uint8_t>& bits) const {
    std::vector<T> tmp(cap);
    for (std::size_t i = 0; i < cap; ++i) tmp[i] = static_cast<T>(bits[i]);
    return rvv::vmsne(rvv::vle<T, L>(std::span<const T>(tmp), cap), T{0}, cap);
  }

  /// Reference register image: body from `f(i)`, poison tail.
  template <class F>
  [[nodiscard]] std::vector<std::uint64_t> body_then_poison(F&& f) const {
    std::vector<std::uint64_t> exp;
    exp.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      exp.push_back(static_cast<std::uint64_t>(i < vl ? f(i) : rvv::kTailPoison<T>));
    }
    return exp;
  }
  /// Reference mask image: body bits from `f(i)`, set-bit poison tail.
  template <class F>
  [[nodiscard]] std::vector<std::uint64_t> bits_then_ones(F&& f) const {
    std::vector<std::uint64_t> exp;
    exp.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      exp.push_back(i < vl ? (f(i) ? 1u : 0u) : 1u);
    }
    return exp;
  }
};

/// Run one sub-check: `body`'s observation must match `expected`.  Returns
/// "" or "<name>: <difference>".
template <class Body>
[[nodiscard]] std::string run_sub(const char* name, unsigned vlen, Body&& body,
                                  const std::vector<std::uint64_t>& expected) {
  return diff_expected(name, observe(vlen, body), expected);
}

// --- generators -------------------------------------------------------------

Case gen_regs(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  const std::size_t cap = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
  c.vl = detail::gen_size(rng, cap, cap);
  detail::gen_values(rng, c.a, cap);
  detail::gen_values(rng, c.b, cap);
  detail::gen_mask(rng, c.m, cap);
  c.scalar = rng.next();
  switch (rng.below(8)) {
    case 0:
      c.offset = 0;
      break;
    case 1:
      c.offset = 1;
      break;
    case 2:
      c.offset = cap - 1;
      break;
    case 3:
      c.offset = cap;
      break;
    case 4:
      c.offset = cap + 1;
      break;
    case 5:
      // The size_t wraparound corner: i + offset overflows.
      c.offset = std::numeric_limits<std::size_t>::max() - rng.below(4);
      break;
    default:
      c.offset = rng.below(2 * cap + 2);
      break;
  }
  return c;
}

Case gen_gather(Rng& rng) {
  Case c = gen_regs(rng);
  // Half the time the index operand is all in-range, exercising real
  // gathers rather than the out-of-range-yields-zero rule.
  if (rng.chance(50)) {
    const std::size_t cap = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
    for (auto& v : c.b) v = rng.below(cap);
  }
  return c;
}

// --- properties -------------------------------------------------------------

std::string check_arith_vv(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    auto one = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            const auto va = k.load(k.am);
            const auto vb = k.load(k.bm);
            flatten(o, run(va, vb).elems());
          },
          k.body_then_poison([&](std::size_t i) { return ref(k.am[i], k.bm[i]); }));
    };
    auto u64 = [](T v) { return static_cast<std::uint64_t>(v); };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("vadd.vv", [&](const auto& a, const auto& b) { return rvv::vadd(a, b, k.vl); },
            [&](T a, T b) { return static_cast<T>(u64(a) + u64(b)); }));
    all(one("vsub.vv", [&](const auto& a, const auto& b) { return rvv::vsub(a, b, k.vl); },
            [&](T a, T b) { return static_cast<T>(u64(a) - u64(b)); }));
    all(one("vmul.vv", [&](const auto& a, const auto& b) { return rvv::vmul(a, b, k.vl); },
            [&](T a, T b) { return static_cast<T>(u64(a) * u64(b)); }));
    all(one("vmin.vv", [&](const auto& a, const auto& b) { return rvv::vmin(a, b, k.vl); },
            [](T a, T b) { return a < b ? a : b; }));
    all(one("vmax.vv", [&](const auto& a, const auto& b) { return rvv::vmax(a, b, k.vl); },
            [](T a, T b) { return a > b ? a : b; }));
    all(one("vand.vv", [&](const auto& a, const auto& b) { return rvv::vand(a, b, k.vl); },
            [](T a, T b) { return static_cast<T>(a & b); }));
    all(one("vor.vv", [&](const auto& a, const auto& b) { return rvv::vor(a, b, k.vl); },
            [](T a, T b) { return static_cast<T>(a | b); }));
    all(one("vxor.vv", [&](const auto& a, const auto& b) { return rvv::vxor(a, b, k.vl); },
            [](T a, T b) { return static_cast<T>(a ^ b); }));
    all(one("vdivu.vv", [&](const auto& a, const auto& b) { return rvv::vdiv(a, b, k.vl); },
            [](T a, T b) { return b == T{0} ? static_cast<T>(~T{0}) : static_cast<T>(a / b); }));
    all(one("vremu.vv", [&](const auto& a, const auto& b) { return rvv::vrem(a, b, k.vl); },
            [](T a, T b) { return b == T{0} ? a : static_cast<T>(a % b); }));
    all(one("vsaddu.vv", [&](const auto& a, const auto& b) { return rvv::vsadd(a, b, k.vl); },
            [&](T a, T b) {
              const T w = static_cast<T>(u64(a) + u64(b));
              return w < a ? std::numeric_limits<T>::max() : w;
            }));
    all(one("vssubu.vv", [&](const auto& a, const auto& b) { return rvv::vssub(a, b, k.vl); },
            [](T a, T b) { return a < b ? T{0} : static_cast<T>(a - b); }));
    return err;
  });
}

std::string check_arith_vx(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    auto one = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) { flatten(o, run(k.load(k.am)).elems()); },
          k.body_then_poison([&](std::size_t i) { return ref(k.am[i]); }));
    };
    auto u64 = [](T v) { return static_cast<std::uint64_t>(v); };
    const T x = k.x;
    const unsigned sh =
        static_cast<unsigned>(static_cast<std::uint64_t>(x) & (rvv::kSewBits<T> - 1));
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("vadd.vx", [&](const auto& a) { return rvv::vadd(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(a) + u64(x)); }));
    all(one("vsub.vx", [&](const auto& a) { return rvv::vsub(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(a) - u64(x)); }));
    all(one("vrsub.vx", [&](const auto& a) { return rvv::vrsub(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(x) - u64(a)); }));
    all(one("vmul.vx", [&](const auto& a) { return rvv::vmul(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(a) * u64(x)); }));
    all(one("vmin.vx", [&](const auto& a) { return rvv::vmin(a, x, k.vl); },
            [&](T a) { return a < x ? a : x; }));
    all(one("vmax.vx", [&](const auto& a) { return rvv::vmax(a, x, k.vl); },
            [&](T a) { return a > x ? a : x; }));
    all(one("vand.vx", [&](const auto& a) { return rvv::vand(a, x, k.vl); },
            [&](T a) { return static_cast<T>(a & x); }));
    all(one("vor.vx", [&](const auto& a) { return rvv::vor(a, x, k.vl); },
            [&](T a) { return static_cast<T>(a | x); }));
    all(one("vxor.vx", [&](const auto& a) { return rvv::vxor(a, x, k.vl); },
            [&](T a) { return static_cast<T>(a ^ x); }));
    all(one("vneg.v", [&](const auto& a) { return rvv::vneg(a, k.vl); },
            [&](T a) { return static_cast<T>(std::uint64_t{0} - u64(a)); }));
    all(one("vnot.v", [&](const auto& a) { return rvv::vnot(a, k.vl); },
            [](T a) { return static_cast<T>(~a); }));
    all(one("vsll.vx", [&](const auto& a) { return rvv::vsll(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(a) << sh); }));
    all(one("vsrl.vx", [&](const auto& a) { return rvv::vsrl(a, x, k.vl); },
            [&](T a) { return static_cast<T>(u64(a) >> sh); }));
    all(one("vsra.vx", [&](const auto& a) { return rvv::vsra(a, x, k.vl); },
            [&](T a) {
              using S = std::make_signed_t<T>;
              return static_cast<T>(
                  static_cast<std::int64_t>(static_cast<S>(a)) >> sh);
            }));
    return err;
  });
}

std::string check_masked(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    // maskedoff = the b operand; active lanes compute, inactive keep b.
    auto one = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            const auto mask = k.load_mask(k.mb);
            const auto va = k.load(k.am);
            const auto vb = k.load(k.bm);
            flatten(o, run(mask, va, vb).elems());
          },
          k.body_then_poison([&](std::size_t i) {
            return k.mb[i] != 0 ? ref(k.am[i], k.bm[i]) : k.bm[i];
          }));
    };
    auto u64 = [](T v) { return static_cast<std::uint64_t>(v); };
    const T x = k.x;
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("vmerge.vvm",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vmerge(m, a, b, k.vl);
            },
            [](T a, T) { return a; }));
    all(one("vmerge.vxm",
            [&](const auto& m, const auto&, const auto& b) {
              return rvv::vmerge(m, x, b, k.vl);
            },
            [&](T, T) { return x; }));
    all(one("vadd.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vadd_m(m, b, a, b, k.vl);
            },
            [&](T a, T b) { return static_cast<T>(u64(a) + u64(b)); }));
    all(one("vadd.vx.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vadd_m(m, b, a, x, k.vl);
            },
            [&](T a, T) { return static_cast<T>(u64(a) + u64(x)); }));
    all(one("vsub.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vsub_m(m, b, a, b, k.vl);
            },
            [&](T a, T b) { return static_cast<T>(u64(a) - u64(b)); }));
    all(one("vor.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vor_m(m, b, a, b, k.vl);
            },
            [](T a, T b) { return static_cast<T>(a | b); }));
    all(one("vand.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vand_m(m, b, a, b, k.vl);
            },
            [](T a, T b) { return static_cast<T>(a & b); }));
    all(one("vxor.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vxor_m(m, b, a, b, k.vl);
            },
            [](T a, T b) { return static_cast<T>(a ^ b); }));
    all(one("vmax.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vmax_m(m, b, a, b, k.vl);
            },
            [](T a, T b) { return a > b ? a : b; }));
    all(one("vmin.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vmin_m(m, b, a, b, k.vl);
            },
            [](T a, T b) { return a < b ? a : b; }));
    all(one("vmul.vv.m",
            [&](const auto& m, const auto& a, const auto& b) {
              return rvv::vmul_m(m, b, a, b, k.vl);
            },
            [&](T a, T b) { return static_cast<T>(u64(a) * u64(b)); }));
    return err;
  });
}

std::string check_compare(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    auto vv = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            const auto va = k.load(k.am);
            const auto vb = k.load(k.bm);
            flatten(o, run(va, vb).bits());
          },
          k.bits_then_ones([&](std::size_t i) { return ref(k.am[i], k.bm[i]); }));
    };
    const T x = k.x;
    auto vx = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) { flatten(o, run(k.load(k.am)).bits()); },
          k.bits_then_ones([&](std::size_t i) { return ref(k.am[i], x); }));
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(vv("vmseq.vv", [&](const auto& a, const auto& b) { return rvv::vmseq(a, b, k.vl); },
           [](T a, T b) { return a == b; }));
    all(vv("vmsne.vv", [&](const auto& a, const auto& b) { return rvv::vmsne(a, b, k.vl); },
           [](T a, T b) { return a != b; }));
    all(vv("vmsltu.vv", [&](const auto& a, const auto& b) { return rvv::vmslt(a, b, k.vl); },
           [](T a, T b) { return a < b; }));
    all(vv("vmsleu.vv", [&](const auto& a, const auto& b) { return rvv::vmsle(a, b, k.vl); },
           [](T a, T b) { return a <= b; }));
    all(vv("vmsgtu.vv", [&](const auto& a, const auto& b) { return rvv::vmsgt(a, b, k.vl); },
           [](T a, T b) { return a > b; }));
    all(vv("vmsgeu.vv", [&](const auto& a, const auto& b) { return rvv::vmsge(a, b, k.vl); },
           [](T a, T b) { return a >= b; }));
    all(vx("vmseq.vx", [&](const auto& a) { return rvv::vmseq(a, x, k.vl); },
           [](T a, T y) { return a == y; }));
    all(vx("vmsne.vx", [&](const auto& a) { return rvv::vmsne(a, x, k.vl); },
           [](T a, T y) { return a != y; }));
    all(vx("vmsltu.vx", [&](const auto& a) { return rvv::vmslt(a, x, k.vl); },
           [](T a, T y) { return a < y; }));
    all(vx("vmsleu.vx", [&](const auto& a) { return rvv::vmsle(a, x, k.vl); },
           [](T a, T y) { return a <= y; }));
    all(vx("vmsgtu.vx", [&](const auto& a) { return rvv::vmsgt(a, x, k.vl); },
           [](T a, T y) { return a > y; }));
    all(vx("vmsgeu.vx", [&](const auto& a) { return rvv::vmsge(a, x, k.vl); },
           [](T a, T y) { return a >= y; }));
    return err;
  });
}

std::string check_mask_logical(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    const auto abits = to_bits(c.a, k.cap);
    const auto bbits = to_bits(c.b, k.cap);
    auto one = [&](const char* name, auto run, auto ref) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            const auto ma = k.load_mask(abits);
            const auto mb = k.load_mask(bbits);
            flatten(o, run(ma, mb).bits());
          },
          k.bits_then_ones(
              [&](std::size_t i) { return ref(abits[i] != 0, bbits[i] != 0); }));
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("vmand.mm", [&](const auto& a, const auto& b) { return rvv::vmand(a, b, k.vl); },
            [](bool a, bool b) { return a && b; }));
    all(one("vmor.mm", [&](const auto& a, const auto& b) { return rvv::vmor(a, b, k.vl); },
            [](bool a, bool b) { return a || b; }));
    all(one("vmxor.mm", [&](const auto& a, const auto& b) { return rvv::vmxor(a, b, k.vl); },
            [](bool a, bool b) { return a != b; }));
    all(one("vmnand.mm", [&](const auto& a, const auto& b) { return rvv::vmnand(a, b, k.vl); },
            [](bool a, bool b) { return !(a && b); }));
    all(one("vmnor.mm", [&](const auto& a, const auto& b) { return rvv::vmnor(a, b, k.vl); },
            [](bool a, bool b) { return !(a || b); }));
    all(one("vmxnor.mm", [&](const auto& a, const auto& b) { return rvv::vmxnor(a, b, k.vl); },
            [](bool a, bool b) { return a == b; }));
    all(one("vmandn.mm", [&](const auto& a, const auto& b) { return rvv::vmandn(a, b, k.vl); },
            [](bool a, bool b) { return a && !b; }));
    all(one("vmorn.mm", [&](const auto& a, const auto& b) { return rvv::vmorn(a, b, k.vl); },
            [](bool a, bool b) { return a || !b; }));
    all(one("vmnot.m", [&](const auto& a, const auto&) { return rvv::vmnot(a, k.vl); },
            [](bool a, bool) { return !a; }));
    // vmclr/vmset allocate at the machine's maximum mask capacity (VLMAX for
    // SEW=8, LMUL=8 = VLEN bits), independent of the property's shape.
    const std::size_t mask_cap = rvv::vlmax_for(k.vlen, 8, 8);
    auto whole_mask = [&](bool set) {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < mask_cap; ++i) {
        exp.push_back(i < k.vl ? (set ? 1u : 0u) : 1u);
      }
      return exp;
    };
    all(run_sub(
        "vmclr.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) { flatten(o, rvv::vmclr(k.vl).bits()); },
        whole_mask(false)));
    all(run_sub(
        "vmset.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) { flatten(o, rvv::vmset(k.vl).bits()); },
        whole_mask(true)));
    return err;
  });
}

std::string check_mask_util(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    // Host-side reference facts about the mask body [0, vl).
    std::size_t pop = 0;
    long first = -1;
    for (std::size_t i = 0; i < k.vl; ++i) {
      if (k.mb[i] != 0) {
        ++pop;
        if (first < 0) first = static_cast<long>(i);
      }
    }
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(run_sub(
        "vcpop.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, static_cast<std::uint64_t>(rvv::vcpop(k.load_mask(k.mb), k.vl)));
        },
        {static_cast<std::uint64_t>(pop)}));
    all(run_sub(
        "vfirst.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(rvv::vfirst(k.load_mask(k.mb), k.vl))));
        },
        {static_cast<std::uint64_t>(static_cast<std::int64_t>(first))}));
    const std::size_t ufirst =
        first < 0 ? k.vl : static_cast<std::size_t>(first);
    all(run_sub(
        "vmsbf.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vmsbf(k.load_mask(k.mb), k.vl).bits());
        },
        k.bits_then_ones([&](std::size_t i) { return i < ufirst; })));
    all(run_sub(
        "vmsif.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vmsif(k.load_mask(k.mb), k.vl).bits());
        },
        k.bits_then_ones([&](std::size_t i) { return i <= ufirst; })));
    all(run_sub(
        "vmsof.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vmsof(k.load_mask(k.mb), k.vl).bits());
        },
        k.bits_then_ones([&](std::size_t i) { return i == ufirst && first >= 0; })));
    // viota: running (wrapping) count of set bits strictly before i.
    std::vector<std::uint64_t> iota_counts(k.vl, 0);
    {
      std::uint64_t running = 0;
      for (std::size_t i = 0; i < k.vl; ++i) {
        iota_counts[i] = running;
        if (k.mb[i] != 0) ++running;
      }
    }
    all(run_sub(
        "viota.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::viota<T, L>(k.load_mask(k.mb), k.vl).elems());
        },
        k.body_then_poison(
            [&](std::size_t i) { return static_cast<T>(iota_counts[i]); })));
    all(run_sub(
        "vid.v", k.vlen,
        [&](std::vector<std::uint64_t>& o) { flatten(o, rvv::vid<T, L>(k.vl).elems()); },
        k.body_then_poison([](std::size_t i) { return static_cast<T>(i); })));
    return err;
  });
}

std::string check_slides(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    const std::size_t off = c.offset;
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(run_sub(
        "vslideup.vx", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          const auto dest = k.load(k.bm);
          const auto src = k.load(k.am);
          flatten(o, rvv::vslideup(dest, src, off, k.vl).elems());
        },
        k.body_then_poison(
            [&](std::size_t i) { return i < off ? k.bm[i] : k.am[i - off]; })));
    all(run_sub(
        "vslidedown.vx", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vslidedown(k.load(k.am), off, k.vl).elems());
        },
        k.body_then_poison([&](std::size_t i) {
          // Mathematical i + OFFSET < VLMAX — guard before adding so the
          // reference itself cannot wrap.
          return (off < k.cap && i < k.cap - off) ? k.am[i + off] : T{0};
        })));
    all(run_sub(
        "vslide1up.vx", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vslide1up(k.load(k.am), k.x, k.vl).elems());
        },
        k.body_then_poison(
            [&](std::size_t i) { return i == 0 ? k.x : k.am[i - 1]; })));
    all(run_sub(
        "vslide1down.vx", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vslide1down(k.load(k.am), k.x, k.vl).elems());
        },
        k.body_then_poison(
            [&](std::size_t i) { return i + 1 == k.vl ? k.x : k.am[i + 1]; })));
    return err;
  });
}

std::string check_gather_compress(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(run_sub(
        "vrgather.vv", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          const auto src = k.load(k.am);
          const auto idx = k.load(k.bm);
          flatten(o, rvv::vrgather(src, idx, k.vl).elems());
        },
        k.body_then_poison([&](std::size_t i) {
          const auto ix = static_cast<std::size_t>(k.bm[i]);
          return ix < k.cap ? k.am[ix] : T{0};
        })));
    // vcompress: packed prefix of flagged elements, poison everywhere else.
    std::vector<T> packed;
    for (std::size_t i = 0; i < k.vl; ++i) {
      if (k.mb[i] != 0) packed.push_back(k.am[i]);
    }
    std::vector<std::uint64_t> exp;
    for (std::size_t i = 0; i < k.cap; ++i) {
      exp.push_back(static_cast<std::uint64_t>(
          i < packed.size() ? packed[i] : rvv::kTailPoison<T>));
    }
    all(run_sub(
        "vcompress.vm", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          const auto src = k.load(k.am);
          const auto mask = k.load_mask(k.mb);
          flatten(o, rvv::vcompress(src, mask, k.vl).elems());
        },
        exp));
    return err;
  });
}

std::string check_reduce(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    const T seed = k.x;
    auto fold = [&](T init, auto f, bool masked) {
      T acc = init;
      for (std::size_t i = 0; i < k.vl; ++i) {
        if (!masked || k.mb[i] != 0) acc = f(acc, k.am[i]);
      }
      return acc;
    };
    auto add = [](T a, T b) {
      return static_cast<T>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    auto one = [&](const char* name, auto run, T expected) -> std::string {
      return run_sub(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            flatten(o, static_cast<std::uint64_t>(run(k.load(k.am))));
          },
          {static_cast<std::uint64_t>(expected)});
    };
    all(one("vredsum.vs", [&](const auto& a) { return rvv::vredsum(a, k.vl, seed); },
            fold(seed, add, false)));
    all(one("vredmaxu.vs", [&](const auto& a) { return rvv::vredmax(a, k.vl); },
            fold(std::numeric_limits<T>::min(),
                 [](T a, T b) { return a > b ? a : b; }, false)));
    all(one("vredminu.vs", [&](const auto& a) { return rvv::vredmin(a, k.vl); },
            fold(std::numeric_limits<T>::max(),
                 [](T a, T b) { return a < b ? a : b; }, false)));
    all(one("vredand.vs", [&](const auto& a) { return rvv::vredand(a, k.vl); },
            fold(static_cast<T>(~T{0}), [](T a, T b) { return static_cast<T>(a & b); },
                 false)));
    all(one("vredor.vs", [&](const auto& a) { return rvv::vredor(a, k.vl); },
            fold(T{0}, [](T a, T b) { return static_cast<T>(a | b); }, false)));
    all(one("vredxor.vs", [&](const auto& a) { return rvv::vredxor(a, k.vl); },
            fold(T{0}, [](T a, T b) { return static_cast<T>(a ^ b); }, false)));
    all(run_sub(
        "vredsum.vs.m", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          const auto mask = k.load_mask(k.mb);
          flatten(o, static_cast<std::uint64_t>(
                         rvv::vredsum_m(mask, k.load(k.am), k.vl, seed)));
        },
        {static_cast<std::uint64_t>(fold(seed, add, true))}));
    return err;
  });
}

std::string check_loadstore(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    constexpr T kSentinel = static_cast<T>(0x5A);
    const std::size_t stride = 1 + c.offset % 4;
    const std::vector<T> wide = to_elems<T>(c.a, k.cap * 4 + 4);
    // In-range element indices for the indexed forms.
    std::vector<T> idx(k.cap, T{0});
    for (std::size_t i = 0; i < k.cap; ++i) {
      idx[i] = static_cast<T>((i < c.m.size() ? c.m[i] : 0) % k.cap);
    }
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(run_sub(
        "vle.v", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vle<T, L>(std::span<const T>(k.am), k.vl).elems());
        },
        k.body_then_poison([&](std::size_t i) { return k.am[i]; })));
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.cap; ++i) {
        exp.push_back(static_cast<std::uint64_t>(i < k.vl ? k.am[i] : kSentinel));
      }
      all(run_sub(
          "vse.v", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.cap, kSentinel);
            rvv::vse(std::span<T>(dst), k.load(k.am), k.vl);
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.cap; ++i) {
        exp.push_back(static_cast<std::uint64_t>(
            i < k.vl && k.mb[i] != 0 ? k.am[i] : kSentinel));
      }
      all(run_sub(
          "vse.v.m", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.cap, kSentinel);
            rvv::vse_m(k.load_mask(k.mb), std::span<T>(dst), k.load(k.am), k.vl);
            flatten(o, dst);
          },
          exp));
    }
    all(run_sub(
        "vlse.v", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vlse<T, L>(std::span<const T>(wide), stride, k.vl).elems());
        },
        k.body_then_poison([&](std::size_t i) { return wide[i * stride]; })));
    {
      std::vector<std::uint64_t> exp(k.cap * 4 + 4,
                                     static_cast<std::uint64_t>(kSentinel));
      for (std::size_t i = 0; i < k.vl; ++i) {
        exp[i * stride] = static_cast<std::uint64_t>(k.am[i]);
      }
      all(run_sub(
          "vsse.v", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.cap * 4 + 4, kSentinel);
            rvv::vsse(std::span<T>(dst), stride, k.load(k.am), k.vl);
            flatten(o, dst);
          },
          exp));
    }
    all(run_sub(
        "vluxei.v", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o,
                  rvv::vluxei<T, L>(std::span<const T>(k.am), k.load(idx), k.vl).elems());
        },
        k.body_then_poison(
            [&](std::size_t i) { return k.am[static_cast<std::size_t>(idx[i])]; })));
    {
      // Unordered scatter: last writer in element order wins.
      std::vector<std::uint64_t> exp(k.cap, static_cast<std::uint64_t>(kSentinel));
      for (std::size_t i = 0; i < k.vl; ++i) {
        exp[static_cast<std::size_t>(idx[i])] = static_cast<std::uint64_t>(k.am[i]);
      }
      all(run_sub(
          "vsuxei.v", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.cap, kSentinel);
            rvv::vsuxei(std::span<T>(dst), k.load(idx), k.load(k.am), k.vl);
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp(k.cap, static_cast<std::uint64_t>(kSentinel));
      for (std::size_t i = 0; i < k.vl; ++i) {
        if (k.mb[i] != 0) {
          exp[static_cast<std::size_t>(idx[i])] = static_cast<std::uint64_t>(k.am[i]);
        }
      }
      all(run_sub(
          "vsuxei.v.m", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.cap, kSentinel);
            rvv::vsuxei_m(k.load_mask(k.mb), std::span<T>(dst), k.load(idx),
                          k.load(k.am), k.vl);
            flatten(o, dst);
          },
          exp));
    }
    return err;
  });
}

std::string check_move(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    // vsetvl: min(avl, VLMAX) — probe raw (possibly huge) avl.
    all(run_sub(
        "vsetvl", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, static_cast<std::uint64_t>(
                         rvv::Machine::active().vsetvl<T>(c.offset, L)));
        },
        {static_cast<std::uint64_t>(c.offset < k.cap ? c.offset : k.cap)}));
    all(run_sub(
        "vmv.v.x", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vmv_v_x<T, L>(k.x, k.vl).elems());
        },
        k.body_then_poison([&](std::size_t) { return k.x; })));
    all(run_sub(
        "vmv.v.v", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, rvv::vmv_v_v(k.load(k.am), k.vl).elems());
        },
        k.body_then_poison([&](std::size_t i) { return k.am[i]; })));
    {
      // vmv.s.x is tail-undisturbed: the full source image survives, with
      // element 0 replaced only when vl > 0.
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.cap; ++i) {
        exp.push_back(static_cast<std::uint64_t>(
            (i == 0 && k.vl > 0) ? k.x : k.am[i]));
      }
      all(run_sub(
          "vmv.s.x", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            flatten(o, rvv::vmv_s_x(k.load(k.am), k.x, k.vl).elems());
          },
          exp));
    }
    all(run_sub(
        "vmv.x.s", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, static_cast<std::uint64_t>(rvv::vmv_x_s(k.load(k.am))));
        },
        {static_cast<std::uint64_t>(k.am[0])}));
    return err;
  });
}

}  // namespace

std::vector<Property> make_rvv_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name, std::function<std::string(const Case&)> check,
                 std::function<Case(Rng&)> gen = gen_regs) {
    props.push_back(Property{name, "rvv", std::move(gen), std::move(check)});
  };
  add("rvv.arith_vv", check_arith_vv);
  add("rvv.arith_vx", check_arith_vx);
  add("rvv.masked", check_masked);
  add("rvv.compare", check_compare);
  add("rvv.mask_logical", check_mask_logical);
  add("rvv.mask_util", check_mask_util);
  add("rvv.slides", check_slides);
  add("rvv.gather_compress", check_gather_compress, gen_gather);
  add("rvv.reduce", check_reduce);
  add("rvv.loadstore", check_loadstore);
  add("rvv.move", check_move);
  return props;
}

}  // namespace rvvsvm::check
