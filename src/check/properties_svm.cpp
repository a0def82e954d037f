// Kernel-level differential properties for the svm:: layer (and the apps::
// built on it): every kernel runs under two machine configurations
// (register-pressure model on and off) and the shared result is compared
// against an independent scalar reference — plus, where one exists, the
// svm::baseline:: scalar kernel.
//
// Problem sizes are drawn around VLMAX (0, 1, VLMAX±1, multi-block, up to
// 2048 elements) so every stripmine path — empty, single partial block,
// full blocks with remainder — is exercised at every SEW/LMUL.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "svm/baseline/baseline.hpp"
#include "svm/svm.hpp"

namespace rvvsvm::check {

namespace {

using detail::diff_expected;
using detail::flatten;
using detail::norm_vlen;
using detail::to_bits;
using detail::to_elems;

constexpr std::size_t kMaxN = 2048;

/// Run `body` under pressure-on and pressure-off machines, require identical
/// observations, then compare to `expected`.
template <class Body>
[[nodiscard]] std::string run_cfgs(const char* name, unsigned vlen_bits, Body&& body,
                                   const std::vector<std::uint64_t>& expected) {
  std::vector<std::uint64_t> obs[2];
  for (int mode = 0; mode < 2; ++mode) {
    rvv::Machine machine({.vlen_bits = vlen_bits,
                          .model_register_pressure = mode == 0});
    rvv::MachineScope scope(machine);
    obs[mode].clear();
    body(obs[mode]);
  }
  if (obs[0] != obs[1]) {
    return std::string(name) + ": pressure-modeled run diverges from plain run";
  }
  return diff_expected(name, obs[0], expected);
}

/// Shared per-check state: normalized shape plus typed operand images.
template <class T, unsigned L>
struct Ctx {
  unsigned vlen;
  std::size_t n;
  std::vector<T> a;             ///< value operand
  std::vector<std::uint8_t> bb; ///< element flags (low bits of case b)
  std::vector<std::uint8_t> hb; ///< head flags / mask bits (low bits of case m)
  std::vector<T> bflags;        ///< bb as T material
  std::vector<T> hflags;        ///< hb as T material
  T x;

  explicit Ctx(const Case& c)
      : vlen(norm_vlen(c.vlen)),
        n(c.vl % (kMaxN + 1)),
        a(to_elems<T>(c.a, n)),
        bb(to_bits(c.b, n)),
        hb(to_bits(c.m, n)),
        bflags(n),
        hflags(n),
        x(static_cast<T>(c.scalar)) {
    for (std::size_t i = 0; i < n; ++i) {
      bflags[i] = static_cast<T>(bb[i]);
      hflags[i] = static_cast<T>(hb[i]);
    }
  }

  [[nodiscard]] bool is_head(std::size_t i) const { return i == 0 || hb[i] != 0; }
};

template <class T>
[[nodiscard]] T wrap_add(T a, T b) {
  return static_cast<T>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
template <class T>
[[nodiscard]] T wrap_mul(T a, T b) {
  return static_cast<T>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}

// Host scan references.
template <class T, class F>
[[nodiscard]] std::vector<T> ref_scan_incl(const std::vector<T>& v, T id, F&& f) {
  std::vector<T> out(v.size());
  T acc = id;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc = f(acc, v[i]);
    out[i] = acc;
  }
  return out;
}
template <class T, class F>
[[nodiscard]] std::vector<T> ref_scan_excl(const std::vector<T>& v, T id, F&& f) {
  std::vector<T> out(v.size());
  T acc = id;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = acc;
    acc = f(acc, v[i]);
  }
  return out;
}

Case gen_svm(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  const std::size_t vlmax = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
  c.vl = detail::gen_size(rng, vlmax, kMaxN);
  detail::gen_values(rng, c.a, c.vl);
  detail::gen_mask(rng, c.b, c.vl);
  detail::gen_mask(rng, c.m, c.vl);
  c.scalar = rng.next();
  c.offset = rng.below(64);
  return c;
}

// --- properties -------------------------------------------------------------

std::string check_scan(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    auto one = [&](const char* name, auto kernel, const std::vector<T>& expected) {
      std::vector<std::uint64_t> exp;
      flatten(exp, expected);
      return run_cfgs(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> buf(k.a);
            kernel(std::span<T>(buf));
            flatten(o, buf);
          },
          exp);
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("plus_scan", [](std::span<T> d) { svm::plus_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, T{0}, wrap_add<T>)));
    all(one("max_scan", [](std::span<T> d) { svm::max_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, std::numeric_limits<T>::min(),
                             [](T p, T v) { return p > v ? p : v; })));
    all(one("min_scan", [](std::span<T> d) { svm::min_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, std::numeric_limits<T>::max(),
                             [](T p, T v) { return p < v ? p : v; })));
    all(one("or_scan", [](std::span<T> d) { svm::or_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, T{0}, [](T p, T v) { return static_cast<T>(p | v); })));
    all(one("and_scan", [](std::span<T> d) { svm::and_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, static_cast<T>(~T{0}),
                             [](T p, T v) { return static_cast<T>(p & v); })));
    all(one("xor_scan", [](std::span<T> d) { svm::xor_scan<T, L>(d); },
            ref_scan_incl<T>(k.a, T{0}, [](T p, T v) { return static_cast<T>(p ^ v); })));
    all(one("plus_scan_exclusive", [](std::span<T> d) { svm::plus_scan_exclusive<T, L>(d); },
            ref_scan_excl<T>(k.a, T{0}, wrap_add<T>)));
    all(one("max_scan_exclusive", [](std::span<T> d) { svm::max_scan_exclusive<T, L>(d); },
            ref_scan_excl<T>(k.a, std::numeric_limits<T>::min(),
                             [](T p, T v) { return p > v ? p : v; })));
    // Scalar baseline kernels must land on the same reference.
    all(one("baseline.plus_scan", [](std::span<T> d) { svm::baseline::plus_scan<T>(d); },
            ref_scan_incl<T>(k.a, T{0}, wrap_add<T>)));
    all(one("baseline.plus_scan_exclusive",
            [](std::span<T> d) { svm::baseline::plus_scan_exclusive<T>(d); },
            ref_scan_excl<T>(k.a, T{0}, wrap_add<T>)));
    return err;
  });
}

std::string check_reduce(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    auto fold = [&](T id, auto f) {
      T acc = id;
      for (const T v : k.a) acc = f(acc, v);
      return acc;
    };
    auto one = [&](const char* name, auto kernel, T expected) {
      return run_cfgs(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            flatten(o, static_cast<std::uint64_t>(kernel(std::span<const T>(k.a))));
          },
          {static_cast<std::uint64_t>(expected)});
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("reduce<Plus>", [](std::span<const T> d) { return svm::reduce<svm::PlusOp, T, L>(d); },
            fold(T{0}, wrap_add<T>)));
    all(one("reduce<Max>", [](std::span<const T> d) { return svm::reduce<svm::MaxOp, T, L>(d); },
            fold(std::numeric_limits<T>::min(), [](T p, T v) { return p > v ? p : v; })));
    all(one("reduce<Min>", [](std::span<const T> d) { return svm::reduce<svm::MinOp, T, L>(d); },
            fold(std::numeric_limits<T>::max(), [](T p, T v) { return p < v ? p : v; })));
    all(one("reduce<Or>", [](std::span<const T> d) { return svm::reduce<svm::OrOp, T, L>(d); },
            fold(T{0}, [](T p, T v) { return static_cast<T>(p | v); })));
    all(one("reduce<And>", [](std::span<const T> d) { return svm::reduce<svm::AndOp, T, L>(d); },
            fold(static_cast<T>(~T{0}), [](T p, T v) { return static_cast<T>(p & v); })));
    all(one("reduce<Xor>", [](std::span<const T> d) { return svm::reduce<svm::XorOp, T, L>(d); },
            fold(T{0}, [](T p, T v) { return static_cast<T>(p ^ v); })));
    return err;
  });
}

std::string check_seg_scan(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    // Segment boundaries: element 0 is an implicit head; otherwise a head
    // wherever the flag word is non-zero.
    auto seg_incl = [&](T id, auto f) {
      std::vector<T> out(k.n);
      T acc = id;
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.is_head(i)) acc = id;
        acc = f(acc, k.a[i]);
        out[i] = acc;
      }
      return out;
    };
    auto seg_excl = [&](T id, auto f) {
      std::vector<T> out(k.n);
      T acc = id;
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.is_head(i)) acc = id;
        out[i] = acc;
        acc = f(acc, k.a[i]);
      }
      return out;
    };
    auto one = [&](const char* name, auto kernel, const std::vector<T>& expected) {
      std::vector<std::uint64_t> exp;
      flatten(exp, expected);
      return run_cfgs(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> buf(k.a);
            kernel(std::span<T>(buf), std::span<const T>(k.hflags));
            flatten(o, buf);
          },
          exp);
    };
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("seg_plus_scan",
            [](std::span<T> d, std::span<const T> h) { svm::seg_plus_scan<T, L>(d, h); },
            seg_incl(T{0}, wrap_add<T>)));
    all(one("seg_max_scan",
            [](std::span<T> d, std::span<const T> h) { svm::seg_max_scan<T, L>(d, h); },
            seg_incl(std::numeric_limits<T>::min(),
                     [](T p, T v) { return p > v ? p : v; })));
    all(one("seg_min_scan",
            [](std::span<T> d, std::span<const T> h) { svm::seg_min_scan<T, L>(d, h); },
            seg_incl(std::numeric_limits<T>::max(),
                     [](T p, T v) { return p < v ? p : v; })));
    all(one("seg_or_scan",
            [](std::span<T> d, std::span<const T> h) { svm::seg_or_scan<T, L>(d, h); },
            seg_incl(T{0}, [](T p, T v) { return static_cast<T>(p | v); })));
    all(one("seg_plus_scan_exclusive",
            [](std::span<T> d, std::span<const T> h) {
              std::vector<T> scratch(d.size());
              svm::seg_plus_scan_exclusive<T, L>(d, h, std::span<T>(scratch));
            },
            seg_excl(T{0}, wrap_add<T>)));
    all(one("seg_max_scan_exclusive",
            [](std::span<T> d, std::span<const T> h) {
              svm::seg_scan_exclusive<svm::MaxOp, T, L>(d, h);
            },
            seg_excl(std::numeric_limits<T>::min(),
                     [](T p, T v) { return p > v ? p : v; })));
    all(one("baseline.seg_plus_scan",
            [](std::span<T> d, std::span<const T> h) {
              svm::baseline::seg_plus_scan<T>(d, h);
            },
            seg_incl(T{0}, wrap_add<T>)));
    // Distribute / broadcast-tail: every element takes its segment's head
    // (resp. tail) value.
    std::vector<T> headof(k.n), tailof(k.n);
    {
      std::size_t hd = 0;
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.is_head(i)) hd = i;
        headof[i] = k.a[hd];
      }
      std::size_t tl = k.n;
      for (std::size_t i = k.n; i-- > 0;) {
        if (i + 1 == k.n || k.hb[i + 1] != 0) tl = i;
        tailof[i] = k.a[tl];
      }
    }
    all(one("seg_distribute",
            [](std::span<T> d, std::span<const T> h) { svm::seg_distribute<T, L>(d, h); },
            headof));
    // seg_broadcast_tail rides on reverse(), so it inherits reverse's
    // narrow-index refusal.
    const bool overflow =
        k.n != 0 && k.n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max());
    if (overflow) {
      all(run_cfgs(
          "seg_broadcast_tail.guard", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> buf(k.a);
            try {
              svm::seg_broadcast_tail<T, L>(std::span<T>(buf),
                                            std::span<const T>(k.hflags));
              flatten(o, std::uint64_t{0});
            } catch (const std::invalid_argument&) {
              flatten(o, std::uint64_t{1});
            }
          },
          {std::uint64_t{1}}));
    } else {
      all(one("seg_broadcast_tail",
              [](std::span<T> d, std::span<const T> h) {
                svm::seg_broadcast_tail<T, L>(d, h);
              },
              tailof));
    }
    return err;
  });
}

std::string check_enumerate_split(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    for (const bool want : {false, true}) {
      // Host: per-element wrapped running count, host-width total.
      std::vector<std::uint64_t> exp;
      {
        T running{0};
        std::size_t total = 0;
        std::vector<T> offsets(k.n);
        for (std::size_t i = 0; i < k.n; ++i) {
          offsets[i] = running;
          if ((k.bb[i] != 0) == want) {
            running = wrap_add(running, T{1});
            ++total;
          }
        }
        flatten(exp, static_cast<std::uint64_t>(total));
        flatten(exp, offsets);
      }
      all(run_cfgs(
          want ? "enumerate<1>" : "enumerate<0>", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            const std::size_t total = svm::enumerate<T, L>(
                std::span<const T>(k.bflags), std::span<T>(dst), want);
            flatten(o, static_cast<std::uint64_t>(total));
            flatten(o, dst);
          },
          exp));
      all(run_cfgs(
          want ? "baseline.enumerate<1>" : "baseline.enumerate<0>", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            const std::size_t total = svm::baseline::enumerate<T>(
                std::span<const T>(k.bflags), std::span<T>(dst), want);
            flatten(o, static_cast<std::uint64_t>(total));
            flatten(o, dst);
          },
          exp));
    }
    // split: stable partition by flag, or the narrow-index overflow guard.
    const bool overflow =
        k.n != 0 && k.n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max());
    std::vector<std::uint64_t> exp;
    if (overflow) {
      flatten(exp, std::uint64_t{1});  // "threw invalid_argument"
    } else {
      std::vector<T> part;
      part.reserve(k.n);
      std::size_t zeros = 0;
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.bb[i] == 0) {
          part.push_back(k.a[i]);
          ++zeros;
        }
      }
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.bb[i] != 0) part.push_back(k.a[i]);
      }
      flatten(exp, std::uint64_t{0});
      flatten(exp, static_cast<std::uint64_t>(zeros));
      flatten(exp, part);
    }
    all(run_cfgs(
        "split", k.vlen,
        [&](std::vector<std::uint64_t>& o) {
          std::vector<T> dst(k.n, T{0});
          try {
            const std::size_t zeros = svm::split<T, L>(
                std::span<const T>(k.a), std::span<T>(dst), std::span<const T>(k.bflags));
            flatten(o, std::uint64_t{0});
            flatten(o, static_cast<std::uint64_t>(zeros));
            flatten(o, dst);
          } catch (const std::invalid_argument&) {
            flatten(o, std::uint64_t{1});
          }
        },
        exp));
    if (!overflow) {
      all(run_cfgs(
          "baseline.split", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            const std::size_t zeros = svm::baseline::split<T>(
                std::span<const T>(k.a), std::span<T>(dst), std::span<const T>(k.bflags));
            flatten(o, std::uint64_t{0});
            flatten(o, static_cast<std::uint64_t>(zeros));
            flatten(o, dst);
          },
          exp));
    }
    return err;
  });
}

std::string check_elementwise(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    const std::vector<T> b = to_elems<T>(c.b, k.n);
    const T x = k.x;
    // In-place a-op-b / a-op-x kernels.
    auto one = [&](const char* name, auto kernel, auto ref) {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint64_t>(ref(k.a[i], b[i])));
      }
      return run_cfgs(
          name, k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> buf(k.a);
            kernel(std::span<T>(buf));
            flatten(o, buf);
          },
          exp);
    };
    const unsigned sh =
        static_cast<unsigned>(static_cast<std::uint64_t>(x) & (rvv::kSewBits<T> - 1));
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    all(one("p_add.vx", [&](std::span<T> d) { svm::p_add<T, L>(d, x); },
            [&](T a, T) { return wrap_add(a, x); }));
    all(one("p_add.vv",
            [&](std::span<T> d) { svm::p_add<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return wrap_add(a, bv); }));
    all(one("p_sub.vv",
            [&](std::span<T> d) { svm::p_sub<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) {
              return static_cast<T>(static_cast<std::uint64_t>(a) -
                                    static_cast<std::uint64_t>(bv));
            }));
    all(one("p_mul.vv",
            [&](std::span<T> d) { svm::p_mul<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return wrap_mul(a, bv); }));
    all(one("p_max.vv",
            [&](std::span<T> d) { svm::p_max<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return a > bv ? a : bv; }));
    all(one("p_min.vv",
            [&](std::span<T> d) { svm::p_min<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return a < bv ? a : bv; }));
    all(one("p_and.vv",
            [&](std::span<T> d) { svm::p_and<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return static_cast<T>(a & bv); }));
    all(one("p_or.vv",
            [&](std::span<T> d) { svm::p_or<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return static_cast<T>(a | bv); }));
    all(one("p_xor.vv",
            [&](std::span<T> d) { svm::p_xor<T, L>(d, std::span<const T>(b)); },
            [](T a, T bv) { return static_cast<T>(a ^ bv); }));
    all(one("p_shift_right", [&](std::span<T> d) { svm::p_shift_right<T, L>(d, x); },
            [&](T a, T) { return static_cast<T>(static_cast<std::uint64_t>(a) >> sh); }));
    all(one("p_shift_left", [&](std::span<T> d) { svm::p_shift_left<T, L>(d, x); },
            [&](T a, T) { return static_cast<T>(static_cast<std::uint64_t>(a) << sh); }));
    all(one("p_combine<Max>.vx",
            [&](std::span<T> d) { svm::p_combine<svm::MaxOp, T, L>(d, x); },
            [&](T a, T) { return a > x ? a : x; }));
    // p_select: dst[i] = flags[i] ? if_true[i] : dst[i].
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint64_t>(k.bb[i] != 0 ? b[i] : k.a[i]));
      }
      all(run_cfgs(
          "p_select", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.a);
            svm::p_select<T, L>(std::span<const T>(k.bflags), std::span<const T>(b),
                                std::span<T>(dst));
            flatten(o, dst);
          },
          exp));
    }
    // Flag producers.
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) exp.push_back(k.a[i] < b[i] ? 1u : 0u);
      all(run_cfgs(
          "p_flag_lt.vv", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            svm::p_flag_lt<T, L>(std::span<const T>(k.a), std::span<const T>(b),
                                 std::span<T>(dst));
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) exp.push_back(k.a[i] == x ? 1u : 0u);
      all(run_cfgs(
          "p_flag_eq.vx", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            svm::p_flag_eq<T, L>(std::span<const T>(k.a), x, std::span<T>(dst));
            flatten(o, dst);
          },
          exp));
    }
    // p_convert round-trip through u32 widening (the mixed-width path the
    // sort and histogram lean on).
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint32_t>(k.a[i]));
      }
      all(run_cfgs(
          "p_convert<T,u32>", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<std::uint32_t> dst(k.n, 0);
            svm::p_convert<T, std::uint32_t, L>(std::span<const T>(k.a),
                                                std::span<std::uint32_t>(dst));
            flatten(o, dst);
          },
          exp));
    }
    // p_copy, index_fill, get_flags.
    {
      std::vector<std::uint64_t> exp;
      flatten(exp, k.a);
      all(run_cfgs(
          "p_copy", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            svm::p_copy<T, L>(std::span<const T>(k.a), std::span<T>(dst));
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint64_t>(wrap_add(x, static_cast<T>(i))));
      }
      all(run_cfgs(
          "index_fill", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            svm::index_fill<T, L>(std::span<T>(dst), x);
            flatten(o, dst);
          },
          exp));
    }
    {
      const unsigned bit = static_cast<unsigned>(c.offset % rvv::kSewBits<T>);
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back((static_cast<std::uint64_t>(k.a[i]) >> bit) & 1u);
      }
      all(run_cfgs(
          "get_flags", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            svm::get_flags<T, L>(std::span<const T>(k.a), std::span<T>(dst), bit);
            flatten(o, dst);
          },
          exp));
    }
    return err;
  });
}

std::string check_permute(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    constexpr T kSentinel = static_cast<T>(0x5A);
    // In-range (after the T cast, which the host mirrors) scatter/gather
    // indices derived from the case's m words.
    std::vector<T> idx(k.n, T{0});
    for (std::size_t i = 0; i < k.n; ++i) {
      idx[i] = static_cast<T>(k.n == 0 ? 0 : (i < c.m.size() ? c.m[i] : 0) % k.n);
    }
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    {
      // permute: dst[idx[i]] = src[i], last writer in element order wins.
      std::vector<std::uint64_t> exp(k.n, static_cast<std::uint64_t>(kSentinel));
      for (std::size_t i = 0; i < k.n; ++i) {
        exp[static_cast<std::size_t>(idx[i])] = static_cast<std::uint64_t>(k.a[i]);
      }
      all(run_cfgs(
          "permute", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, kSentinel);
            svm::permute<T, L>(std::span<const T>(k.a), std::span<T>(dst),
                               std::span<const T>(idx));
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp(k.n, static_cast<std::uint64_t>(kSentinel));
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.bb[i] != 0) {
          exp[static_cast<std::size_t>(idx[i])] = static_cast<std::uint64_t>(k.a[i]);
        }
      }
      all(run_cfgs(
          "permute_masked", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, kSentinel);
            svm::permute_masked<T, L>(std::span<const T>(k.a), std::span<T>(dst),
                                      std::span<const T>(idx),
                                      std::span<const T>(k.bflags));
            flatten(o, dst);
          },
          exp));
    }
    {
      std::vector<std::uint64_t> exp;
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint64_t>(k.a[static_cast<std::size_t>(idx[i])]));
      }
      all(run_cfgs(
          "gather", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, kSentinel);
            svm::gather<T, L>(std::span<const T>(k.a), std::span<T>(dst),
                              std::span<const T>(idx));
            flatten(o, dst);
          },
          exp));
    }
    {
      // pack: flagged prefix in order; dst beyond the packed count untouched.
      std::vector<T> packed;
      for (std::size_t i = 0; i < k.n; ++i) {
        if (k.bb[i] != 0) packed.push_back(k.a[i]);
      }
      std::vector<std::uint64_t> exp;
      flatten(exp, static_cast<std::uint64_t>(packed.size()));
      for (std::size_t i = 0; i < k.n; ++i) {
        exp.push_back(static_cast<std::uint64_t>(i < packed.size() ? packed[i]
                                                                   : kSentinel));
      }
      all(run_cfgs(
          "pack", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, kSentinel);
            const std::size_t count = svm::pack<T, L>(
                std::span<const T>(k.a), std::span<T>(dst), std::span<const T>(k.bflags));
            flatten(o, static_cast<std::uint64_t>(count));
            flatten(o, dst);
          },
          exp));
    }
    {
      // reverse computes its scatter indices in T: sizes whose top index
      // does not fit must refuse rather than silently wrap.
      const bool overflow =
          k.n != 0 && k.n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max());
      std::vector<std::uint64_t> exp;
      if (overflow) {
        flatten(exp, std::uint64_t{1});
      } else {
        flatten(exp, std::uint64_t{0});
        for (std::size_t i = 0; i < k.n; ++i) {
          exp.push_back(static_cast<std::uint64_t>(k.a[k.n - 1 - i]));
        }
      }
      all(run_cfgs(
          "reverse", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, kSentinel);
            try {
              svm::reverse<T, L>(std::span<const T>(k.a), std::span<T>(dst));
              flatten(o, std::uint64_t{0});
              flatten(o, dst);
            } catch (const std::invalid_argument&) {
              flatten(o, std::uint64_t{1});
            }
          },
          exp));
    }
    return err;
  });
}

std::string check_seg_ops(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    // Segment ranges [start, end) in order.
    std::vector<std::pair<std::size_t, std::size_t>> segs;
    for (std::size_t i = 0; i < k.n; ++i) {
      if (k.is_head(i)) segs.emplace_back(i, i);
      segs.back().second = i + 1;
    }
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    const bool overflow =
        k.n != 0 && k.n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max());
    {
      std::vector<std::uint64_t> exp;
      if (overflow) {
        flatten(exp, std::uint64_t{1});
      } else {
        // Stable per-segment partition + the post-split segmentation.
        std::vector<T> out(k.n, T{0});
        std::vector<T> nh(k.hflags);
        for (const auto& [s, e] : segs) {
          std::size_t w = s, ones = 0;
          for (std::size_t i = s; i < e; ++i) {
            if (k.bb[i] == 0) out[w++] = k.a[i];
          }
          const std::size_t boundary = w;
          for (std::size_t i = s; i < e; ++i) {
            if (k.bb[i] != 0) {
              out[w++] = k.a[i];
              ++ones;
            }
          }
          if (ones > 0) nh[boundary] = T{1};
        }
        flatten(exp, std::uint64_t{0});
        flatten(exp, out);
        flatten(exp, nh);
      }
      all(run_cfgs(
          "seg_split", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> dst(k.n, T{0});
            std::vector<T> nh(k.n, T{0});
            try {
              svm::seg_split<T, L>(std::span<const T>(k.a), std::span<T>(dst),
                                   std::span<const T>(k.bflags),
                                   std::span<const T>(k.hflags), std::span<T>(nh));
              flatten(o, std::uint64_t{0});
              flatten(o, dst);
              flatten(o, nh);
            } catch (const std::invalid_argument&) {
              flatten(o, std::uint64_t{1});
            }
          },
          exp));
    }
    {
      // seg_reduce: per-segment totals packed to the front, the rest of the
      // output untouched.
      constexpr T kSentinel = static_cast<T>(0x77);
      auto one = [&](const char* name, auto kernel, T id, auto f) {
        std::vector<T> totals;
        for (const auto& [s, e] : segs) {
          T acc = id;
          for (std::size_t i = s; i < e; ++i) acc = f(acc, k.a[i]);
          totals.push_back(acc);
        }
        std::vector<std::uint64_t> exp;
        flatten(exp, static_cast<std::uint64_t>(totals.size()));
        for (std::size_t i = 0; i < k.n; ++i) {
          exp.push_back(static_cast<std::uint64_t>(i < totals.size() ? totals[i]
                                                                     : kSentinel));
        }
        return run_cfgs(
            name, k.vlen,
            [&](std::vector<std::uint64_t>& o) {
              std::vector<T> out(k.n, kSentinel);
              const std::size_t runs =
                  kernel(std::span<const T>(k.a), std::span<const T>(k.hflags),
                         std::span<T>(out));
              flatten(o, static_cast<std::uint64_t>(runs));
              flatten(o, out);
            },
            exp);
      };
      all(one("seg_reduce<Plus>",
              [](std::span<const T> d, std::span<const T> h, std::span<T> out) {
                return svm::seg_reduce<svm::PlusOp, T, L>(d, h, out);
              },
              T{0}, wrap_add<T>));
      all(one("seg_reduce<Max>",
              [](std::span<const T> d, std::span<const T> h, std::span<T> out) {
                return svm::seg_reduce<svm::MaxOp, T, L>(d, h, out);
              },
              std::numeric_limits<T>::min(), [](T p, T v) { return p > v ? p : v; }));
    }
    return err;
  });
}

std::string check_apps(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const Ctx<T, L> k(c);
    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };
    {
      std::vector<T> expected(k.a);
      std::sort(expected.begin(), expected.end());
      std::vector<std::uint64_t> exp;
      flatten(exp, expected);
      all(run_cfgs(
          "split_radix_sort", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> buf(k.a);
            apps::split_radix_sort<T, L>(std::span<T>(buf));
            flatten(o, buf);
          },
          exp));
    }
    {
      const std::size_t num_bins = 1 + c.offset % 32;
      std::vector<T> keys(k.n);
      for (std::size_t i = 0; i < k.n; ++i) {
        keys[i] = static_cast<T>(static_cast<std::uint64_t>(k.a[i]) % num_bins);
      }
      std::vector<std::uint64_t> exp(num_bins, 0);
      for (const T key : keys) {
        // Bin counts are computed in T and wrap with it.
        exp[static_cast<std::size_t>(key)] = static_cast<std::uint64_t>(
            wrap_add(static_cast<T>(exp[static_cast<std::size_t>(key)]), T{1}));
      }
      all(run_cfgs(
          "histogram", k.vlen,
          [&](std::vector<std::uint64_t>& o) {
            std::vector<T> bins(num_bins, static_cast<T>(0x33));
            apps::histogram<T, L>(std::span<const T>(keys), std::span<T>(bins));
            flatten(o, bins);
          },
          exp));
    }
    return err;
  });
}

}  // namespace

std::vector<Property> make_svm_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name, std::function<std::string(const Case&)> check) {
    props.push_back(Property{name, "svm", gen_svm, std::move(check)});
  };
  add("svm.scan", check_scan);
  add("svm.reduce", check_reduce);
  add("svm.seg_scan", check_seg_scan);
  add("svm.enumerate_split", check_enumerate_split);
  add("svm.elementwise", check_elementwise);
  add("svm.permute", check_permute);
  add("svm.seg_ops", check_seg_ops);
  add("svm.apps", check_apps);
  return props;
}

}  // namespace rvvsvm::check
