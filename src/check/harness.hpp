// Shared plumbing for the property tables: case normalization, SEW/LMUL
// dispatch, operand marshalling, the one-machine observation runner, and
// the comparison against an independent scalar reference.
//
// Internal to src/check — properties_{rvv,svm,par}.cpp include it; the
// public surface is oracle.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/case.hpp"
#include "check/rng.hpp"
#include "rvv/rvv.hpp"

namespace rvvsvm::check::detail {

// --- normalization: any Case field value maps to a legal machine shape ------

[[nodiscard]] inline unsigned norm_vlen(unsigned vlen) {
  if (vlen >= 1024) return 1024;
  if (vlen >= 512) return 512;
  if (vlen >= 256) return 256;
  return 128;
}

[[nodiscard]] inline unsigned norm_lmul(unsigned lmul) {
  if (lmul >= 8) return 8;
  if (lmul >= 4) return 4;
  if (lmul >= 2) return 2;
  return 1;
}

[[nodiscard]] inline unsigned norm_sew(unsigned sew) {
  switch (sew) {
    case 8:
    case 16:
    case 64:
      return sew;
    default:
      return 32;
  }
}

// --- dispatch: materialize a template over the case's (SEW, LMUL) ----------
//
// Fn is a generic functor invoked as fn.template operator()<T, L>() where T
// is the unsigned element type for the normalized SEW.  The oracle fuzzes
// unsigned element types only; signed-specific semantics (vsra, vmslt,
// signed index reinterpretation) are pinned by direct unit tests.

template <class Fn>
[[nodiscard]] std::string dispatch_sew_lmul(const Case& c, Fn&& fn) {
  const unsigned sew = norm_sew(c.sew);
  const unsigned lmul = norm_lmul(c.lmul);
  auto with_sew = [&]<class T>() -> std::string {
    switch (lmul) {
      case 2:
        return fn.template operator()<T, 2>();
      case 4:
        return fn.template operator()<T, 4>();
      case 8:
        return fn.template operator()<T, 8>();
      default:
        return fn.template operator()<T, 1>();
    }
  };
  switch (sew) {
    case 8:
      return with_sew.template operator()<std::uint8_t>();
    case 16:
      return with_sew.template operator()<std::uint16_t>();
    case 64:
      return with_sew.template operator()<std::uint64_t>();
    default:
      return with_sew.template operator()<std::uint32_t>();
  }
}

// --- operand marshalling ----------------------------------------------------

/// Truncate the case's 64-bit words into T, padded with zeros to `n`.
template <class T>
[[nodiscard]] std::vector<T> to_elems(const std::vector<std::uint64_t>& v,
                                      std::size_t n) {
  std::vector<T> out(n, T{0});
  for (std::size_t i = 0; i < n && i < v.size(); ++i) out[i] = static_cast<T>(v[i]);
  return out;
}

/// Low bit of each word, padded with zeros to `n` — mask/flag material.
[[nodiscard]] inline std::vector<std::uint8_t> to_bits(
    const std::vector<std::uint64_t>& v, std::size_t n) {
  std::vector<std::uint8_t> out(n, 0);
  for (std::size_t i = 0; i < n && i < v.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(v[i] & 1);
  }
  return out;
}

/// Widen an observation (register contents, mask bits, scalar results) into
/// the flat uint64 stream the reference comparison and the mismatch printer
/// work on.
template <class T>
void flatten(std::vector<std::uint64_t>& out, std::span<const T> v) {
  for (const T x : v) out.push_back(static_cast<std::uint64_t>(x));
}

template <class T>
void flatten(std::vector<std::uint64_t>& out, const std::vector<T>& v) {
  flatten(out, std::span<const T>(v));
}

inline void flatten(std::vector<std::uint64_t>& out, std::uint64_t x) {
  out.push_back(x);
}

// --- observation runner -----------------------------------------------------

/// Run `body` on a fresh machine (register-pressure model off) and return the
/// observation stream it appends.  Result storage comes from the pool
/// uninitialized, so an op that leaves a body element unwritten shows up as
/// a mismatch against the scalar reference (diff_expected).
template <class Body>
[[nodiscard]] std::vector<std::uint64_t> observe(unsigned vlen_bits, Body&& body) {
  rvv::Machine machine({.vlen_bits = vlen_bits, .model_register_pressure = false});
  rvv::MachineScope scope(machine);
  std::vector<std::uint64_t> obs;
  body(obs);
  return obs;
}

/// Compare an observation stream against its independent scalar reference.
[[nodiscard]] inline std::string diff_expected(
    std::string_view what, const std::vector<std::uint64_t>& actual,
    const std::vector<std::uint64_t>& expected) {
  if (actual.size() != expected.size()) {
    std::ostringstream msg;
    msg << what << ": observation length " << actual.size() << ", reference "
        << expected.size();
    return msg.str();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i]) {
      std::ostringstream msg;
      msg << what << ": element " << i << " is " << actual[i] << ", reference says "
          << expected[i];
      return msg.str();
    }
  }
  return "";
}

// --- generator helpers ------------------------------------------------------

/// Adversarial problem size around the case's VLMAX: the shapes named by the
/// issue (0, 1, VLMAX-1, VLMAX, VLMAX+1, ...) plus uniform filler.
[[nodiscard]] inline std::size_t gen_size(Rng& rng, std::size_t vlmax,
                                          std::size_t cap) {
  switch (rng.below(8)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return vlmax > 0 ? vlmax - 1 : 0;
    case 3:
      return vlmax;
    case 4:
      return vlmax + 1 <= cap ? vlmax + 1 : cap;
    case 5:
      return 2 * vlmax + 3 <= cap ? 2 * vlmax + 3 : cap;
    default:
      return rng.below(cap + 1);
  }
}

/// Fill an operand vector: dense random, small values, all-equal, or zeros
/// (the degenerate distributions that expose carry/identity bugs).
inline void gen_values(Rng& rng, std::vector<std::uint64_t>& v, std::size_t n) {
  v.clear();
  v.reserve(n);
  const unsigned mode = static_cast<unsigned>(rng.below(4));
  const std::uint64_t same = rng.next();
  for (std::size_t i = 0; i < n; ++i) {
    switch (mode) {
      case 0:
        v.push_back(rng.next());
        break;
      case 1:
        v.push_back(rng.below(8));
        break;
      case 2:
        v.push_back(same);
        break;
      default:
        v.push_back(0);
        break;
    }
  }
}

/// Fill mask words at one of the adversarial densities {0, 5, 50, 95, 100}%.
inline void gen_mask(Rng& rng, std::vector<std::uint64_t>& m, std::size_t n) {
  m.clear();
  m.reserve(n);
  static constexpr unsigned kDensity[] = {0, 5, 50, 95, 100};
  const unsigned density = kDensity[rng.below(5)];
  for (std::size_t i = 0; i < n; ++i) m.push_back(rng.chance(density) ? 1 : 0);
}

/// Draw a machine shape into the case (vlen/sew/lmul already normalized).
inline void gen_shape(Rng& rng, Case& c) {
  static constexpr unsigned kVlens[] = {128, 256, 512, 1024};
  static constexpr unsigned kSews[] = {8, 16, 32, 64};
  static constexpr unsigned kLmuls[] = {1, 2, 4, 8};
  c.vlen = kVlens[rng.below(4)];
  c.sew = kSews[rng.below(4)];
  c.lmul = kLmuls[rng.below(4)];
}

}  // namespace rvvsvm::check::detail
