// Split radix sort (paper section 4.4, Listing 9).
//
// Sorts unsigned keys by splitting the array on each bit from least to most
// significant; split is stable, so after all key-width passes the array is
// sorted.  Built purely from the scan-vector-model primitives: get_flags +
// split (which is enumerate + p-add + p-select + permute).
//
// Split computes destination *indices* in the element type, so keys
// narrower than the array length are widened to 32-bit first (vzext), sorted
// over their own bit-width, and narrowed back (vnsrl) — the standard RVV
// mixed-width treatment, and every conversion pass is counted.
//
// Once every loop of a call's passes replays fused, the passes replay at
// the call level as one host byte-radix sort (radix_sort_passes below).
#pragma once

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "svm/ops.hpp"

namespace rvvsvm::apps {

namespace detail {

/// The passes as the paper writes them: per bit, get_flags then split,
/// ping-ponging between `data` and a scratch buffer.
template <rvv::VectorElement T, unsigned LMUL>
void split_passes(std::span<T> data, unsigned key_bits) {
  const std::size_t n = data.size();
  rvv::Machine& m = rvv::Machine::active();
  // get_flags writes every flag and split every dst element before either
  // is read, so both buffers start uninitialized.
  const auto buffer = std::make_unique_for_overwrite<T[]>(n);
  const auto flag_buf = std::make_unique_for_overwrite<T[]>(n);
  const std::span<T> flags(flag_buf.get(), n);
  std::span<T> src = data;
  std::span<T> dst(buffer.get(), n);
  for (unsigned bit = 0; bit < key_bits; ++bit) {
    svm::get_flags<T, LMUL>(src, flags, bit);
    static_cast<void>(svm::split<T, LMUL>(std::span<const T>(src), dst,
                                          std::span<const T>(flags)));
    std::swap(src, dst);  // Listing 9 lines 9-12
    m.scalar().charge({.alu = 3, .branch = 1});
  }
  if (key_bits % 2 != 0) {
    // Odd pass count: the sorted result sits in the scratch buffer.
    svm::p_copy<T, LMUL>(std::span<const T>(src), data);
  }
}

/// What key_bits <= SEW split passes leave, computed on the host: `data`
/// stably sorted by the unsigned value of its low `key_bits` bits.  LSD
/// over 8-bit digits: one pass counts every digit's buckets, then each
/// digit whose keys do not all fall in one bucket takes one scatter pass.
template <rvv::VectorElement T>
void host_radix_sort(std::span<T> data, unsigned key_bits) {
  using W = rvv::detail::Wide<T>;
  const std::size_t n = data.size();
  const unsigned digits = (key_bits + 7) / 8;
  const W mask = key_bits == rvv::kSewBits<T> ? static_cast<W>(~W{0})
                                              : static_cast<W>((W{1} << key_bits) - 1);
  std::array<std::array<std::size_t, 256>, sizeof(T)> buckets{};
  for (const T x : data) {
    const W key = static_cast<W>(x) & mask;
    for (unsigned d = 0; d < digits; ++d) ++buckets[d][(key >> (8 * d)) & 0xFF];
  }
  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  T* src = data.data();
  T* dst = scratch.get();
  for (unsigned d = 0; d < digits; ++d) {
    std::array<std::size_t, 256>& next = buckets[d];
    if (std::ranges::find(next, n) != next.end()) continue;  // order kept
    std::exclusive_scan(next.begin(), next.end(), next.begin(), std::size_t{0});
    const unsigned shift = 8 * d;
    for (std::size_t i = 0; i < n; ++i) {
      const T x = src[i];
      dst[next[((static_cast<W>(x) & mask) >> shift) & 0xFF]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy_n(src, n, data.data());
}

/// One split pass per bit in [0, key_bits); the caller guarantees that
/// destination indices (up to data.size() - 1) fit in T.  Sorting keys known
/// to be below 2^key_bits needs only key_bits passes (the histogram and RLE
/// applications exploit this).
///
/// At a pinned LMUL a call replays at the call level, the contract of
/// svm::split one level up.  The first call of a (key_bits, n, SEW, LMUL)
/// shape in which all of its ⌈n/VLMAX⌉·(6·key_bits + key_bits mod 2) loop
/// iterations replayed fused (per bit get_flags and split's five loops, an
/// odd count's closing p_copy; a split that replayed its own record counts
/// the loops it stands for) stores what it retired.  A later call of that
/// shape charges the record in one add and runs host_radix_sort in place
/// of the passes.  A call replays only when key_bits <= SEW (beyond it
/// get_flags's shift amount wraps, and the passes re-sort low bits), the
/// machine is ready (cache on, no fault channel armed, tracer idle, no
/// live vector values) and any armed deadline lies beyond the call's last
/// instruction; any other call runs the passes, which trap where the
/// interpreter's do.  The tuned instantiation always runs the passes: each
/// of its kernels picks its own LMUL, so no shape names its loops.
template <rvv::VectorElement T, unsigned LMUL>
void radix_sort_passes(std::span<T> data, unsigned key_bits) {
  if constexpr (LMUL == svm::kTunedLmul) {
    split_passes<T, LMUL>(data, key_bits);
  } else {
    const std::size_t n = data.size();
    rvv::Machine& m = rvv::Machine::active();
    static const rvv::TraceSite sites[rvv::kSewBits<T> + 1]{};
    const bool eligible = key_bits <= rvv::kSewBits<T> && m.call_replay_ready();
    if (eligible) {
      if (const rvv::CallRecord* r =
              m.admit_call_replay(sites[key_bits], n, rvv::kSewBits<T>, LMUL)) {
        m.charge_call_replay(*r);
        host_radix_sort(data, key_bits);
        return;
      }
    }
    const rvv::Machine::CallMark mark = m.mark_call();
    split_passes<T, LMUL>(data, key_bits);
    if (eligible) {
      const std::size_t vlmax = m.vlmax<T>(LMUL);
      m.record_call(sites[key_bits], n, rvv::kSewBits<T>, LMUL, mark,
                    (n + vlmax - 1) / vlmax * (6 * key_bits + key_bits % 2));
    }
  }
}

}  // namespace detail

/// In-place ascending sort of unsigned keys.  `LMUL` selects the register
/// grouping for every underlying primitive.  Requires an active
/// rvv::MachineScope.  A warm machine replays a repeated shape's passes as
/// one host sort (detail::radix_sort_passes), charging the same counts.
template <rvv::VectorElement T, unsigned LMUL = 1>
void split_radix_sort(std::span<T> data) {
  static_assert(std::is_unsigned_v<T>,
                "split radix sort orders raw key bits; use unsigned keys");
  static_assert(rvv::kSewBits<T> % 2 == 0);
  const std::size_t n = data.size();
  if (n < 2) return;

  if constexpr (sizeof(T) < sizeof(std::uint32_t)) {
    if (n - 1 > std::numeric_limits<T>::max()) {
      // Destination indices overflow the key type: widen, sort over the
      // original key bits only, narrow back.
      std::vector<std::uint32_t> wide(n);
      svm::p_convert<T, std::uint32_t, LMUL>(std::span<const T>(data),
                                             std::span<std::uint32_t>(wide));
      detail::radix_sort_passes<std::uint32_t, LMUL>(std::span<std::uint32_t>(wide),
                                                     rvv::kSewBits<T>);
      svm::p_convert<std::uint32_t, T, LMUL>(std::span<const std::uint32_t>(wide),
                                             data);
      return;
    }
  }
  detail::radix_sort_passes<T, LMUL>(data, rvv::kSewBits<T>);
}

}  // namespace rvvsvm::apps
