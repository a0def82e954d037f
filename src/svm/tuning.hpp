// Tuned-dispatch glue: how "svm::plus_scan<T>(v)" picks its LMUL.
//
// Every kernel's LMUL template parameter now defaults to the sentinel
// kTunedLmul.  A kernel instantiated at the sentinel never reaches vsetvl:
// its dispatch head asks the active tune::AutoTuner for this (kernel shape,
// n-bucket, SEW, VLEN, hart count) key and re-enters itself at the chosen
// compile-time LMUL.  On a cache miss the tuner measures the candidates by
// running the *same kernel* (same strip-mine body, same closures) on
// zero-filled scratch operands at the bucket's representative size, on a
// scratch machine cloned from the caller's shape — so measurement charges
// nothing to the caller and the winner depends only on the key.
//
// Correctness is free by construction: kernels are LMUL-invariant in their
// results (the trace fuzz layer and the tune fuzz layer both pin this), so
// tuning can only change counts, never data.  Callers that need pinned
// counts (paper tables, count goldens, the par combine phases) keep naming
// an explicit LMUL, which bypasses this header entirely.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rvv/config.hpp"
#include "rvv/machine.hpp"
#include "tune/autotuner.hpp"

namespace rvvsvm::svm {

/// Template-default sentinel: "let the autotuner pick".  Not a legal LMUL —
/// dispatch resolves it before any instruction executes.
inline constexpr unsigned kTunedLmul = 0;

namespace detail {

/// Run `fn(std::integral_constant<unsigned, lmul>)` for a runtime lmul in
/// {1, 2, 4, 8} — the bridge from the tuner's runtime choice back to the
/// compile-time LMUL the kernels are templated on.
template <class Fn>
decltype(auto) with_lmul(unsigned lmul, Fn&& fn) {
  switch (lmul) {
    case 1: return fn(std::integral_constant<unsigned, 1>{});
    case 2: return fn(std::integral_constant<unsigned, 2>{});
    case 4: return fn(std::integral_constant<unsigned, 4>{});
    case 8: return fn(std::integral_constant<unsigned, 8>{});
    default:
      throw std::invalid_argument("with_lmul: LMUL must be 1, 2, 4 or 8");
  }
}

/// Zero-filled scratch operands for candidate measurement.  Three arrays
/// cover every kernel arity (src/dst/flags, a/b/dst, ...); zeros are legal
/// everywhere they are used (0/1-flag inputs accept all-zero, scatter
/// indices may collide, and counts are shape-deterministic regardless).
template <rvv::VectorElement T>
struct TuneScratch {
  explicit TuneScratch(std::size_t n) : a(n), b(n), c(n) {}
  std::vector<T> a, b, c;
};

/// The tuned LMUL for one kernel call (or one par:: collective).  The key
/// takes VLEN from `like` and its hart count from `harts`; `n` is the size
/// the key buckets on, and the candidates are measured at that bucket's
/// representative size.  `measure(lc, scratch)` must run the kernel at the
/// compile-time LMUL `lc` on the scratch operands; it is invoked once per
/// surviving candidate, each time on a fresh scratch machine cloned from
/// `like`'s shape.  One set of scratch operands serves every candidate of
/// a decision: built on the first measurement and zeroed again before each
/// later one, so every candidate sees all-zero inputs and a decision
/// allocates them once.
template <rvv::VectorElement T, class Measure>
[[nodiscard]] unsigned tuned_lmul(rvv::Machine& like, unsigned harts,
                                  tune::Shape shape, std::size_t n,
                                  Measure&& measure) {
  if (n == 0) return 1;
  tune::AutoTuner& tuner = tune::AutoTuner::active();
  const tune::Key key{.shape = shape,
                      .bucket = tune::n_bucket(n),
                      .sew = rvv::kSewBits<T>,
                      .vlen = like.vlen_bits(),
                      .harts = harts};
  // A hit (or a disabled tuner) is one lock and builds no std::function.
  if (const unsigned lmul = tuner.cached(key); lmul != 0) return lmul;
  // Trials run with the execution cache (the default): counts are
  // bit-identical with it on or off (the trace fuzz layer pins this), and a
  // trial's strip-mine loop replays fused after its first blocks instead of
  // interpreting every op.
  const rvv::Machine::Config scratch_cfg{
      .vlen_bits = like.vlen_bits(),
      .model_register_pressure = like.regfile() != nullptr};
  std::optional<TuneScratch<T>> operands;
  return tuner.choose(key, [&](unsigned lmul) -> std::uint64_t {
    rvv::Machine scratch(scratch_cfg);
    rvv::MachineScope scope(scratch);
    if (!operands) {
      operands.emplace(tune::representative_n(n));
    } else {
      for (std::vector<T>* v : {&operands->a, &operands->b, &operands->c}) {
        std::ranges::fill(*v, T{0});
      }
    }
    with_lmul(lmul, [&](auto lc) { measure(lc, *operands); });
    return scratch.counter().total();
  });
}

/// Head of every tuned kernel: pick the LMUL for one hart on the active
/// machine, then run `run(lc)` at it.  Forwards run's return value (reduce
/// returns T, split/pack return counts).
template <rvv::VectorElement T, class Measure, class Run>
decltype(auto) tuned_run(tune::Shape shape, std::size_t n, Measure&& measure,
                         Run&& run) {
  return with_lmul(tuned_lmul<T>(rvv::Machine::active(), 1, shape, n,
                                 std::forward<Measure>(measure)),
                   std::forward<Run>(run));
}

}  // namespace detail
}  // namespace rvvsvm::svm
