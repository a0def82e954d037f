// Two-level (sharded) collective kernels over a HartPool.
//
// Every collective is the textbook block-parallel form of its svm:: kernel,
// with the single-hart kernels reused verbatim inside each shard:
//
//   scan:    per-shard local scan  ->  exclusive scan of the shard totals on
//            hart 0  ->  per-shard offset fixup (svm::p_combine).
//   reduce:  per-shard reduce  ->  reduce of the partials on hart 0.
//   split:   per-shard 0/1 rank + bucket histogram (svm::enumerate)  ->
//            exclusive scan of per-shard bucket counts on hart 0  ->
//            per-shard offset, select and scatter into the global output.
//
// Results are bit-identical to the single-hart svm:: kernels: the operators
// are exact and associative over their element types, so folding the
// exclusive-scanned shard totals into each shard reproduces the global fold,
// and split's stable partition is uniquely determined by its input.
//
// The cross-shard arrays (shard totals, bucket counts) are host-side staging
// in the same way the single-hart kernels' scalar carries are host-side;
// writing a shard's total and reading its base offset are charged as the
// scalar store/load they would be on a real machine, so the modeled cost of
// the combine tree is counted, deterministically per shard.
//
// Dynamic instruction counts merge across harts (HartPool::merged_counts)
// and are invariant under the hart count for a fixed shard size: shard
// decomposition depends only on (n, shard_size), per-shard work only on the
// shard, and the combine phase is a one-shard epoch, which always runs on
// hart 0.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "par/hart_pool.hpp"
#include "svm/svm.hpp"

namespace rvvsvm::par {

namespace detail {

// Checkpoint hooks for the collectives' in-place phases.  A phase whose
// shard body mutates its input (the local scans, p_combine, p_add/p_select)
// cannot simply be re-run after a mid-shard fault, so when the pool's
// recovery policy is armed each shard's element range is copied host-side
// before the first attempt and copied back before every re-attempt.  The
// copies are recovery bookkeeping, not modeled work — no instructions are
// charged, which keeps recovered runs count-identical to fault-free ones.
// Phases that only write fresh outputs from const inputs are idempotent and
// pass no hooks.

/// Hooks checkpointing shard s's range of `data` (per the shard table).
template <rvv::VectorElement T>
[[nodiscard]] RecoveryHooks checkpoint_shards(
    const HartPool& pool, std::span<T> data,
    const std::vector<ShardRange>& shards) {
  if (!pool.recovery_armed()) return {};
  auto ranges = std::make_shared<std::vector<ShardRange>>(shards);
  auto saved = std::make_shared<std::vector<std::vector<T>>>(ranges->size());
  return RecoveryHooks{
      .save =
          [data, ranges, saved](std::size_t s) {
            const auto sub = data.subspan((*ranges)[s].begin, (*ranges)[s].size());
            (*saved)[s].assign(sub.begin(), sub.end());
          },
      .restore =
          [data, ranges, saved](std::size_t s) {
            const auto& buf = (*saved)[s];
            std::copy(buf.begin(), buf.end(),
                      data.begin() + static_cast<std::ptrdiff_t>((*ranges)[s].begin));
          },
  };
}

/// Hooks checkpointing a whole host-side staging vector (the cross-shard
/// combine phases run as a one-shard epoch, which the pool puts on hart 0).
template <rvv::VectorElement T>
[[nodiscard]] RecoveryHooks checkpoint_whole(const HartPool& pool,
                                             std::span<T> data) {
  if (!pool.recovery_armed()) return {};
  auto saved = std::make_shared<std::vector<T>>();
  return RecoveryHooks{
      .save = [data, saved](std::size_t) { saved->assign(data.begin(), data.end()); },
      .restore =
          [data, saved](std::size_t) {
            std::copy(saved->begin(), saved->end(), data.begin());
          },
  };
}

/// Sequences two checkpoint hook sets over the same shard indices.
[[nodiscard]] inline RecoveryHooks checkpoint_both(RecoveryHooks a,
                                                   RecoveryHooks b) {
  if (!a.save && !b.save) return {};
  return RecoveryHooks{
      .save =
          [a, b](std::size_t s) {
            if (a.save) a.save(s);
            if (b.save) b.save(s);
          },
      .restore =
          [a, b](std::size_t s) {
            if (a.restore) a.restore(s);
            if (b.restore) b.restore(s);
          },
  };
}

/// Tuned-LMUL choice for a collective, made ONCE at the entry point so every
/// shard of the job runs the same LMUL (per-shard tuning would break the
/// hart-count invariance of merged counts).  The key carries the pool's hart
/// count next to the svm-level fields; measurement runs the per-shard svm
/// kernel at the shard's representative size on a scratch machine cloned
/// from hart 0's shape, exactly like the single-hart path in svm/tuning.hpp.
template <rvv::VectorElement T, class Measure>
[[nodiscard]] unsigned tuned_collective_lmul(HartPool& pool, tune::Shape shape,
                                             std::size_t n, Measure&& measure) {
  tune::AutoTuner& tuner = tune::AutoTuner::active();
  if (n == 0 || !tuner.enabled()) return 1;
  rvv::Machine& m0 = pool.machine(0);
  const std::size_t shard_n = std::min(n, pool.shard_size());
  const tune::Key key{.shape = shape,
                      .bucket = tune::n_bucket(shard_n),
                      .sew = rvv::kSewBits<T>,
                      .vlen = m0.vlen_bits(),
                      .harts = pool.harts()};
  const rvv::Machine::Config scratch_cfg{
      .vlen_bits = m0.vlen_bits(),
      .model_register_pressure = m0.regfile() != nullptr,
      .use_exec_cache = false};
  return tuner.choose(key, [&](unsigned lmul) -> std::uint64_t {
    rvv::Machine scratch(scratch_cfg);
    rvv::MachineScope scope(scratch);
    svm::detail::TuneScratch<T> operands(tune::representative_n(shard_n));
    svm::detail::with_lmul(lmul, [&](auto lc) { measure(lc, operands); });
    return scratch.counter().total();
  });
}

}  // namespace detail

/// Inclusive Op-scan across the pool, in place; bit-identical to
/// svm::scan_inclusive on one hart.  The default LMUL is picked by the
/// autotuner (keyed on the pool's hart count and shard size); the combine
/// phases stay pinned at LMUL=1 so merged counts remain hart-invariant.
template <class Op, rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void scan_inclusive(HartPool& pool, std::span<T> data) {
  if constexpr (LMUL == svm::kTunedLmul) {
    const unsigned lmul = detail::tuned_collective_lmul<T>(
        pool, tune::Shape::kParScanInclusive, data.size(),
        [&](auto lc, svm::detail::TuneScratch<T>& sc) {
          svm::scan_inclusive<Op, T, decltype(lc)::value>(std::span<T>(sc.a));
        });
    svm::detail::with_lmul(lmul, [&](auto lc) {
      scan_inclusive<Op, T, decltype(lc)::value>(pool, data);
    });
    return;
  } else {
  const auto shards = make_shards(data.size(), pool.shard_size());
  if (shards.empty()) return;
  std::vector<T> totals(shards.size());

  pool.for_shards(
      shards.size(),
      [&](std::size_t s) {
        const auto sub = data.subspan(shards[s].begin, shards[s].size());
        svm::scan_inclusive<Op, T, LMUL>(sub);
        totals[s] = sub.back();  // shard total = inclusive-scan tail
        rvv::Machine::active().scalar().charge({.load = 1, .store = 1});
      },
      detail::checkpoint_shards(pool, data, shards));

  // Combine phase pinned at LMUL=1: merged-count goldens depend on it.
  pool.for_shards(
      1,
      [&](std::size_t) { svm::scan_exclusive<Op, T, 1>(std::span<T>(totals)); },
      detail::checkpoint_whole(pool, std::span<T>(totals)));

  pool.for_shards(
      shards.size(),
      [&](std::size_t s) {
        rvv::Machine::active().scalar().charge({.load = 1});  // read shard base
        svm::p_combine<Op, T, LMUL>(
            data.subspan(shards[s].begin, shards[s].size()), totals[s]);
      },
      detail::checkpoint_shards(pool, data, shards));
  }
}

/// Exclusive Op-scan across the pool, in place; bit-identical to
/// svm::scan_exclusive on one hart.
template <class Op, rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void scan_exclusive(HartPool& pool, std::span<T> data) {
  if constexpr (LMUL == svm::kTunedLmul) {
    const unsigned lmul = detail::tuned_collective_lmul<T>(
        pool, tune::Shape::kParScanExclusive, data.size(),
        [&](auto lc, svm::detail::TuneScratch<T>& sc) {
          svm::scan_exclusive<Op, T, decltype(lc)::value>(std::span<T>(sc.a));
        });
    svm::detail::with_lmul(lmul, [&](auto lc) {
      scan_exclusive<Op, T, decltype(lc)::value>(pool, data);
    });
    return;
  } else {
  const auto shards = make_shards(data.size(), pool.shard_size());
  if (shards.empty()) return;
  std::vector<T> totals(shards.size());

  pool.for_shards(
      shards.size(),
      [&](std::size_t s) {
        const auto sub = data.subspan(shards[s].begin, shards[s].size());
        // The local exclusive scan discards the shard total, so reduce first.
        totals[s] = svm::reduce<Op, T, LMUL>(std::span<const T>(sub));
        rvv::Machine::active().scalar().charge({.store = 1});
        svm::scan_exclusive<Op, T, LMUL>(sub);
      },
      detail::checkpoint_shards(pool, data, shards));

  pool.for_shards(
      1,
      [&](std::size_t) { svm::scan_exclusive<Op, T, 1>(std::span<T>(totals)); },
      detail::checkpoint_whole(pool, std::span<T>(totals)));

  pool.for_shards(
      shards.size(),
      [&](std::size_t s) {
        rvv::Machine::active().scalar().charge({.load = 1});
        svm::p_combine<Op, T, LMUL>(
            data.subspan(shards[s].begin, shards[s].size()), totals[s]);
      },
      detail::checkpoint_shards(pool, data, shards));
  }
}

/// Whole-array Op-reduction across the pool.
template <class Op, rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
[[nodiscard]] T reduce(HartPool& pool, std::span<const T> data) {
  if constexpr (LMUL == svm::kTunedLmul) {
    const unsigned lmul = detail::tuned_collective_lmul<T>(
        pool, tune::Shape::kParReduce, data.size(),
        [&](auto lc, svm::detail::TuneScratch<T>& sc) {
          static_cast<void>(svm::reduce<Op, T, decltype(lc)::value>(
              std::span<const T>(sc.a)));
        });
    return svm::detail::with_lmul(lmul, [&](auto lc) {
      return reduce<Op, T, decltype(lc)::value>(pool, data);
    });
  } else {
  const auto shards = make_shards(data.size(), pool.shard_size());
  if (shards.empty()) return Op::template identity<T>();
  std::vector<T> partials(shards.size());

  pool.for_shards(shards.size(), [&](std::size_t s) {
    partials[s] = svm::reduce<Op, T, LMUL>(std::span<const T>(
        data.subspan(shards[s].begin, shards[s].size())));
    rvv::Machine::active().scalar().charge({.store = 1});
  });

  T result = Op::template identity<T>();
  pool.for_shards(1, [&](std::size_t) {
    result = svm::reduce<Op, T, 1>(std::span<const T>(partials));
  });
  return result;
  }
}

/// The named forms, mirroring svm::.
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void plus_scan(HartPool& pool, std::span<T> data) {
  scan_inclusive<svm::PlusOp, T, LMUL>(pool, data);
}
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void plus_scan_exclusive(HartPool& pool, std::span<T> data) {
  scan_exclusive<svm::PlusOp, T, LMUL>(pool, data);
}
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void max_scan(HartPool& pool, std::span<T> data) {
  scan_inclusive<svm::MaxOp, T, LMUL>(pool, data);
}

/// Sharded stable split (two-level form of svm::split): partitions src into
/// dst with 0-flagged elements first, preserving order; returns the number
/// of 0-flagged elements.  Per-shard ranks and bucket histograms are
/// computed with svm::enumerate, the per-shard bucket bases come from
/// exclusive plus-scans of the histograms on hart 0, and each shard scatters
/// straight into its global destinations (destinations are disjoint across
/// shards because the partition is a permutation).
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
std::size_t split(HartPool& pool, std::span<const T> src, std::span<T> dst,
                  std::span<const T> flags) {
  if constexpr (LMUL == svm::kTunedLmul) {
    const unsigned lmul = detail::tuned_collective_lmul<T>(
        pool, tune::Shape::kParSplit, src.size(),
        [&](auto lc, svm::detail::TuneScratch<T>& sc) {
          static_cast<void>(svm::split<T, decltype(lc)::value>(
              std::span<const T>(sc.a), std::span<T>(sc.b),
              std::span<const T>(sc.c)));
        });
    return svm::detail::with_lmul(lmul, [&](auto lc) {
      return split<T, decltype(lc)::value>(pool, src, dst, flags);
    });
  } else {
  const std::size_t n = src.size();
  if (dst.size() < n || flags.size() < n) {
    svm::detail::invalid_input("par::split", "operand size mismatch");
  }
  // Same index-width contract as svm::split: destination indices live in T.
  if (n != 0 && n - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    svm::detail::invalid_input(
        "par::split",
        "destination indices overflow the element type; widen first");
  }
  const auto shards = make_shards(n, pool.shard_size());
  if (shards.empty()) return 0;

  std::vector<T> i_down(n);             // rank among 0-flagged, then dst index
  std::vector<T> i_up(n);               // rank among 1-flagged, then dst index
  std::vector<T> zeros(shards.size());  // per-shard 0-bucket histogram
  std::vector<T> ones(shards.size());   // per-shard 1-bucket histogram
  // Host-side per-shard counts: the returned total must not wrap in T
  // (u8 flags with n == 256 and no set bits is a legal input).
  std::vector<std::size_t> zero_counts(shards.size());

  pool.for_shards(shards.size(), [&](std::size_t s) {
    const auto fsub = flags.subspan(shards[s].begin, shards[s].size());
    const auto down = std::span<T>(i_down).subspan(shards[s].begin, shards[s].size());
    const auto up = std::span<T>(i_up).subspan(shards[s].begin, shards[s].size());
    const std::size_t zero_count = svm::enumerate<T, LMUL>(fsub, down, false);
    static_cast<void>(svm::enumerate<T, LMUL>(fsub, up, true));
    zeros[s] = static_cast<T>(zero_count);
    ones[s] = static_cast<T>(shards[s].size() - zero_count);
    zero_counts[s] = zero_count;
    rvv::Machine::active().scalar().charge({.alu = 1, .store = 2});
  });

  T total_zeros{};
  // Combine phase pinned at LMUL=1 (hart-invariant merged counts).
  pool.for_shards(
      1,
      [&](std::size_t) {
        total_zeros = svm::reduce<svm::PlusOp, T, 1>(std::span<const T>(zeros));
        svm::plus_scan_exclusive<T, 1>(std::span<T>(zeros));  // zeros -> 0-bucket base
        svm::plus_scan_exclusive<T, 1>(std::span<T>(ones));
        svm::p_add<T, 1>(std::span<T>(ones), total_zeros);    // ones -> 1-bucket base
      },
      detail::checkpoint_both(
          detail::checkpoint_whole(pool, std::span<T>(zeros)),
          detail::checkpoint_whole(pool, std::span<T>(ones))));
  // The modeled reduce above feeds the 1-bucket bases (wrapping in T is
  // benign there: a wrapped base is only selected when flags rule it out);
  // the exact return value comes from the host-side counts.
  std::size_t host_total_zeros = 0;
  for (const std::size_t c : zero_counts) host_total_zeros += c;

  // The scatter into dst is idempotent given restored down/up indices
  // (destinations are disjoint and recomputed bit-identically), so only the
  // in-place index fixups need checkpoints.
  pool.for_shards(
      shards.size(),
      [&](std::size_t s) {
        const auto fsub = flags.subspan(shards[s].begin, shards[s].size());
        const auto ssub = src.subspan(shards[s].begin, shards[s].size());
        const auto down = std::span<T>(i_down).subspan(shards[s].begin, shards[s].size());
        const auto up = std::span<T>(i_up).subspan(shards[s].begin, shards[s].size());
        rvv::Machine::active().scalar().charge({.load = 2});  // read shard bases
        svm::p_add<T, LMUL>(down, zeros[s]);
        svm::p_add<T, LMUL>(up, ones[s]);
        svm::p_select<T, LMUL>(fsub, std::span<const T>(up), down);
        svm::permute<T, LMUL>(ssub, dst, std::span<const T>(down));
      },
      detail::checkpoint_both(
          detail::checkpoint_shards(pool, std::span<T>(i_down), shards),
          detail::checkpoint_shards(pool, std::span<T>(i_up), shards)));

  return host_total_zeros;
  }
}

/// Sharded split radix sort over the low `key_bits` bits (the bounded-key
/// form the histogram/RLE applications use); key_bits == bit width of T
/// sorts arbitrary keys.  Structure of apps::split_radix_sort with every
/// pass sharded: per-shard get_flags, sharded split, buffer swap.
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void split_radix_sort(HartPool& pool, std::span<T> data, unsigned key_bits) {
  static_assert(std::is_unsigned_v<T>,
                "split radix sort orders raw key bits; use unsigned keys");
  if constexpr (LMUL == svm::kTunedLmul) {
    // One choice covers all passes: measure a representative pass body
    // (flag probe + stable split) at the shard size.
    const unsigned lmul = detail::tuned_collective_lmul<T>(
        pool, tune::Shape::kParSort, data.size(),
        [&](auto lc, svm::detail::TuneScratch<T>& sc) {
          svm::get_flags<T, decltype(lc)::value>(std::span<const T>(sc.a),
                                                 std::span<T>(sc.b), 0);
          static_cast<void>(svm::split<T, decltype(lc)::value>(
              std::span<const T>(sc.a), std::span<T>(sc.b),
              std::span<const T>(sc.c)));
        });
    svm::detail::with_lmul(lmul, [&](auto lc) {
      split_radix_sort<T, decltype(lc)::value>(pool, data, key_bits);
    });
    return;
  } else {
  const std::size_t n = data.size();
  if (n < 2 || key_bits == 0) return;
  if (key_bits > rvv::kSewBits<T>) {
    svm::detail::invalid_input("par::split_radix_sort",
                               "key_bits exceeds key width");
  }

  const auto shards = make_shards(n, pool.shard_size());
  std::vector<T> buffer(n);
  std::vector<T> flags(n);
  std::span<T> src = data;
  std::span<T> dst(buffer);
  for (unsigned bit = 0; bit < key_bits; ++bit) {
    pool.for_shards(shards.size(), [&](std::size_t s) {
      svm::get_flags<T, LMUL>(
          std::span<const T>(src.subspan(shards[s].begin, shards[s].size())),
          std::span<T>(flags).subspan(shards[s].begin, shards[s].size()), bit);
    });
    static_cast<void>(split<T, LMUL>(pool, std::span<const T>(src), dst,
                                     std::span<const T>(flags)));
    std::swap(src, dst);
    pool.for_shards(1, [&](std::size_t) {
      rvv::Machine::active().scalar().charge({.alu = 3, .branch = 1});
    });
  }
  if (key_bits % 2 != 0) {
    pool.for_shards(shards.size(), [&](std::size_t s) {
      svm::p_copy<T, LMUL>(
          std::span<const T>(src.subspan(shards[s].begin, shards[s].size())),
          data.subspan(shards[s].begin, shards[s].size()));
    });
  }
  }
}

/// Full-width sort, matching apps::split_radix_sort for types wide enough to
/// index the array.  Split computes destination indices in the element type,
/// so narrow keys on long arrays (the widening path of
/// apps::split_radix_sort) are rejected here rather than silently wrapped.
template <rvv::VectorElement T, unsigned LMUL = svm::kTunedLmul>
void split_radix_sort(HartPool& pool, std::span<T> data) {
  if (!data.empty() &&
      data.size() - 1 > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    svm::detail::invalid_input(
        "par::split_radix_sort",
        "destination indices overflow the key type; widen the keys first "
        "(see apps::split_radix_sort)");
  }
  split_radix_sort<T, LMUL>(pool, data, rvv::kSewBits<T>);
}

}  // namespace rvvsvm::par
