// The online (VLEN, LMUL, hart-count) autotuner — the default LMUL policy
// behind the svm:: and par:: kernel entry points (ROADMAP's "online
// autotuner" item; the portability gap of "Closer in the Gap", PAPERS.md).
//
// Two layers combine:
//
//   * the offline cost model (cost_model.hpp, coefficients committed as
//     src/tune/cost_model.json and loaded at start-up) predicts each
//     candidate's instruction count and prunes candidates predicted far
//     worse than the predicted best;
//
//   * an online measured-config cache keyed (kernel shape, n-bucket, SEW,
//     VLEN, hart count): the first call for a key runs the surviving
//     candidate LMULs through the emulator's instruction counters on a
//     scratch machine — count-based measurement, fully deterministic, no
//     wall-clock — records the winner, and every later call replays it.
//
// Measurements run at the bucket's representative size on a scratch
// machine, so the winner is a pure function of the key and tuning never
// charges instructions to the caller's machine.  The cache is dropped on
// machine reconfiguration exactly like the execution cache: the global
// tuner registers an rvv reconfigure hook, and every tuner additionally
// re-checks the reconfigure epoch on each lookup.
//
// Thread model: one tuner may be shared by any number of harts (all state
// is mutex-protected; the TSan CI job runs the pool suites against it).
// AutoTuner::active() resolves a thread-local TunerScope override first —
// tests and benchmarks isolate themselves with a scoped local tuner —
// and falls back to the process-wide AutoTuner::global().
//
// Opt-out: RVVSVM_AUTOTUNE=0 (or "off") in the environment disables the
// global tuner; disabled tuners answer LMUL=1, the library's previous
// static default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "tune/cost_model.hpp"
#include "tune/shape.hpp"

namespace rvvsvm::tune {

struct Key {
  Shape shape = Shape::kCount;
  unsigned bucket = 0;  ///< n_bucket(n)
  unsigned sew = 0;     ///< element width in bits
  unsigned vlen = 0;    ///< machine VLEN in bits
  unsigned harts = 1;   ///< pool harts for par:: shapes, 1 for svm::

  [[nodiscard]] bool operator==(const Key&) const noexcept = default;
};

struct KeyHash {
  [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(k.shape);
    for (const std::uint64_t field : {std::uint64_t{k.bucket}, std::uint64_t{k.sew},
                                      std::uint64_t{k.vlen}, std::uint64_t{k.harts}}) {
      h = (h ^ field) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

struct Stats {
  std::uint64_t hits = 0;          ///< lookups answered from the cache
  std::uint64_t misses = 0;        ///< lookups that triggered measurement
  std::uint64_t measurements = 0;  ///< candidate kernels actually run
  std::uint64_t model_pruned = 0;  ///< candidates skipped on the model's word
};

/// One cached winner, as svm_explore reports it.
struct Winner {
  Key key;
  unsigned lmul = 1;
  std::uint64_t measured_counts = 0;  ///< winner's counts at the bucket representative
};

class AutoTuner {
 public:
  /// Measurement callback: run the kernel at `lmul` on scratch state and
  /// return the dynamic instruction count.
  using MeasureFn = std::function<std::uint64_t(unsigned lmul)>;

  AutoTuner() = default;

  /// The tuned LMUL for `key`: cache hit replays the recorded winner; a
  /// miss measures the (model-pruned) candidates with `measure`, records
  /// the minimum-count winner (ties break toward the smaller LMUL — fewer
  /// registers held for the same count) and returns it.  Disabled tuners
  /// return 1 without touching the cache.
  [[nodiscard]] unsigned choose(const Key& key, const MeasureFn& measure);

  /// choose()'s hit path under one lock and without a measure callback:
  /// 1 when the tuner is disabled, else the cached winner for `key`
  /// (syncing the reconfigure epoch and counting the hit exactly as choose
  /// does), or 0 on a miss, which counts nothing: the caller then settles
  /// the key with choose().
  [[nodiscard]] unsigned cached(const Key& key);

  /// The recorded winner for `key`, or 0 when none is cached.
  [[nodiscard]] unsigned lookup(const Key& key) const;

  [[nodiscard]] bool enabled() const;
  void set_enabled(bool enabled);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::vector<Winner> winners() const;

  /// Replace the measured-config cache with a restored set of winners
  /// (snapshot/restore, src/snap).  Marks the cache current as of *now*:
  /// seen_epoch_ syncs to the live reconfigure epoch, so callers must
  /// import *after* the restore's epoch bump or the next lookup drops the
  /// imported winners as stale.  Stats are untouched — imported winners
  /// count as hits when they replay, same as natively measured ones.
  void import_winners(const std::vector<Winner>& winners);

  /// Drop every cached winner (the machine-reconfiguration path).
  void invalidate();

  /// The process-wide tuner: created on first use, wired to the rvv
  /// reconfigure hook, enabled unless RVVSVM_AUTOTUNE=0|off.
  [[nodiscard]] static AutoTuner& global();

  /// The calling thread's tuner: the innermost TunerScope override, else
  /// global().
  [[nodiscard]] static AutoTuner& active();

 private:
  friend class TunerScope;

  struct Entry {
    unsigned lmul = 1;
    std::uint64_t counts = 0;
  };

  /// Drop the cache when a machine reconfiguration happened since the last
  /// call.  Caller holds mu_.
  void sync_epoch_locked();

  /// cached() with mu_ already held.
  [[nodiscard]] unsigned cached_locked(const Key& key);

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::uint64_t seen_epoch_ = 0;  ///< 0 = before any sync (always stale)
  Stats stats_;
  bool enabled_ = true;
};

/// RAII thread-local tuner override (nests; restores on destruction).
class TunerScope {
 public:
  explicit TunerScope(AutoTuner& tuner) noexcept;
  ~TunerScope();

  TunerScope(const TunerScope&) = delete;
  TunerScope& operator=(const TunerScope&) = delete;

 private:
  AutoTuner* previous_;
};

}  // namespace rvvsvm::tune
