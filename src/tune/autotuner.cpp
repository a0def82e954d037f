#include "tune/autotuner.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "rvv/reconfigure.hpp"

namespace rvvsvm::tune {

namespace {

constexpr std::array<unsigned, 4> kCandidates{1, 2, 4, 8};

/// A candidate predicted worse than this factor of the predicted best is
/// not measured.  Generous on purpose: the model only has to be right
/// about blowouts (the LMUL=8 segmented-scan spill cliff), never about
/// close calls — those are always settled by measurement.
constexpr double kPruneFactor = 4.0;

thread_local AutoTuner* g_active_tuner = nullptr;

}  // namespace

unsigned AutoTuner::cached_locked(const Key& key) {
  if (!enabled_) return 1;
  sync_epoch_locked();
  const auto it = cache_.find(key);
  if (it == cache_.end()) return 0;
  ++stats_.hits;
  return it->second.lmul;
}

unsigned AutoTuner::cached(const Key& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  return cached_locked(key);
}

unsigned AutoTuner::choose(const Key& key, const MeasureFn& measure) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const unsigned lmul = cached_locked(key); lmul != 0) return lmul;
  ++stats_.misses;

  // Model-side pruning over the candidate set.
  const CostModel& model = CostModel::global();
  std::array<bool, kCandidates.size()> keep{};
  keep.fill(true);
  if (model.covers(key.shape)) {
    const std::size_t rep_n = std::size_t{1} << key.bucket;
    std::array<double, kCandidates.size()> predicted{};
    double best_predicted = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < kCandidates.size(); ++i) {
      predicted[i] = model.predict(key.shape, kCandidates[i], rep_n, key.vlen, key.sew);
      if (predicted[i] < best_predicted) best_predicted = predicted[i];
    }
    for (std::size_t i = 0; i < kCandidates.size(); ++i) {
      if (predicted[i] > kPruneFactor * best_predicted) {
        keep[i] = false;
        ++stats_.model_pruned;
      }
    }
  }

  Entry best;
  bool have_best = false;
  for (std::size_t i = 0; i < kCandidates.size(); ++i) {
    if (!keep[i]) continue;
    const std::uint64_t counts = measure(kCandidates[i]);
    ++stats_.measurements;
    // Strict less-than: ties go to the earlier (smaller) LMUL.
    if (!have_best || counts < best.counts) {
      best = Entry{.lmul = kCandidates[i], .counts = counts};
      have_best = true;
    }
  }
  if (!have_best) return 1;  // unreachable while kCandidates is non-empty
  cache_.emplace(key, best);
  return best.lmul;
}

unsigned AutoTuner::lookup(const Key& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(key);
  return it == cache_.end() ? 0 : it->second.lmul;
}

bool AutoTuner::enabled() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void AutoTuner::set_enabled(bool enabled) {
  const std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

Stats AutoTuner::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<Winner> AutoTuner::winners() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Winner> out;
  out.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    out.push_back(Winner{.key = key, .lmul = entry.lmul,
                         .measured_counts = entry.counts});
  }
  return out;
}

void AutoTuner::import_winners(const std::vector<Winner>& winners) {
  const std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  cache_.reserve(winners.size());
  for (const Winner& w : winners) {
    cache_.emplace(w.key, Entry{.lmul = w.lmul, .counts = w.measured_counts});
  }
  seen_epoch_ = rvv::reconfigure_epoch();
}

void AutoTuner::invalidate() {
  const std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  seen_epoch_ = rvv::reconfigure_epoch();
}

void AutoTuner::sync_epoch_locked() {
  const std::uint64_t epoch = rvv::reconfigure_epoch();
  if (epoch != seen_epoch_) {
    cache_.clear();
    seen_epoch_ = epoch;
  }
}

AutoTuner& AutoTuner::global() {
  // Leaked on purpose: the reconfigure hook below may fire during late
  // static destruction, after a function-local static object would be gone.
  static AutoTuner* tuner = [] {
    auto* t = new AutoTuner();
    if (const char* env = std::getenv("RVVSVM_AUTOTUNE")) {
      if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
        t->set_enabled(false);
      }
    }
    return t;
  }();
  // Registered after the tuner exists, so a reconfiguration racing this
  // first call never re-enters an in-progress initialization.
  static const bool hook_registered = [] {
    rvv::add_reconfigure_hook([]() noexcept { AutoTuner::global().invalidate(); });
    return true;
  }();
  static_cast<void>(hook_registered);
  return *tuner;
}

AutoTuner& AutoTuner::active() {
  if (g_active_tuner != nullptr) return *g_active_tuner;
  return global();
}

TunerScope::TunerScope(AutoTuner& tuner) noexcept : previous_(g_active_tuner) {
  g_active_tuner = &tuner;
}

TunerScope::~TunerScope() { g_active_tuner = previous_; }

}  // namespace rvvsvm::tune
