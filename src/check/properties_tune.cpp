// Differential properties for the autotuner layer (svm_fuzz --layer tune).
//
// The contract under test is the one tuning.hpp claims makes tuning safe by
// construction:
//
//   * identity — a tuned call produces bit-identical DATA to the same kernel
//     pinned at any explicit LMUL, and bit-identical data AND instruction
//     counts to the kernel pinned at the tuner's recorded winner (tuning
//     resolves to a plain pinned call; it adds no emulated instructions);
//
//   * invalidation — a machine reconfiguration (the execution-cache
//     invalidation path) drops the measured-config cache, so the next call
//     re-measures instead of replaying a winner tuned for the old machine;
//
//   * determinism — measurement is count-based on scratch state, so two
//     fresh tuners given the same (shape, n, SEW, VLEN) pick the same winner
//     with the same measured counts, independent of call history.
//
// Every check isolates itself with a fresh local AutoTuner under a
// TunerScope so the process-global tuner's cache never leaks into (or out
// of) a case.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"
#include "tune/shape.hpp"

namespace rvvsvm::check {

namespace {

using detail::flatten;
using detail::norm_vlen;
using detail::to_elems;

// Measurement runs up to four candidates per miss, so the cap stays a notch
// below the svm layer's.
constexpr std::size_t kMaxN = 1024;

Case gen_tune(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  const std::size_t vlmax = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
  c.vl = detail::gen_size(rng, vlmax, kMaxN);
  detail::gen_values(rng, c.a, c.vl);
  detail::gen_mask(rng, c.b, c.vl);
  c.scalar = rng.next();
  return c;
}

/// The key a tuned svm:: call with these parameters files itself under.
template <class T>
[[nodiscard]] tune::Key svm_key(tune::Shape shape, std::size_t n, unsigned vlen) {
  return tune::Key{.shape = shape,
                   .bucket = tune::n_bucket(n),
                   .sew = rvv::kSewBits<T>,
                   .vlen = vlen,
                   .harts = 1};
}

/// Register-pressure settings to run a tuned-vs-pinned comparison under.
constexpr bool kPressureModes[] = {true, false};

/// Tuned-vs-pinned identity for one kernel family: runs the tuned call,
/// reads back the recorded winner, and requires (a) the winner re-run pinned
/// matches in data and counts, (b) an LMUL=1 pinned run matches in data, and
/// (c) an immediate tuned re-run replays the winner from cache (a hit, with
/// identical data and counts again).
template <class T, class Tuned, class Pinned>
[[nodiscard]] std::string identity_one(const char* name, unsigned vlen,
                                       tune::Shape shape, std::size_t n,
                                       Tuned&& tuned, Pinned&& pinned) {
  for (const bool pressure : kPressureModes) {
    const rvv::Machine::Config cfg{.vlen_bits = vlen,
                                   .model_register_pressure = pressure};
    tune::AutoTuner tuner;
    tune::TunerScope ts(tuner);

    std::vector<std::uint64_t> tuned_data;
    std::uint64_t tuned_counts = 0;
    {
      rvv::Machine machine(cfg);
      rvv::MachineScope scope(machine);
      tuned(tuned_data);
      tuned_counts = machine.counter().total();
    }

    const unsigned winner = tuner.lookup(svm_key<T>(shape, n, vlen));
    if (n == 0) {
      // Zero-length calls bypass the tuner entirely.
      if (winner != 0) return std::string(name) + ": n==0 call populated the cache";
      continue;
    }
    if (winner == 0) return std::string(name) + ": tuned call cached no winner";

    std::vector<std::uint64_t> pinned_data;
    std::uint64_t pinned_counts = 0;
    {
      rvv::Machine machine(cfg);
      rvv::MachineScope scope(machine);
      pinned(winner, pinned_data);
      pinned_counts = machine.counter().total();
    }
    if (tuned_data != pinned_data) {
      return std::string(name) + ": tuned data diverges from pinned winner LMUL=" +
             std::to_string(winner);
    }
    if (tuned_counts != pinned_counts) {
      return std::string(name) + ": tuned counts " + std::to_string(tuned_counts) +
             " != pinned winner counts " + std::to_string(pinned_counts);
    }

    std::vector<std::uint64_t> l1_data;
    {
      rvv::Machine machine(cfg);
      rvv::MachineScope scope(machine);
      pinned(1, l1_data);
    }
    if (tuned_data != l1_data) {
      return std::string(name) + ": tuned data diverges from pinned LMUL=1";
    }

    const std::uint64_t hits_before = tuner.stats().hits;
    std::vector<std::uint64_t> replay_data;
    std::uint64_t replay_counts = 0;
    {
      rvv::Machine machine(cfg);
      rvv::MachineScope scope(machine);
      tuned(replay_data);
      replay_counts = machine.counter().total();
    }
    if (tuner.stats().hits != hits_before + 1) {
      return std::string(name) + ": tuned re-run missed the cache";
    }
    if (replay_data != tuned_data || replay_counts != tuned_counts) {
      return std::string(name) + ": cache replay diverges from the first tuned run";
    }
  }
  return "";
}

std::string check_identity(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> a = to_elems<T>(c.a, n);
    std::vector<T> flags(n);
    {
      const auto bits = detail::to_bits(c.b, n);
      for (std::size_t i = 0; i < n; ++i) flags[i] = static_cast<T>(bits[i]);
    }
    const T x = static_cast<T>(c.scalar);

    std::string err;
    auto all = [&](std::string e) { if (err.empty()) err = std::move(e); };

    all(identity_one<T>(
        "tune.plus_scan", vlen, tune::Shape::kScanInclusive, n,
        [&](std::vector<std::uint64_t>& o) {
          std::vector<T> buf(a);
          svm::plus_scan<T>(std::span<T>(buf));
          flatten(o, buf);
        },
        [&](unsigned lmul, std::vector<std::uint64_t>& o) {
          std::vector<T> buf(a);
          svm::detail::with_lmul(lmul, [&](auto lc) {
            svm::plus_scan<T, decltype(lc)::value>(std::span<T>(buf));
          });
          flatten(o, buf);
        }));

    all(identity_one<T>(
        "tune.p_add", vlen, tune::Shape::kElementwiseVx, n,
        [&](std::vector<std::uint64_t>& o) {
          std::vector<T> buf(a);
          svm::p_add<T>(std::span<T>(buf), x);
          flatten(o, buf);
        },
        [&](unsigned lmul, std::vector<std::uint64_t>& o) {
          std::vector<T> buf(a);
          svm::detail::with_lmul(lmul, [&](auto lc) {
            svm::p_add<T, decltype(lc)::value>(std::span<T>(buf), x);
          });
          flatten(o, buf);
        }));

    all(identity_one<T>(
        "tune.reduce", vlen, tune::Shape::kReduce, n,
        [&](std::vector<std::uint64_t>& o) {
          flatten(o, static_cast<std::uint64_t>(
                         svm::reduce<svm::PlusOp, T>(std::span<const T>(a))));
        },
        [&](unsigned lmul, std::vector<std::uint64_t>& o) {
          svm::detail::with_lmul(lmul, [&](auto lc) {
            flatten(o, static_cast<std::uint64_t>(
                           svm::reduce<svm::PlusOp, T, decltype(lc)::value>(
                               std::span<const T>(a))));
          });
        }));

    all(identity_one<T>(
        "tune.enumerate", vlen, tune::Shape::kEnumerate, n,
        [&](std::vector<std::uint64_t>& o) {
          std::vector<T> dst(n);
          const std::size_t total =
              svm::enumerate<T>(std::span<const T>(flags), std::span<T>(dst), true);
          flatten(o, dst);
          flatten(o, static_cast<std::uint64_t>(total));
        },
        [&](unsigned lmul, std::vector<std::uint64_t>& o) {
          std::vector<T> dst(n);
          svm::detail::with_lmul(lmul, [&](auto lc) {
            const std::size_t total = svm::enumerate<T, decltype(lc)::value>(
                std::span<const T>(flags), std::span<T>(dst), true);
            flatten(o, dst);
            flatten(o, static_cast<std::uint64_t>(total));
          });
        }));

    return err;
  });
}

std::string check_invalidate(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    // Force a non-empty problem: zero-length calls never reach the cache.
    const std::size_t n = (c.vl % kMaxN) + 1;
    const std::vector<T> a = to_elems<T>(c.a, n);

    rvv::Machine machine({.vlen_bits = vlen});
    rvv::MachineScope scope(machine);
    tune::AutoTuner tuner;
    tune::TunerScope ts(tuner);

    auto run = [&] {
      std::vector<T> buf(a);
      svm::plus_scan<T>(std::span<T>(buf));
    };

    run();
    if (tuner.stats().misses != 1) return "tune.invalidate: first call was not a miss";
    run();
    if (tuner.stats().hits != 1) return "tune.invalidate: second call was not a hit";

    // The reconfiguration path: dropping the execution caches bumps the
    // reconfigure epoch, and every tuner re-checks it on lookup.
    machine.invalidate_exec_caches();
    run();
    const tune::Stats s = tuner.stats();
    if (s.misses != 2) {
      return "tune.invalidate: call after reconfigure replayed a stale winner";
    }
    run();
    if (tuner.stats().hits != s.hits + 1) {
      return "tune.invalidate: cache did not repopulate after reconfigure";
    }
    return "";
  });
}

std::string check_determinism(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = (c.vl % kMaxN) + 1;
    const std::vector<T> a = to_elems<T>(c.a, n);

    rvv::Machine machine({.vlen_bits = vlen});
    rvv::MachineScope scope(machine);

    // Two fresh tuners, same machine shape and call: the winner is a pure
    // function of the key, so both caches must end up identical.
    tune::Winner first{};
    tune::Winner second{};
    for (int round = 0; round < 2; ++round) {
      tune::AutoTuner tuner;
      tune::TunerScope ts(tuner);
      std::vector<T> buf(a);
      svm::plus_scan<T>(std::span<T>(buf));
      const std::vector<tune::Winner> winners = tuner.winners();
      if (winners.size() != 1) {
        return "tune.determinism: expected exactly one cached winner";
      }
      (round == 0 ? first : second) = winners[0];
    }
    if (!(first.key == second.key) || first.lmul != second.lmul ||
        first.measured_counts != second.measured_counts) {
      return "tune.determinism: fresh tuners disagree (LMUL " +
             std::to_string(first.lmul) + " counts " +
             std::to_string(first.measured_counts) + " vs LMUL " +
             std::to_string(second.lmul) + " counts " +
             std::to_string(second.measured_counts) + ")";
    }
    return "";
  });
}

}  // namespace

std::vector<Property> make_tune_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name, std::function<std::string(const Case&)> check) {
    props.push_back(Property{name, "tune", gen_tune, std::move(check)});
  };
  add("tune.identity", check_identity);
  add("tune.invalidate", check_invalidate);
  add("tune.determinism", check_determinism);
  return props;
}

}  // namespace rvvsvm::check
