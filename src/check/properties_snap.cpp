// Differential properties for the snapshot layer (svm_fuzz --layer snap).
//
// The contract under test is snapshot.hpp's warm-start claim:
//
//   * roundtrip — a machine serialized and restored into a fresh machine of
//     the same configuration is bit-identical in data AND counts: the
//     restored counter equals the saved one class-for-class, the tuner cache
//     round-trips winner-for-winner, and re-running the same kernel on both
//     machines produces identical data and identical count deltas;
//
//   * checkpoint_rollback — the chaos bracket: checkpoint, run a golden
//     pass, roll back, run again under an injected fault, roll back, and the
//     rerun reproduces the golden pass exactly — no golden-script replay,
//     just the checkpoint;
//
//   * reject_mismatch — a restore into a machine with a different VLEN or
//     pressure mode, and a blob with a corrupted version, a truncation at
//     any boundary, or a single flipped bit, all raise SnapshotTrap and
//     leave the target machine's counts untouched.
//
// Like every oracle property these are total over arbitrary Cases and pure
// in their Rng; one (seed, iteration) pair replays a failure exactly.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/fault_injection.hpp"
#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "snap/snapshot.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

namespace rvvsvm::check {

namespace {

using detail::flatten;
using detail::norm_vlen;
using detail::to_bits;
using detail::to_elems;

constexpr std::size_t kMaxN = 1024;

Case gen_snap(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  const std::size_t vlmax = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
  c.vl = detail::gen_size(rng, vlmax, kMaxN);
  c.offset = rng.next();  // corruption position / fault threshold material
  c.scalar = rng.next();  // kernel selector
  detail::gen_values(rng, c.a, c.vl);
  detail::gen_mask(rng, c.b, c.vl);
  return c;
}

[[nodiscard]] std::string counts_diff(const sim::CountSnapshot& got,
                                      const sim::CountSnapshot& want) {
  for (std::size_t i = 0; i < sim::kNumInstClasses; ++i) {
    const auto cls = static_cast<sim::InstClass>(i);
    if (got.count(cls) != want.count(cls)) {
      return std::string(sim::to_string(cls)) + " is " +
             std::to_string(got.count(cls)) + ", expected " +
             std::to_string(want.count(cls));
    }
  }
  return "";
}

/// One case-selected kernel over the case's operands, run on the active
/// machine; results flatten into `obs`.  Covers the kernel shapes a warm
/// snapshot carries: strip-mined scans (trace material), segmented scans,
/// reductions, and pack (mask/permute material).
template <class T, unsigned L>
struct Workload {
  std::vector<T> data;
  std::vector<T> flags;
  unsigned which;

  Workload(const Case& c, std::size_t n)
      : data(to_elems<T>(c.a, n)), flags(n, T{0}), which(c.scalar % 4u) {
    const auto bits = to_bits(c.b, n);
    for (std::size_t i = 0; i < n; ++i) flags[i] = static_cast<T>(bits[i]);
    if (!flags.empty()) flags[0] = T{1};  // segmented kernels want a head
  }

  void run(std::vector<std::uint64_t>& obs) const {
    switch (which) {
      case 0: {
        std::vector<T> buf(data);
        svm::plus_scan<T, L>(std::span<T>(buf));
        flatten(obs, buf);
        break;
      }
      case 1: {
        std::vector<T> buf(data);
        svm::seg_plus_scan<T, L>(std::span<T>(buf),
                                 std::span<const T>(flags));
        flatten(obs, buf);
        break;
      }
      case 2:
        flatten(obs, static_cast<std::uint64_t>(
                         svm::reduce<svm::PlusOp, T, L>(
                             std::span<const T>(data))));
        break;
      default: {
        std::vector<T> dst(data.size(), T{0});
        const std::size_t kept = svm::pack<T, L>(std::span<const T>(data),
                                                 std::span<T>(dst),
                                                 std::span<const T>(flags));
        dst.resize(kept);
        flatten(obs, dst);
        break;
      }
    }
  }
};

[[nodiscard]] rvv::Machine::Config machine_config(const Case& c) {
  return rvv::Machine::Config{.vlen_bits = norm_vlen(c.vlen),
                              .model_register_pressure = (c.offset & 1) != 0};
}

std::string check_roundtrip(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const std::size_t n = c.vl % (kMaxN + 1);
    const rvv::Machine::Config cfg = machine_config(c);
    const Workload<T, L> work(c, n);

    // Warm the original: two passes so strip-mine traces reach kStable, and
    // one tuned call so the tuner cache has a winner to round-trip.
    tune::AutoTuner tuner;
    rvv::Machine original(cfg);
    std::vector<std::uint64_t> scratch;
    {
      tune::TunerScope ts(tuner);
      rvv::MachineScope scope(original);
      work.run(scratch);
      scratch.clear();
      work.run(scratch);
      if (n != 0) {
        std::vector<T> buf(work.data);
        svm::plus_scan<T>(std::span<T>(buf));  // tuned call (measures)
      }
    }

    const snap::Blob blob = snap::save_machine(original, &tuner);

    tune::AutoTuner restored_tuner;
    rvv::Machine restored(cfg);
    snap::restore_machine(restored, blob, &restored_tuner);

    // Restored ledger equals the saved one class-for-class.
    if (const std::string d = counts_diff(restored.counter().snapshot(),
                                          original.counter().snapshot());
        !d.empty()) {
      return "snap.roundtrip: restored counter diverges: " + d;
    }
    // Tuner cache round-trips winner-for-winner.
    const std::vector<tune::Winner> w0 = tuner.winners();
    for (const tune::Winner& w : w0) {
      if (restored_tuner.lookup(w.key) != w.lmul) {
        return "snap.roundtrip: tuner winner lost in the round trip";
      }
    }
    if (restored_tuner.winners().size() != w0.size()) {
      return "snap.roundtrip: tuner cache size changed in the round trip";
    }

    // Re-running the same kernel on both machines is bit-identical in data
    // and in count deltas (the restored caches may replay, but replay is
    // count-exact by construction).
    std::vector<std::uint64_t> obs_original;
    std::vector<std::uint64_t> obs_restored;
    sim::CountSnapshot delta_original;
    sim::CountSnapshot delta_restored;
    {
      rvv::MachineScope scope(original);
      const sim::CountSnapshot pre = original.counter().snapshot();
      work.run(obs_original);
      delta_original = original.counter().snapshot() - pre;
    }
    {
      rvv::MachineScope scope(restored);
      const sim::CountSnapshot pre = restored.counter().snapshot();
      work.run(obs_restored);
      delta_restored = restored.counter().snapshot() - pre;
    }
    if (obs_original != obs_restored) {
      return "snap.roundtrip: rerun data diverges between original and restored";
    }
    if (const std::string d = counts_diff(delta_restored, delta_original);
        !d.empty()) {
      return "snap.roundtrip: rerun counts diverge: " + d;
    }
    return "";
  });
}

std::string check_checkpoint_rollback(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    // Force a non-empty problem so the fault has instructions to land on.
    const std::size_t n = (c.vl % kMaxN) + 1;
    const rvv::Machine::Config cfg = machine_config(c);
    const Workload<T, L> work(c, n);

    rvv::Machine machine(cfg);
    std::vector<std::uint64_t> scratch;
    {
      rvv::MachineScope scope(machine);
      work.run(scratch);  // warm before checkpointing
    }

    snap::Checkpoint checkpoint(machine);

    // Golden pass from the checkpointed state.
    std::vector<std::uint64_t> golden;
    sim::CountSnapshot golden_delta;
    {
      rvv::MachineScope scope(machine);
      const sim::CountSnapshot pre = machine.counter().snapshot();
      work.run(golden);
      golden_delta = machine.counter().snapshot() - pre;
    }

    // Back to the checkpoint, then the same pass under an injected fault.
    checkpoint.rollback();
    FaultInjector injector(FaultInjector::Plan{
        .trap_at_instruction = 1 + (c.offset % 64),
        .crash = (c.offset & 4) != 0});
    {
      rvv::MachineScope scope(machine);
      machine.set_fault_hook(&injector);
      std::vector<std::uint64_t> doomed;
      try {
        work.run(doomed);
      } catch (const Trap&) {
      } catch (const HartCrash&) {
      }
      machine.set_fault_hook(nullptr);
    }

    // Roll back and rerun: the chaos excursion must be invisible.
    checkpoint.rollback();
    std::vector<std::uint64_t> rerun;
    sim::CountSnapshot rerun_delta;
    {
      rvv::MachineScope scope(machine);
      const sim::CountSnapshot pre = machine.counter().snapshot();
      work.run(rerun);
      rerun_delta = machine.counter().snapshot() - pre;
    }
    if (rerun != golden) {
      return "snap.checkpoint_rollback: rerun data diverges from the golden pass";
    }
    if (const std::string d = counts_diff(rerun_delta, golden_delta);
        !d.empty()) {
      return "snap.checkpoint_rollback: rerun counts diverge: " + d;
    }
    return "";
  });
}

std::string check_reject_mismatch(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const std::size_t n = (c.vl % kMaxN) + 1;
    const rvv::Machine::Config cfg = machine_config(c);
    const Workload<T, L> work(c, n);

    rvv::Machine original(cfg);
    std::vector<std::uint64_t> scratch;
    {
      rvv::MachineScope scope(original);
      work.run(scratch);
    }
    const snap::Blob blob = snap::save_machine(original);

    // A restore attempt that must fail, leaving the target's counts as they
    // were (the target is pre-warmed so "untouched" is observable).
    const auto must_reject = [&](const rvv::Machine::Config& target_cfg,
                                 const snap::Blob& candidate,
                                 const char* what) -> std::string {
      rvv::Machine target(target_cfg);
      {
        rvv::MachineScope scope(target);
        std::vector<std::uint64_t> warm;
        work.run(warm);
      }
      const sim::CountSnapshot before = target.counter().snapshot();
      try {
        snap::restore_machine(target, candidate);
      } catch (const SnapshotTrap&) {
        if (const std::string d =
                counts_diff(target.counter().snapshot(), before);
            !d.empty()) {
          return std::string("snap.reject_mismatch: ") + what +
                 " mutated the target before failing: " + d;
        }
        return "";
      }
      return std::string("snap.reject_mismatch: ") + what +
             " restore was accepted";
    };

    // (a) VLEN mismatch.
    rvv::Machine::Config other = cfg;
    other.vlen_bits = cfg.vlen_bits == 128 ? 256 : cfg.vlen_bits / 2;
    if (std::string e = must_reject(other, blob, "VLEN-mismatched");
        !e.empty()) {
      return e;
    }
    // (b) pressure-mode mismatch.
    other = cfg;
    other.model_register_pressure = !cfg.model_register_pressure;
    if (std::string e = must_reject(other, blob, "pressure-mismatched");
        !e.empty()) {
      return e;
    }
    // (c) corrupted version field (byte 8 is the version's low byte).
    snap::Blob bad = blob;
    bad[8] ^= 0xFF;
    if (std::string e = must_reject(cfg, bad, "version-corrupted");
        !e.empty()) {
      return e;
    }
    // (d) truncation at a seed-chosen boundary.
    snap::Blob cut = blob;
    cut.resize(c.offset % blob.size());
    if (std::string e = must_reject(cfg, cut, "truncated"); !e.empty()) {
      return e;
    }
    // (e) one seed-chosen flipped bit anywhere in the blob: the header CRC,
    // the section CRCs, and the strict structural checks must catch every
    // single-bit corruption.
    snap::Blob flipped = blob;
    const std::size_t bit = c.scalar % (blob.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (std::string e = must_reject(cfg, flipped, "bit-flipped"); !e.empty()) {
      return e;
    }
    return "";
  });
}

}  // namespace

std::vector<Property> make_snap_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name, std::function<std::string(const Case&)> check) {
    props.push_back(Property{name, "snap", gen_snap, std::move(check)});
  };
  add("snap.roundtrip", check_roundtrip);
  add("snap.checkpoint_rollback", check_checkpoint_rollback);
  add("snap.reject_mismatch", check_reject_mismatch);
  return props;
}

}  // namespace rvvsvm::check
