// The emulated RVV hart.
//
// A Machine is the repo's substitute for one Spike hart with the V extension:
// it owns the VLEN configuration, the dynamic-instruction counter, the scalar
// cost recorder, and (optionally) the vector register-file pressure model.
// All emulated instructions execute "on" a machine and report their retired
// instructions to it.
//
// The RVV intrinsic style of the paper's listings calls free functions with
// no explicit machine argument, so a thread-local *active machine* is
// maintained with the RAII MachineScope.  Tests and benchmarks create one
// machine per configuration (VLEN 128..1024, pressure model on/off) and
// activate it around each kernel.
//
// A Machine is one hart: it must be driven from one thread at a time (the
// buffer pool asserts this in debug builds), but because the active-machine
// pointer is thread-local, any number of harts may run concurrently as long
// as each thread scopes its own machine — the contract the par::HartPool
// sharded engine builds on.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>

#include "rvv/config.hpp"
#include "rvv/decode.hpp"
#include "rvv/reconfigure.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/inst_counter.hpp"
#include "sim/regfile_model.hpp"
#include "sim/scalar_model.hpp"
#include "sim/trap.hpp"

namespace rvvsvm::rvv {

class Machine {
 public:
  struct Config {
    /// Vector register length in bits.  Must be a power of two >= 64.
    /// The paper evaluates 128, 256, 512 and 1024.
    unsigned vlen_bits = 1024;
    /// Model vector register pressure (spill/reload traffic at high LMUL).
    /// Disable for the ablation that isolates pure instruction counts.
    bool model_register_pressure = true;
    /// Two-level execution cache (decoded-op dispatch + fused strip-mine
    /// traces, see rvv/decode.hpp).  Host-side only — data and modeled
    /// counts are bit-identical either way (the trace fuzz layer and the
    /// paper-table goldens pin this); disable to force the interpreted
    /// path, which is also the benchmark driver's baseline.
    bool use_exec_cache = true;
  };

  Machine() : Machine(Config{}) {}
  explicit Machine(Config cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] unsigned vlen_bits() const noexcept { return cfg_.vlen_bits; }

  /// VLMAX for an element type and length multiplier on this machine.
  template <VectorElement T>
  [[nodiscard]] std::size_t vlmax(unsigned lmul = 1) const noexcept {
    return vlmax_for(cfg_.vlen_bits, kSewBits<T>, lmul);
  }

  /// Execute a vsetvl configuration instruction: returns
  /// vl = min(avl, VLMAX) and charges one kVectorConfig instruction.
  /// An unsupported LMUL raises IllegalConfigTrap before the charge.
  /// The (SEW, LMUL) validation and VLMAX computation are memoized on the
  /// last configuration — a strip-mine loop re-executes vsetvl with the
  /// same vtype every iteration, so the steady state is two compares.
  template <VectorElement T>
  std::size_t vsetvl(std::size_t avl, unsigned lmul = 1) {
    poll_deadline("vsetvl", avl, lmul);
    if (kSewBits<T> != vset_memo_sew_ || lmul != vset_memo_lmul_) {
      check_lmul("vsetvl", avl, lmul);
      vset_memo_sew_ = kSewBits<T>;
      vset_memo_lmul_ = lmul;
      vset_memo_vlmax_ = vlmax<T>(lmul);
    }
    charge(sim::InstClass::kVectorConfig, "vsetvl", avl, lmul);
    return vl_for(avl, vset_memo_vlmax_);
  }

  /// VLMAX query via vsetvlmax — also a retired vsetvli instruction.
  template <VectorElement T>
  std::size_t vsetvlmax(unsigned lmul = 1) {
    poll_deadline("vsetvlmax", 0, lmul);
    if (kSewBits<T> != vset_memo_sew_ || lmul != vset_memo_lmul_) {
      check_lmul("vsetvlmax", 0, lmul);
      vset_memo_sew_ = kSewBits<T>;
      vset_memo_lmul_ = lmul;
      vset_memo_vlmax_ = vlmax<T>(lmul);
    }
    charge(sim::InstClass::kVectorConfig, "vsetvlmax", 0, lmul);
    return vset_memo_vlmax_;
  }

  [[nodiscard]] sim::InstCounter& counter() noexcept { return counter_; }
  [[nodiscard]] const sim::InstCounter& counter() const noexcept { return counter_; }
  [[nodiscard]] sim::ScalarRecorder& scalar() noexcept { return scalar_; }

  /// Full construction-time configuration (snapshot/restore compares it).
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Zero the dynamic-instruction counter.  Per-hart sweeps reuse machines
  /// across measurement cells and re-baseline with this instead of
  /// re-constructing (which would also drop the warmed buffer pool).
  void reset_counts() noexcept { counter_.reset(); }

  /// Register-pressure model, or nullptr when disabled.
  [[nodiscard]] sim::VRegFileModel* regfile() noexcept { return regfile_.get(); }

  /// Recycled storage for vector-register values produced on this machine.
  [[nodiscard]] sim::BufferPool& pool() noexcept { return pool_; }

  /// Pool counters (acquires, reuse rate, peak bytes) for quick eyeballing.
  [[nodiscard]] const sim::BufferPool::Stats& pool_stats() const noexcept {
    return pool_.stats();
  }

  /// Cooperative cancellation deadline, as an absolute counter total.  Every
  /// strip-mined kernel re-executes vsetvl each iteration (a steady-state
  /// fused run admits only the blocks whose vsetvl would pass, see
  /// admit_fused_run), so polling here cancels at exactly strip-mine wave
  /// boundaries: once counter().total() reaches the deadline, the next
  /// vsetvl/vsetvlmax raises DeadlineTrap *before* charging — the cancelled
  /// wave never half-charges, and counts stay exact for billing rollback.
  /// 0 disarms (the default); the steady-state cost is one compare.
  /// Transient execution state: never serialized by src/snap, cleared by the
  /// RAII guards that install it (serve::ScanService).
  void set_instruction_deadline(std::uint64_t total) noexcept {
    inst_deadline_ = total;
  }
  void clear_instruction_deadline() noexcept { inst_deadline_ = 0; }
  [[nodiscard]] std::uint64_t instruction_deadline() const noexcept {
    return inst_deadline_;
  }

  /// Install (or clear, with nullptr) the pre-charge fault hook.  The hook
  /// is consulted once per emulated instruction after operand validation and
  /// before the counter charge; it may throw to abort the instruction with
  /// no machine state change.  Owned by the caller; must outlive its use.
  void set_fault_hook(FaultHook* hook) noexcept { fault_hook_ = hook; }
  [[nodiscard]] FaultHook* fault_hook() const noexcept { return fault_hook_; }

  /// True when any fault-injection channel is live on this machine — the
  /// signal for ops to arm their (otherwise free) rollback guards.
  [[nodiscard]] bool fault_armed() const noexcept {
    return fault_hook_ != nullptr || pool_.alloc_trap_armed();
  }

  /// Build the trap context for an instruction executing on this machine.
  /// The instruction number counts the ops a per-op replay has consumed but
  /// not yet charged, so it matches the interpreter's mid-iteration.
  [[nodiscard]] TrapContext trap_context(const char* op, std::size_t vl,
                                         unsigned lmul) const noexcept {
    return TrapContext{op,
                       vl,
                       lmul,
                       cfg_.vlen_bits,
                       counter_.total() + tracer_.uncharged_prefix(),
                       current_hart()};
  }

  /// Step 2 of the instruction protocol (validate, charge, allocate,
  /// compute): give the fault hook its pre-charge trap window, then charge
  /// the counter.  Call only after every operand check has passed.
  void charge(sim::InstClass cls, const char* op, std::size_t vl,
              unsigned lmul) {
    if (fault_hook_ != nullptr) {
      fault_hook_->on_instruction(cls, trap_context(op, vl, lmul));
    }
    counter_.add(cls);
  }

  /// The two-level execution cache (decoded ops + fused traces) and its
  /// per-op engine.  ChargeGuard consults the tracer on every emulated
  /// instruction; tools read the cache's stats.
  [[nodiscard]] ExecTracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] ExecCache& exec_cache() noexcept { return exec_cache_; }
  [[nodiscard]] const ExecCache& exec_cache() const noexcept {
    return exec_cache_;
  }

  /// Drop both execution-cache levels and the vsetvl memo — the machine
  /// reconfiguration hook.  Counts never depend on cache contents (trace
  /// deltas are relative), so this is always safe; it exists so long-lived
  /// machines can bound memory and so tests can force cold-cache paths.
  /// Other layers holding machine-shape-derived state (the autotuner's
  /// measured-config cache) are notified through rvv/reconfigure.hpp.
  void invalidate_exec_caches() noexcept {
    exec_cache_.invalidate();
    vset_memo_sew_ = 0;
    vset_memo_lmul_ = 0;
    vset_memo_vlmax_ = 0;
    notify_reconfigure();
  }

  /// Iteration brackets for TraceIteration.  Engagement requires the cache
  /// enabled and no fault-injection channel armed (chaos runs interpret, so
  /// every op keeps its pre-charge trap window and rollback guard).
  [[nodiscard]] bool begin_trace_iteration(const TraceSite& site,
                                           std::size_t vl, unsigned sew_bits,
                                           unsigned lmul) {
    if (!cfg_.use_exec_cache || fault_armed()) return false;
    return tracer_.begin_iteration(exec_cache_, site, vl, sew_bits, lmul,
                                   cfg_.vlen_bits, counter_, regfile_.get());
  }
  void end_trace_iteration() { tracer_.end_iteration(); }
  void abort_trace_iteration() { tracer_.abort_iteration(); }

  /// Steady-state runs of a fused strip-mine loop (svm::detail::stripmine):
  /// once an iteration replayed fused trace `t`, the loop's next full blocks
  /// share it.  Each such block costs its vsetvl, `t`'s whole-iteration
  /// total and the loop bookkeeping `step`.  Returns how many of the next
  /// `blocks` may run before the deadline: block j (0-based) runs iff
  /// total + j * per_block < deadline, exactly when its vsetvl poll would
  /// pass, so the loop's next vsetvl traps where the interpreter's would.
  /// Divides rather than multiplies: the service arms deadlines as
  /// total + remaining, which leaves no headroom for a product.
  [[nodiscard]] std::size_t admit_fused_run(const Trace& t, std::size_t blocks,
                                            const sim::ScalarCost& step) const {
    if (inst_deadline_ == 0) return blocks;
    const std::uint64_t total = counter_.total();
    if (total >= inst_deadline_) return 0;
    const std::uint64_t per_block = 1 + t.iter_total.total() + step.total();
    const std::uint64_t fit = (inst_deadline_ - total - 1) / per_block + 1;
    return fit < blocks ? static_cast<std::size_t>(fit) : blocks;
  }

  /// Charge `blocks` admitted run blocks at once, each exactly what one
  /// fused iteration charges: one vsetvl, the trace's replay (counts,
  /// register-file traffic, per-block stats) and `step`.  No fault channel
  /// is armed while a trace replays, so the vsetvls need no hook window.
  void charge_fused_run(Trace& t, std::size_t blocks,
                        const sim::ScalarCost& step) {
    counter_.add(sim::InstClass::kVectorConfig, blocks);
    tracer_.charge_fused_run(t, blocks);
    scalar_.charge(step, blocks);
  }

  /// Call-level replay of a composite kernel whose strip-mine loops all
  /// fuse (svm::split): the machine's half of its entry conditions.  The
  /// cache is on, no fault channel is armed, the tracer is idle (so the
  /// call is not nested in a recording) and no vector value is live.  The
  /// kernel adds its own half: operand layout and input values.
  [[nodiscard]] bool call_replay_ready() const noexcept {
    return cfg_.use_exec_cache && !fault_armed() && !tracer_.engaged() &&
           (regfile_ == nullptr || regfile_->live_values() == 0);
  }

  /// The stored record of `site`'s call at n, when it may be charged now:
  /// no deadline is armed, or total + the record's total < deadline, so no
  /// vsetvl poll of the loops it stands for could trap.  nullptr otherwise;
  /// the kernel then runs its loops, which trap where the interpreter's do.
  /// Call only while call_replay_ready() holds.
  [[nodiscard]] const CallRecord* admit_call_replay(const TraceSite& site,
                                                    std::size_t n,
                                                    unsigned sew_bits,
                                                    unsigned lmul) const {
    const CallRecord* r = exec_cache_.call_record(&site, n, sew_bits, lmul);
    if (r == nullptr || inst_deadline_ == 0) return r;
    const std::uint64_t total = counter_.total();
    return total < inst_deadline_ && r->delta.total() < inst_deadline_ - total
               ? r
               : nullptr;
  }

  /// Charge an admitted call record in one step: its counts, its
  /// register-file events and its exec-cache stats.  No fault channel is
  /// armed, so its instructions need no hook window.
  void charge_call_replay(const CallRecord& r) {
    counter_.add_all(r.delta);
    if (regfile_ != nullptr) {
      regfile_->add_replayed_traffic(r.spill_events, r.reload_events);
    }
    ExecCacheStats& st = exec_cache_.stats();
    st.trace_replays += r.trace_replays;
    st.trace_fused += r.trace_fused;
    st.ops_replayed += r.ops_replayed;
    ++st.call_replays;
  }

  /// The machine's counts, register-file events and exec-cache stats at
  /// the start of a call that may become a call record.
  struct CallMark {
    sim::CountSnapshot counts;
    std::uint64_t spills = 0;
    std::uint64_t reloads = 0;
    ExecCacheStats stats;
  };
  [[nodiscard]] CallMark mark_call() const noexcept {
    CallMark mark{counter_.snapshot(), 0, 0, exec_cache_.stats()};
    if (regfile_ != nullptr) {
      mark.spills = regfile_->spill_count();
      mark.reloads = regfile_->reload_count();
    }
    return mark;
  }

  /// Store the call since `mark` as `site`'s record at n, when every one
  /// of its `iterations` strip-mine iterations replayed fused and nothing
  /// recorded, aborted or poisoned meanwhile.  The record is what the
  /// loops were observed to retire; the kernel restates none of it.  Call
  /// only for a call that met the entry conditions (call_replay_ready()
  /// and the kernel's own half) when it started.
  void record_call(const TraceSite& site, std::size_t n, unsigned sew_bits,
                   unsigned lmul, const CallMark& mark,
                   std::uint64_t iterations);

  /// The machine the intrinsic-style free functions execute on.
  /// Throws std::logic_error when no MachineScope is active.
  [[nodiscard]] static Machine& active();
  /// Null-safe variant of active().
  [[nodiscard]] static Machine* active_or_null() noexcept;

 private:
  friend class MachineScope;

  void check_lmul(const char* op, std::size_t avl, unsigned lmul) const {
    if (!valid_lmul(lmul)) {
      throw IllegalConfigTrap("vsetvl: unsupported LMUL",
                              trap_context(op, avl, lmul));
    }
  }

  void poll_deadline(const char* op, std::size_t avl, unsigned lmul) const {
    if (inst_deadline_ != 0 && counter_.total() >= inst_deadline_) {
      throw DeadlineTrap("instruction-budget deadline reached",
                         trap_context(op, avl, lmul));
    }
  }

  Config cfg_;
  sim::InstCounter counter_;
  sim::ScalarRecorder scalar_;
  sim::BufferPool pool_;
  std::unique_ptr<sim::VRegFileModel> regfile_;
  FaultHook* fault_hook_ = nullptr;
  ExecCache exec_cache_;
  ExecTracer tracer_;
  unsigned vset_memo_sew_ = 0;  // 0 = memo empty (valid SEWs are >= 8)
  unsigned vset_memo_lmul_ = 0;
  std::size_t vset_memo_vlmax_ = 0;
  std::uint64_t inst_deadline_ = 0;  // 0 = no deadline armed
};

/// RAII bracket around one strip-mine loop iteration, driving the fused-
/// trace engine (level 2 of the execution cache).  Constructed right after
/// the iteration's vsetvl with the loop body's shape key; the body's
/// emulated ops then record into or replay from the machine's trace cache.
/// finish() commits the iteration as its last statement; unwinding without
/// finish() (a trap inside the body) charges exactly the replayed prefix
/// and leaves machine state consistent.  When the tracer declines to engage
/// (cache disabled, fault injection armed, nested strip-mines, values live
/// across the iteration boundary) every op interprets exactly as before.
/// `engage = false` keeps the tracer idle the same way: the fused strip-mine
/// passes its `fusable` verdict, so a block the guard rejects interprets —
/// it neither records nor replays, and its trace keeps whatever state it had.
class TraceIteration {
 public:
  TraceIteration(Machine& m, const TraceSite& site, std::size_t vl,
                 unsigned sew_bits, unsigned lmul, bool engage = true)
      : m_(m),
        engaged_(engage && m.begin_trace_iteration(site, vl, sew_bits, lmul)) {}
  ~TraceIteration() {
    if (engaged_) m_.abort_trace_iteration();
  }
  TraceIteration(const TraceIteration&) = delete;
  TraceIteration& operator=(const TraceIteration&) = delete;

  void finish() {
    if (engaged_) {
      m_.end_trace_iteration();
      engaged_ = false;
    }
  }

  /// The stable trace covering this iteration, or nullptr.  With a trace,
  /// the whole iteration's counts (per-op charges plus the body's scalar
  /// bookkeeping) have been charged in bulk and the tracer disengaged: the
  /// caller must run a data-equivalent, non-trapping fused body instead of
  /// the op body, and must not call finish().  nullptr engages the normal
  /// record/verify or per-op replay path.
  [[nodiscard]] Trace* replay_fused() {
    if (!engaged_) return nullptr;
    Trace* t = m_.tracer().take_bulk_replay();
    if (t != nullptr) engaged_ = false;
    return t;
  }

 private:
  Machine& m_;
  bool engaged_;
};

/// Activates a machine for the current thread for the scope's lifetime.
/// Scopes nest; the previous active machine is restored on destruction.
class MachineScope {
 public:
  explicit MachineScope(Machine& machine) noexcept;
  ~MachineScope();

  MachineScope(const MachineScope&) = delete;
  MachineScope& operator=(const MachineScope&) = delete;

 private:
  Machine* previous_;
};

}  // namespace rvvsvm::rvv
