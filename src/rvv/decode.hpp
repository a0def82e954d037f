// Two-level execution cache for the emulator hot path.
//
// The paper's kernels are dominated by strip-mined loops whose bodies retire
// the same short sequence of RVV instructions every iteration.  The
// interpreted emulator re-resolves each op's configuration and re-drives the
// register-pressure model per intrinsic call; this module caches both levels
// of that work, in the spirit of a binary translator's decoded-instruction
// cache and trace cache:
//
//   Level 1 — DecodedOpCache: each (op, SEW, LMUL, masked?) combination a
//   machine executes resolves once to a DecodedOp entry holding the
//   per-configuration facts (instruction class, VLMAX bound).  Populated
//   lazily on first execution, invalidated only by
//   Machine::invalidate_exec_caches().
//
//   Level 2 — fused traces: svm::detail::stripmine brackets each loop-body
//   iteration with a TraceIteration.  The first iteration of a given
//   (call site, vl, SEW, LMUL) shape *records* its op sequence — each op's
//   DecodedOp plus the exact per-class instruction counts its charge window
//   retired (including spill/reload traffic from the register-pressure
//   model).  The next iteration with the same shape *verifies* the
//   recording; once two consecutive executions agree the trace is *stable*
//   and later iterations *replay* it: per-op counter charges, rollback
//   snapshots, and register-file events are skipped, and the whole
//   iteration's counts land as one bulk add.  Counts are bit-identical to
//   interpretation by construction — replay charges exactly what the record
//   pass measured, and the verify pass plus the self-containment
//   preconditions (no live vector values across the iteration boundary, no
//   fault injection armed) guarantee the recording reproduces.
//
// Anything that breaks the preconditions — chaos-layer fault hooks, nested
// strip-mines, bodies leaking values, op sequences diverging from the
// recording — degrades gracefully to the interpreted path, charging any
// consumed replay prefix exactly.
//
// Call records sit on top of level 2 for a composite kernel whose loops all
// fuse (svm::split): the first call of a (call site, n, SEW, LMUL) shape
// whose every loop iteration replayed fused stores what the call retired,
// and a later call of that shape charges the record in one add and runs
// one host body in place of the loops (Machine::admit_call_replay).
//
// Everything here is per-Machine (one hart), so HartPool workers get
// isolated caches for free.  No Machine dependency: the tracer operates on
// the counter and register-file model directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rvv/config.hpp"
#include "sim/inst_counter.hpp"
#include "sim/regfile_model.hpp"

namespace rvvsvm::rvv {

/// One resolved emulated operation: the facts every dynamic execution of
/// (op name, SEW, LMUL, masked?) on one machine shares.  Lives in the
/// machine's DecodedOpCache; traces hold stable pointers into it.
struct DecodedOp {
  const char* name = nullptr;     ///< op mnemonic (string-literal identity)
  sim::InstClass cls = sim::InstClass::kVectorArith;
  unsigned sew_bits = 0;          ///< element width; 0 for mask-register ops
  unsigned lmul = 1;
  bool masked = false;
  std::size_t vlmax = 0;          ///< capacity bound for this SEW/LMUL (0 for masks)
};

/// Level-1 cache key.  Op names are string literals passed from a single
/// inline function each, so pointer identity is stable within a process.
struct DecodedKey {
  const char* name;
  sim::InstClass cls;
  unsigned sew_bits;
  unsigned lmul;
  bool masked;
  [[nodiscard]] bool operator==(const DecodedKey&) const noexcept = default;
};

struct DecodedKeyHash {
  [[nodiscard]] std::size_t operator()(const DecodedKey& k) const noexcept {
    std::size_t h = reinterpret_cast<std::uintptr_t>(k.name);
    h ^= (static_cast<std::size_t>(k.cls) + 0x9e3779b97f4a7c15ull) + (h << 6) +
         (h >> 2);
    h ^= (static_cast<std::size_t>(k.sew_bits) * 131u + k.lmul * 17u +
          (k.masked ? 1u : 0u)) +
         (h << 6) + (h >> 2);
    return h;
  }
};

/// Identity tag for one strip-mine loop in the source: `stripmine` holds a
/// function-local static TraceSite per template instantiation, so each
/// kernel call site gets a distinct address.  Only the address matters.
struct TraceSite {};

enum class TraceState : std::uint8_t {
  kRecording,  ///< no recording stored yet (freshly created)
  kVerifying,  ///< one recording stored; next iteration must reproduce it
  kStable,     ///< verified; iterations replay in bulk
  kPoisoned,   ///< proven unreplayable; always interpret
};

/// One op of a recorded iteration: which decoded op ran, at what vl, and
/// exactly which per-class instruction counts its charge window retired
/// (the op's own charge plus any spill/reload/mask-move traffic the
/// register-pressure model inserted inside the window).
struct TraceEntry {
  const DecodedOp* op = nullptr;
  // Replay-hot denormalization of the op identity: `name` plus the packed
  // (cls, lmul, sew, masked) word let match() decide, with the op's vl,
  // from this (contiguous) entry instead of chasing `op`.
  const char* name = nullptr;
  std::uint64_t meta = 0;
  std::size_t vl = 0;
  sim::CountSnapshot delta;
  // Register-file *events* inside the window.  Distinct from the kVectorSpill
  // instruction counts in `delta`: one spill event charges `lmul`
  // instructions, and the regfile's spill_count()/reload_count() statistics
  // count events, so replay must mirror events — not instructions — into the
  // model.
  std::uint64_t spill_events = 0;
  std::uint64_t reload_events = 0;

  /// Verification's equality: the same decoded op (name, class, SEW, LMUL,
  /// masked) retiring the same counts and register-file events, at any vl.
  /// A fused replay charges the trace's `iter_total` and never matches ops
  /// one by one, so a body whose op vls follow the data (`pack` stores its
  /// block's popcount) promotes once two executions charge alike; a per-op
  /// replay still matches each op's vl in match() and diverges exactly.
  [[nodiscard]] bool charges_like(const TraceEntry& o) const noexcept {
    return op == o.op && delta == o.delta && spill_events == o.spill_events &&
           reload_events == o.reload_events;
  }
};

/// A replayable strip-mine iteration for one (site, shape) key.
struct Trace {
  TraceState state = TraceState::kRecording;
  std::vector<TraceEntry> entries;
  sim::CountSnapshot bulk;        ///< sum of entry deltas (set at promotion)
  /// Whole-iteration counter delta: the entry deltas PLUS the scalar
  /// bookkeeping the body charges between ops (inner-loop steps, carry
  /// loads).  A fused replay skips the body entirely, so it charges this;
  /// a per-op replay charges `bulk` and the live body re-charges the rest.
  sim::CountSnapshot iter_total;
  std::uint64_t bulk_spills = 0;  ///< sum of entry spill *events* (not insts)
  std::uint64_t bulk_reloads = 0;
};

/// Level-2 cache key: the loop's source identity plus its dynamic shape.
struct TraceKey {
  const void* site;
  std::size_t vl;
  unsigned sew_bits;
  unsigned lmul;
  [[nodiscard]] bool operator==(const TraceKey&) const noexcept = default;
};

struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& k) const noexcept {
    std::size_t h = reinterpret_cast<std::uintptr_t>(k.site);
    h ^= (k.vl + 0x9e3779b97f4a7c15ull) + (h << 6) + (h >> 2);
    h ^= (static_cast<std::size_t>(k.sew_bits) * 131u + k.lmul * 17u) +
         (h << 6) + (h >> 2);
    return h;
  }
};

/// What one call of a composite kernel retired while every iteration of
/// every one of its strip-mine loops replayed fused.  A later call of the
/// same shape charges exactly this instead of running the loops: the
/// counter delta (the loops' prologues, vsetvls, trace totals and scalar
/// bookkeeping, as observed), the register-file spill and reload *events*
/// the fused replays mirrored, and the exec-cache stats they advanced.
struct CallRecord {
  sim::CountSnapshot delta;
  std::uint64_t spill_events = 0;
  std::uint64_t reload_events = 0;
  std::uint64_t trace_replays = 0;
  std::uint64_t trace_fused = 0;
  std::uint64_t ops_replayed = 0;
};

struct ExecCacheStats {
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_misses = 0;
  std::uint64_t trace_records = 0;     ///< record / re-record passes stored
  std::uint64_t trace_promotions = 0;  ///< verify passes promoted to stable
  std::uint64_t trace_replays = 0;     ///< iterations replayed in bulk
  std::uint64_t trace_fused = 0;       ///< replays that also skipped the body
  std::uint64_t trace_aborts = 0;      ///< replays aborted on divergence
  std::uint64_t trace_poisons = 0;     ///< traces retired as unreplayable
  std::uint64_t ops_replayed = 0;      ///< per-op charges satisfied from a trace
  std::uint64_t call_replays = 0;      ///< calls charged from a call record
  std::uint64_t invalidations = 0;     ///< invalidate() calls
};

/// Both cache levels plus their stats; one per Machine.
class ExecCache {
 public:
  /// Caps keeping a pathological workload (unbounded distinct shapes, huge
  /// bodies) from growing the cache without bound.  Beyond them new work
  /// simply interprets; nothing stored is evicted.
  static constexpr std::size_t kMaxTraces = 512;
  static constexpr std::size_t kMaxTraceOps = 4096;
  static constexpr std::size_t kMaxCallRecords = 512;

  /// Level-1 lookup: resolve an op to its DecodedOp entry, creating it on
  /// first execution.  The returned pointer is stable until invalidate().
  [[nodiscard]] const DecodedOp* decode(const char* name, sim::InstClass cls,
                                        unsigned sew_bits, unsigned lmul,
                                        bool masked, std::size_t vlmax) {
    const DecodedKey key{name, cls, sew_bits, lmul, masked};
    auto [it, inserted] = decoded_.try_emplace(key);
    if (inserted) {
      it->second = DecodedOp{name, cls, sew_bits, lmul, masked, vlmax};
      ++stats_.decode_misses;
    } else {
      ++stats_.decode_hits;
    }
    return &it->second;
  }

  /// Level-2 lookup: the trace bucket for one (site, shape) key; nullptr
  /// when the table is full and the key is new.
  [[nodiscard]] Trace* trace(const void* site, std::size_t vl,
                             unsigned sew_bits, unsigned lmul) {
    // One-entry memo: a strip-mined kernel asks for the same (site, shape)
    // bucket every full-block iteration, so the common case is a handful of
    // compares instead of a hash probe.  Node-based map ⇒ pointers are
    // stable, so the memo survives inserts and dies only with invalidate().
    if (site == memo_key_.site && vl == memo_key_.vl &&
        sew_bits == memo_key_.sew_bits && lmul == memo_key_.lmul) {
      return memo_trace_;
    }
    const TraceKey key{site, vl, sew_bits, lmul};
    const auto it = traces_.find(key);
    Trace* t;
    if (it != traces_.end()) {
      t = &it->second;
    } else if (traces_.size() < kMaxTraces) {
      t = &traces_.try_emplace(key).first->second;
    } else {
      return nullptr;  // table full and the key is new; never memoized
    }
    memo_key_ = key;
    memo_trace_ = t;
    return t;
  }

  /// The call record of one (call site, n, SEW, LMUL) shape, or nullptr.
  /// Keyed like a trace, with the call's n in the vl slot.
  [[nodiscard]] const CallRecord* call_record(const void* site, std::size_t n,
                                              unsigned sew_bits,
                                              unsigned lmul) const {
    const auto it = calls_.find(TraceKey{site, n, sew_bits, lmul});
    return it != calls_.end() ? &it->second : nullptr;
  }

  /// Store a shape's call record.  A shape keeps its first record, and a
  /// full table stores nothing: later calls of a new shape run their loops.
  void store_call_record(const void* site, std::size_t n, unsigned sew_bits,
                         unsigned lmul, const CallRecord& record) {
    if (calls_.size() < kMaxCallRecords) {
      calls_.try_emplace(TraceKey{site, n, sew_bits, lmul}, record);
    }
  }

  /// Drop every decoded op, trace and call record.  Traces hold pointers
  /// into the decoded table, and a call record stands for calls whose
  /// traces are stable, so all three always clear together.  This is the
  /// single invalidation path: Machine::invalidate_exec_caches() routes
  /// reconfigure, snapshot restore, and tuner epoch bumps through here.
  void invalidate() noexcept {
    decoded_.clear();
    traces_.clear();
    calls_.clear();
    memo_key_ = TraceKey{};
    memo_trace_ = nullptr;
    ++stats_.invalidations;
  }

  [[nodiscard]] const ExecCacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ExecCacheStats& stats() noexcept { return stats_; }
  [[nodiscard]] std::size_t decoded_op_count() const noexcept {
    return decoded_.size();
  }
  [[nodiscard]] std::size_t trace_count() const noexcept {
    return traces_.size();
  }
  [[nodiscard]] std::size_t call_record_count() const noexcept {
    return calls_.size();
  }

 private:
  std::unordered_map<DecodedKey, DecodedOp, DecodedKeyHash> decoded_;
  std::unordered_map<TraceKey, Trace, TraceKeyHash> traces_;
  std::unordered_map<TraceKey, CallRecord, TraceKeyHash> calls_;
  TraceKey memo_key_{};          // last trace() key; site nullptr = empty
  Trace* memo_trace_ = nullptr;  // bucket for memo_key_
  ExecCacheStats stats_;
};

/// Per-machine trace engine: owns the in-flight iteration's mode and
/// cursor.  ChargeGuard consults it on the per-op hot path; the iteration
/// brackets (begin/end/abort) are cold and live in decode.cpp.
class ExecTracer {
 public:
  enum class Mode : std::uint8_t { kIdle, kRecord, kReplay };

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool engaged() const noexcept { return mode_ != Mode::kIdle; }
  [[nodiscard]] bool replaying() const noexcept {
    return mode_ == Mode::kReplay;
  }

  /// Engage for one strip-mine iteration.  Declines (returns false, stays
  /// idle) when already engaged (nested strip-mines feed the outer trace's
  /// recording), when vector values are live across the iteration boundary
  /// (the body would not be self-contained), when the trace is poisoned, or
  /// when the trace table is full.
  [[nodiscard]] bool begin_iteration(ExecCache& cache, const TraceSite& site,
                                     std::size_t vl, unsigned sew_bits,
                                     unsigned lmul, unsigned vlen_bits,
                                     sim::InstCounter& counter,
                                     sim::VRegFileModel* regfile);

  /// Commit the iteration: bulk-charge a completed replay, or store/verify/
  /// promote the recording.  No-op when the tracer disengaged itself
  /// mid-iteration (divergence, oversized body).
  void end_iteration();

  /// Fused-replay hook: when the engaged iteration has a stable trace,
  /// charge the whole iteration — the recorded per-op counts plus the
  /// body's inter-op scalar bookkeeping — in one add, mirror the recorded
  /// register-file traffic, and disengage.  Returns the trace exactly then;
  /// the caller must replace the op body with a data-equivalent,
  /// non-trapping fused body (see svm::detail::stripmine's fused overload).
  /// Returns nullptr while recording or verifying, in which case the caller
  /// runs the op body normally.  The trace is valid until the next
  /// invalidate(), so callers hold it no longer than their strip-mine call.
  [[nodiscard]] Trace* take_bulk_replay();

  /// Charge `blocks` more fused iterations of `t` — each exactly what one
  /// take_bulk_replay() charges, stats included — for a steady-state run
  /// of full blocks that follows a fused iteration (Machine::
  /// charge_fused_run adds the run's vsetvl and loop bookkeeping).  Uses
  /// the counter, register-file model and cache the preceding
  /// begin_iteration() bound, which are this machine's own.
  void charge_fused_run(Trace& t, std::uint64_t blocks);

  /// Instructions the in-flight replay has consumed but not yet charged:
  /// they land with the iteration's bulk charge, so until then the counter
  /// reads short by this much.  0 when not replaying.  Trap contexts add it
  /// so a trap mid-replay reports the interpreter's instruction number.
  /// Cold (walks the consumed prefix); out of line in decode.cpp.
  [[nodiscard]] std::uint64_t uncharged_prefix() const noexcept;

  /// The iteration unwound without committing (a trap inside the body).
  /// A replay charges exactly its consumed prefix — operand validation
  /// precedes every charge, so the prefix is precisely the ops that
  /// retired — and the trace stays stable (the trap was the data's fault).
  /// A recording is discarded.
  void abort_iteration();

  /// Replay hook (hot): true when the next trace entry matches this op,
  /// which is thereby consumed — its counts land with the iteration's bulk
  /// charge.  On divergence the consumed prefix is charged, the trace
  /// poisoned, and the tracer disengages; the caller interprets the op.
  [[nodiscard]] bool match(const char* name, sim::InstClass cls,
                           std::size_t vl, unsigned lmul, unsigned sew_bits,
                           bool masked) {
    if (cursor_ < trace_->entries.size()) {
      const TraceEntry& e = trace_->entries[cursor_];
      if (e.name == name && e.vl == vl &&
          e.meta == pack_meta(cls, lmul, sew_bits, masked)) {
        ++cursor_;  // ops_replayed is settled in bulk when the iteration ends
        return true;
      }
    }
    diverge();
    return false;
  }

  /// Record hook: open one op's charge window, resolving its DecodedOp
  /// through level 1.  Returns false — after poisoning the trace and
  /// disengaging — when the body exceeds kMaxTraceOps.  Out of line
  /// (decode.cpp): a trace records at most twice per shape, so keeping this
  /// body out of ChargeGuard's constructor lets the replay fast path inline.
  [[nodiscard]] bool record_begin(const char* name, sim::InstClass cls,
                                  std::size_t vl, unsigned lmul,
                                  unsigned sew_bits, bool masked);

  /// Close the op's charge window with the counts it retired.
  void record_commit() {
    TraceEntry& e = scratch_.back();
    e.delta = counter_->snapshot() - op_snap_;
    if (regfile_ != nullptr) {
      e.spill_events = regfile_->spill_count() - rf_spill_snap_;
      e.reload_events = regfile_->reload_count() - rf_reload_snap_;
    }
  }

  /// The op aborted after its charge (injected fault): drop its entry.
  void record_abandon() { scratch_.pop_back(); }

 private:
  /// Pack the op's configuration into one word so match() is three
  /// compares.  cls < 256, lmul <= 8, sew_bits <= 64, so the fields cannot
  /// collide.
  [[nodiscard]] static std::uint64_t pack_meta(sim::InstClass cls,
                                               unsigned lmul, unsigned sew_bits,
                                               bool masked) noexcept {
    return (static_cast<std::uint64_t>(cls) << 12) |
           (static_cast<std::uint64_t>(lmul) << 8) |
           (static_cast<std::uint64_t>(sew_bits) << 1) |
           static_cast<std::uint64_t>(masked);
  }

  void poison();         // retire the trace as unreplayable; disengage
  void diverge();        // charge prefix, poison, disengage (replay only)
  void charge_prefix();  // land counts of consumed entries [0, cursor_)
  void finish_record();  // store / verify / promote the scratch recording

  Mode mode_ = Mode::kIdle;
  ExecCache* cache_ = nullptr;
  Trace* trace_ = nullptr;
  sim::InstCounter* counter_ = nullptr;
  sim::VRegFileModel* regfile_ = nullptr;
  unsigned vlen_bits_ = 0;
  std::size_t cursor_ = 0;             // replay: next entry to consume
  std::vector<TraceEntry> scratch_;    // record: the in-progress pass (reused)
  sim::CountSnapshot iter_snap_;       // record: counter at iteration start
  sim::CountSnapshot op_snap_;         // record: counter at window open
  std::uint64_t rf_spill_snap_ = 0;    // record: regfile events at window open
  std::uint64_t rf_reload_snap_ = 0;
};

}  // namespace rvvsvm::rvv
