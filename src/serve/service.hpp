// ScanService: the long-lived multi-tenant front-end over the hart pool.
//
// This is where the repo's substrate composes into a daemon: a warm
// par::HartPool (one emulated hart per worker, fused-trace caches hot), a
// bounded MPSC admission queue, and a batching scheduler that turns queued
// requests into pool epochs:
//
//   submit ──► admission (shape, queue depth, tenant budget)
//          ──► queue ──► scheduler wave:
//                 small same-kind requests  -> segmented-envelope batch
//                                              (one fork-join epoch, one
//                                              strip-mined seg pass/group)
//                 large/histogram/sort/     -> individual epoch (request i
//                 chaos/odd                    is shard i: up to `harts`
//                                              requests side by side, and
//                                              failure isolation maps 1:1
//                                              to requests)
//
// Billing: every execution path brackets exact committed counts (HartPool
// rolls failed attempts back before the service reads its brackets), so the
// sum of all tenant bills equals the pool's merged-count delta exactly —
// the invariant the serve fuzz layer pins, chaos crashes included.
//
// Failure isolation: a faulting request gets an error response with a
// stable code (serve/error.hpp) while RecoveryPolicy keeps the pool and
// every other in-flight request alive.  An envelope group whose pass fails
// is re-executed member-by-member on the individual path, so one poisoned
// request cannot fail its batch peers.
//
// Threading: producers call submit()/call() from any thread; exactly one
// consumer runs waves — a dedicated scheduler thread in background mode, or
// the caller's thread via drain() in foreground mode (deterministic, used
// by the fuzz layer).  The pool is only ever touched by the consumer.
//
// Overload containment (ISSUE 10, see DESIGN.md §9): the service keeps a
// *virtual clock* — (merged + abandoned) pool instructions divided by hart
// count — and requests may carry a deadline as a budget of that clock.
// Admission predicts cost with tune::CostModel and rejects unmeetable
// deadlines immediately; queued requests whose deadline passes are shed
// unexecuted; in-flight requests are cancelled cooperatively at the next
// strip-mine wave boundary (rvv::Machine instruction deadline ->
// DeadlineTrap -> exact rollback).  The queue sheds lowest-priority-first
// at saturation, and per-tenant circuit breakers (serve/breaker.hpp)
// quarantine tenants whose requests keep faulting or missing deadlines.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "par/hart_pool.hpp"
#include "serve/batcher.hpp"
#include "serve/billing.hpp"
#include "serve/breaker.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace rvvsvm::serve {

class ScanService {
 public:
  struct Config {
    /// Pool shape (see par::HartPool::Config; 0 harts selects the hardware
    /// concurrency).
    unsigned harts = 4;
    rvv::Machine::Config machine{};
    /// Self-healing policy for request execution.  The default retries once
    /// and falls back inline, so transient faults are absorbed invisibly.
    par::RecoveryPolicy recovery{.max_retries = 1, .fallback_inline = true};
    /// Admission bound: submit rejects with kQueueFull beyond this depth.
    std::size_t queue_capacity = 1024;
    /// Requests below this element count coalesce; at or above it each runs
    /// alone on one hart, on the individual path.
    std::size_t coalesce_threshold = 1u << 12;
    /// Most requests one scheduler wave drains from the queue.
    std::size_t max_batch = 128;
    /// true: a dedicated scheduler thread pumps the queue (the daemon
    /// shape).  false: the caller pumps via drain() — single-threaded and
    /// deterministic, which is what the fuzz layer and unit tests use.
    bool background = true;
    /// Non-empty: cold-start from this pool snapshot (snap::restore_pool
    /// into the freshly built pool, tuner cache included) before the
    /// scheduler starts.  SnapshotTrap propagates out of the constructor on
    /// any mismatch or corruption — a daemon must not come up half-warm.
    std::string restore_snapshot;
    /// Non-zero: checkpoint the pool to checkpoint_path every N scheduler
    /// waves (the cadence knob).  Checkpoints happen between waves, when
    /// every hart is quiescent; a failed checkpoint write is counted in
    /// Stats::checkpoint_failures and service continues.
    std::size_t checkpoint_every_waves = 0;
    std::string checkpoint_path;
    /// Deadline feasibility gate: when true, a deadline-bearing request is
    /// rejected at admission (kDeadlineUnmeetable) if its predicted cost
    /// plus the per-hart share of the predicted queue backlog exceeds its
    /// budget.  Off, deadlines are still enforced by shedding and
    /// cooperative cancellation — the knob exists so tests can force the
    /// mid-execution cancellation path deterministically.
    bool admission_control = true;
    /// Per-tenant circuit breakers; threshold 0 (the default) disables
    /// them.  See serve/breaker.hpp for the state machine.
    BreakerConfig breaker{};
  };

  /// Monotonic service counters (all guarded; read with stats()).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_budget = 0;
    std::uint64_t rejected_malformed = 0;
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t completed = 0;  ///< responses with error == kOk
    std::uint64_t failed = 0;     ///< responses with an execution error
    std::uint64_t waves = 0;
    std::uint64_t coalesced_batches = 0;
    std::uint64_t coalesced_requests = 0;
    std::uint64_t individual_requests = 0;
    /// Always 0: large requests run on the individual path.  Kept because
    /// svm_bench's serve.large_frac still reads it.
    std::uint64_t large_requests = 0;
    std::uint64_t checkpoints = 0;          ///< pool snapshots written
    std::uint64_t checkpoint_failures = 0;  ///< checkpoint writes that failed
    // Overload containment.
    std::uint64_t rejected_deadline = 0;     ///< kDeadlineUnmeetable at admission
    std::uint64_t rejected_quarantined = 0;  ///< breaker open at admission
    std::uint64_t shed_overload = 0;         ///< evicted by a higher priority
    std::uint64_t expired_in_queue = 0;      ///< deadline passed before execution
    std::uint64_t deadline_exceeded = 0;     ///< all kDeadlineExceeded responses
                                             ///< (expired_in_queue + cancelled)
  };

  explicit ScanService(Config cfg);
  ~ScanService();

  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  /// Per-tenant instruction budget (admission gate; see Billing).
  void set_budget(sim::TenantId tenant, std::uint64_t max_instructions);

  /// Admit a request.  On rejection the returned future is already
  /// fulfilled with the rejection code and nothing was charged; on
  /// admission it resolves when a scheduler wave executes the request.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Submit and wait.  In foreground mode this pumps drain() so a single
  /// thread can use the service synchronously.
  [[nodiscard]] Response call(Request req);

  /// Foreground mode only: execute every currently queued request on the
  /// calling thread.  Returns the number of requests executed.  (In
  /// background mode this is a no-op — the scheduler thread owns the pool.)
  std::size_t drain();

  /// Stop admitting, drain the queue, and join the scheduler.  Idempotent;
  /// the destructor calls it.  Requests submitted after stop() are rejected
  /// with kShutdown.
  void stop();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] Billing& billing() noexcept { return billing_; }
  [[nodiscard]] const Billing& billing() const noexcept { return billing_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// The warm pool, for inspection between waves (count ledgers, chaos
  /// injection in tests).  Foreground mode only — in background mode the
  /// scheduler thread may be mid-wave.
  [[nodiscard]] par::HartPool& pool() noexcept { return pool_; }

  /// Admission-time cost estimate (retired instructions) for a request
  /// shape.  Deliberately cheap and approximate: it gates budgets, it is
  /// never billed.
  [[nodiscard]] std::uint64_t estimate(Kind kind, std::size_t n) const;

  /// Cost prediction for deadline admission: the fitted tune::CostModel
  /// when it covers the request's shape, estimate() otherwise.  Like
  /// estimate(), never billed — the bill is always measured.
  [[nodiscard]] std::uint64_t predict_cost(Kind kind, std::size_t n) const;

  /// The service's virtual clock: (merged + abandoned) pool instructions
  /// divided by hart count — the unit Request::deadline_insts and
  /// BreakerConfig::cooldown_vt are expressed in.  Advances at execution-
  /// phase boundaries; reads are lock-free.
  [[nodiscard]] std::uint64_t virtual_now() const noexcept {
    return vclock_.load(std::memory_order_acquire);
  }

  /// Per-tenant circuit breakers (state queries and stats; see
  /// serve/breaker.hpp).
  [[nodiscard]] TenantBreakers& breakers() noexcept { return breakers_; }
  [[nodiscard]] const TenantBreakers& breakers() const noexcept {
    return breakers_;
  }

  /// Write a pool snapshot (tuner cache included) to `path`.  Safe in
  /// foreground mode between waves, or any mode after stop() — the same
  /// rule as pool().  SnapshotTrap on I/O failure.
  void checkpoint_to(const std::string& path);

 private:
  void scheduler_main();
  void maybe_checkpoint();
  void run_wave(std::vector<Pending> wave);
  void execute_batch(Kind kind, std::vector<Pending*>& members);
  void execute_individual(const std::vector<Pending*>& members);
  void finish(Pending& p, Response&& resp);
  /// Scheduler-only: republish the virtual clock from the pool ledgers.
  /// Legal only between pool jobs (the ledger read needs quiescence).
  void update_vclock();

  Config cfg_;
  par::HartPool pool_;
  Billing billing_;
  RequestQueue queue_;
  TenantBreakers breakers_;
  mutable std::mutex stats_mu_;
  Stats stats_;
  std::atomic<bool> stopped_{false};
  /// Virtual clock: written by the wave consumer between pool jobs, read
  /// lock-free by producers at admission.
  std::atomic<std::uint64_t> vclock_{0};
  /// Predicted cost of admitted-but-unfinished requests — the queue-depth
  /// term of the deadline feasibility gate.
  std::atomic<std::uint64_t> queued_cost_{0};
  /// Virtual clock at the start of the wave being executed (consumer-only).
  std::uint64_t wave_vt_ = 0;
  std::thread scheduler_;
};

}  // namespace rvvsvm::serve
