#include "par/hart_pool.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace rvvsvm::par {

namespace {

/// Classify the in-flight exception into a ShardFailure.  Typed traps keep
/// their machine context; anything else keeps its what().
void describe_current_exception(ShardFailure& fail) {
  try {
    throw;
  } catch (const Trap& t) {
    fail.message = t.message();
    fail.context = t.context();
    fail.trap_kind = t.kind();
    fail.has_context = true;
  } catch (const std::exception& e) {
    fail.message = e.what();
  } catch (...) {
    fail.message = "unknown exception";
  }
}

std::string summarize(const EpochReport& report) {
  std::size_t unrecovered = 0;
  const ShardFailure* first = nullptr;
  for (const auto& f : report.failures) {
    if (f.recovered) continue;
    ++unrecovered;
    if (first == nullptr) first = &f;
  }
  std::string msg = "par: " + std::to_string(unrecovered) + " of " +
                    std::to_string(report.failures.size()) +
                    " shard failure(s) unrecovered";
  if (first != nullptr) {
    msg += "; first: shard " + std::to_string(first->shard) + " on hart " +
           std::to_string(first->hart) + ": " + first->message;
  }
  return msg;
}

/// A deadline cancellation is deterministic for its budget: a retry or the
/// inline fallback would burn the budget again only to re-cancel at the
/// same wave boundary, so a cancelled shard is never re-run.
[[nodiscard]] bool cancelled(const ShardFailure& fail) noexcept {
  return fail.has_context && fail.trap_kind == sim::TrapKind::kDeadlineExceeded;
}

}  // namespace

ShardExecutionError::ShardExecutionError(EpochReport report)
    : std::runtime_error(summarize(report)),
      report_(std::make_shared<const EpochReport>(std::move(report))) {}

// One fork-join dispatch.  Lives on the calling thread's stack and refers to
// the caller's body and hooks: for_shards returns only after every
// participating hart has finished, so they outlive every worker that reads
// them.  Mutable fields are guarded by the pool mutex.
struct Epoch {
  const std::function<void(std::size_t)>& body;
  const RecoveryHooks& hooks;
  std::size_t num_shards;
  unsigned nharts;         // harts [0, nharts) take part
  unsigned remaining = 0;  // participants still running
  std::vector<ShardFailure> failures{};
  sim::CountSnapshot abandoned_counts{};
};

// Fork-join core: workers park on cv_start until a new epoch is posted, run
// their contiguous shard run with per-shard failure isolation, and the last
// participant signals cv_done.  All published state (epoch, per-hart
// machines, counters) is ordered by the mutex handshake, so between jobs
// the calling thread may read machine counters race-free.
struct HartPool::Impl {
  Config cfg;
  mutable std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  bool stop = false;
  std::uint64_t next_epoch_id = 0;  // epochs posted so far
  Epoch* current = nullptr;         // the posted epoch, null between jobs
  unsigned ready = 0;               // workers that finished construction
  std::vector<std::unique_ptr<rvv::Machine>> machines;
  std::unique_ptr<rvv::Machine> rescue;  // lazily created for inline fallback
  std::vector<std::thread> workers;
  EpochReport last_report;
  sim::CountSnapshot abandoned_total;

  void worker_main(unsigned hart);
  void run_shard(Epoch& ep, rvv::Machine& m, unsigned hart, std::size_t s);
  void post_and_wait(Epoch& ep);
  void finish_epoch(Epoch& ep);
};

void HartPool::Impl::worker_main(unsigned hart) {
  // Traps raised on this thread self-identify in their context.
  set_current_hart(static_cast<int>(hart));
  // The machine is created on the worker so its buffer pool binds here.
  auto owned = std::make_unique<rvv::Machine>(cfg.machine);
  rvv::Machine* m = owned.get();
  {
    std::lock_guard lock(mu);
    machines[hart] = std::move(owned);
    ++ready;
  }
  cv_done.notify_all();

  std::uint64_t seen = 0;
  for (;;) {
    Epoch* ep = nullptr;
    {
      std::unique_lock lock(mu);
      cv_start.wait(lock, [&] { return stop || (current && next_epoch_id != seen); });
      if (stop) return;
      seen = next_epoch_id;
      // A non-participant must not touch the epoch again: its caller does
      // not wait for this hart before the epoch goes out of scope.
      if (hart >= current->nharts) continue;
      ep = current;
    }

    const ShardRange mine = shards_for_hart(ep->num_shards, ep->nharts, hart);
    std::size_t s = mine.begin;
    try {
      rvv::MachineScope scope(*m);
      for (; s < mine.end; ++s) run_shard(*ep, *m, hart, s);
    } catch (...) {
      // run_shard catches per shard; anything escaping is a pool defect —
      // record it against the shard this hart was running.
      ShardFailure fail;
      fail.shard = s;
      fail.hart = static_cast<int>(hart);
      describe_current_exception(fail);
      std::lock_guard lock(mu);
      ep->failures.push_back(std::move(fail));
    }

    {
      std::lock_guard lock(mu);
      --ep->remaining;
    }
    cv_done.notify_all();
  }
}

// Executes shard `s` on this hart with the configured retry budget.  Every
// failed attempt's counts are rolled back off the hart's counter and
// ledgered as abandoned, so merged totals only ever contain committed work.
void HartPool::Impl::run_shard(Epoch& ep, rvv::Machine& m, unsigned hart,
                               std::size_t s) {
  ShardFailure fail;
  fail.shard = s;
  fail.hart = static_cast<int>(hart);
  const auto record = [&] {
    std::lock_guard lock(mu);
    ep.failures.push_back(std::move(fail));
  };

  if (cfg.recovery.armed() && ep.hooks.save) {
    try {
      ep.hooks.save(s);
    } catch (...) {
      describe_current_exception(fail);
      fail.message.insert(0, "checkpoint save failed: ");
      fail.attempts = 1;
      record();
      return;
    }
  }

  for (unsigned attempts = 1;; ++attempts) {
    const sim::CountSnapshot pre = m.counter().snapshot();
    try {
      ep.body(s);
    } catch (...) {
      const sim::CountSnapshot wasted = m.counter().snapshot() - pre;
      m.counter().restore(pre);
      ShardFailure described;
      described.shard = fail.shard;
      described.hart = fail.hart;
      describe_current_exception(described);
      const bool cancel = cancelled(described);
      if (attempts == 1 || cancel) fail = std::move(described);
      {
        std::lock_guard lock(mu);
        ep.abandoned_counts += wasted;
      }
      if (cancel || attempts > cfg.recovery.max_retries) {
        fail.attempts = attempts;
        record();
        return;
      }
      if (ep.hooks.restore) {
        try {
          ep.hooks.restore(s);
        } catch (...) {
          describe_current_exception(fail);
          fail.message.insert(0, "checkpoint restore failed: ");
          fail.attempts = attempts;
          record();
          return;
        }
      }
      continue;
    }

    if (attempts > 1) {
      fail.attempts = attempts;
      fail.recovered = true;
      record();
    }
    return;
  }
}

void HartPool::Impl::post_and_wait(Epoch& ep) {
  std::unique_lock lock(mu);
  ++next_epoch_id;
  ep.remaining = ep.nharts;
  current = &ep;
  cv_start.notify_all();
  cv_done.wait(lock, [&] { return ep.remaining == 0; });
  current = nullptr;  // the epoch dies with the caller's frame
}

// Harvest the epoch, run the inline fallback over unrecovered shards, and
// publish the report.  Throws ShardExecutionError when recovery fell short.
// Every participant has finished, so the epoch is the caller's alone.
void HartPool::Impl::finish_epoch(Epoch& ep) {
  EpochReport report{.failures = std::move(ep.failures),
                     .abandoned_counts = ep.abandoned_counts};

  if (cfg.recovery.fallback_inline) {
    for (auto& fail : report.failures) {
      if (fail.recovered || cancelled(fail)) continue;
      if (!rescue) rescue = std::make_unique<rvv::Machine>(cfg.machine);
      if (ep.hooks.restore) {
        try {
          ep.hooks.restore(fail.shard);
        } catch (const std::exception& e) {
          fail.message += std::string("; fallback restore failed: ") + e.what();
          ++fail.attempts;
          continue;
        }
      }
      const sim::CountSnapshot pre = rescue->counter().snapshot();
      try {
        rvv::MachineScope scope(*rescue);
        ep.body(fail.shard);
        fail.recovered = true;
        fail.inline_fallback = true;
        ++fail.attempts;
      } catch (...) {
        report.abandoned_counts += rescue->counter().snapshot() - pre;
        rescue->counter().restore(pre);
        ++fail.attempts;
        ShardFailure scratch;
        describe_current_exception(scratch);
        fail.message += "; fallback: " + scratch.message;
      }
    }
  }

  const bool ok = report.all_recovered();
  {
    std::lock_guard lock(mu);
    abandoned_total += report.abandoned_counts;
    last_report = report;
  }
  if (!ok) throw ShardExecutionError(std::move(report));
}

HartPool::HartPool() : HartPool(Config{}) {}

HartPool::HartPool(Config cfg) : impl_(new Impl) {
  if (cfg.harts == 0) {
    cfg.harts = std::thread::hardware_concurrency();
    if (cfg.harts == 0) cfg.harts = 1;
  }
  if (cfg.shard_size == 0) {
    delete impl_;
    TrapContext ctx;
    ctx.op = "HartPool";
    ctx.hart = current_hart();
    throw IllegalConfigTrap("HartPool: shard_size must be non-zero", ctx);
  }
  // Validate the machine config here so a bad VLEN surfaces as an exception
  // on the constructing thread, not inside a worker.
  if (cfg.machine.vlen_bits < 64 || !std::has_single_bit(cfg.machine.vlen_bits)) {
    delete impl_;
    TrapContext ctx;
    ctx.op = "HartPool";
    ctx.vlen_bits = cfg.machine.vlen_bits;
    ctx.hart = current_hart();
    throw IllegalConfigTrap("HartPool: vlen_bits must be a power of two >= 64",
                            ctx);
  }

  impl_->cfg = cfg;
  impl_->machines.resize(cfg.harts);
  impl_->workers.reserve(cfg.harts);
  for (unsigned h = 0; h < cfg.harts; ++h) {
    impl_->workers.emplace_back([impl = impl_, h] { impl->worker_main(h); });
  }
  std::unique_lock lock(impl_->mu);
  impl_->cv_done.wait(lock, [&] { return impl_->ready == cfg.harts; });
}

HartPool::~HartPool() {
  {
    std::lock_guard lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_start.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

unsigned HartPool::harts() const noexcept {
  return static_cast<unsigned>(impl_->machines.size());
}

std::size_t HartPool::shard_size() const noexcept { return impl_->cfg.shard_size; }

bool HartPool::recovery_armed() const noexcept {
  return impl_->cfg.recovery.armed();
}

void HartPool::for_shards(std::size_t num_shards,
                          const std::function<void(std::size_t)>& body,
                          const RecoveryHooks& hooks) {
  if (num_shards == 0) {
    std::lock_guard lock(impl_->mu);
    impl_->last_report = EpochReport{};
    return;
  }
  Epoch ep{.body = body,
           .hooks = hooks,
           .num_shards = num_shards,
           .nharts = static_cast<unsigned>(
               std::min<std::size_t>(harts(), num_shards))};
  impl_->post_and_wait(ep);
  impl_->finish_epoch(ep);
}

rvv::Machine& HartPool::machine(unsigned hart) {
  if (hart >= harts()) {
    TrapContext ctx;
    ctx.op = "HartPool::machine";
    ctx.hart = static_cast<int>(hart);
    throw OperandTrap("HartPool::machine: bad hart", ctx);
  }
  return *impl_->machines[hart];
}

const EpochReport& HartPool::last_report() const noexcept {
  return impl_->last_report;
}

std::vector<sim::CountSnapshot> HartPool::per_hart_counts() const {
  std::lock_guard lock(impl_->mu);
  std::vector<sim::CountSnapshot> counts;
  counts.reserve(impl_->machines.size());
  for (const auto& m : impl_->machines) counts.push_back(m->counter().snapshot());
  return counts;
}

sim::CountSnapshot HartPool::merged_counts() const {
  std::lock_guard lock(impl_->mu);
  sim::CountSnapshot sum;
  for (const auto& m : impl_->machines) sum += m->counter().snapshot();
  if (impl_->rescue) sum += impl_->rescue->counter().snapshot();
  return sum;
}

sim::CountSnapshot HartPool::abandoned_counts() const {
  std::lock_guard lock(impl_->mu);
  return impl_->abandoned_total;
}

std::uint64_t HartPool::epochs() const {
  std::lock_guard lock(impl_->mu);
  return impl_->next_epoch_id;
}

rvv::Machine* HartPool::rescue_machine() noexcept {
  std::lock_guard lock(impl_->mu);
  return impl_->rescue.get();
}

rvv::Machine& HartPool::ensure_rescue_machine() {
  std::lock_guard lock(impl_->mu);
  if (!impl_->rescue) {
    impl_->rescue = std::make_unique<rvv::Machine>(impl_->cfg.machine);
  }
  return *impl_->rescue;
}

void HartPool::restore_abandoned_counts(const sim::CountSnapshot& counts) noexcept {
  std::lock_guard lock(impl_->mu);
  impl_->abandoned_total = counts;
}

void HartPool::reset_counts() noexcept {
  std::lock_guard lock(impl_->mu);
  for (const auto& m : impl_->machines) m->reset_counts();
  if (impl_->rescue) impl_->rescue->reset_counts();
  impl_->abandoned_total = sim::CountSnapshot{};
}

}  // namespace rvvsvm::par
