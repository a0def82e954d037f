#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <utility>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "snap/snapshot.hpp"
#include "tune/cost_model.hpp"
#include "svm/op_traits.hpp"
#include "svm/permute_ops.hpp"
#include "svm/scan.hpp"
#include "svm/seg_ops.hpp"
#include "svm/segmented.hpp"

namespace rvvsvm::serve {

namespace {

/// Install a request's chaos hook on the executing machine for exactly the
/// body's lifetime (cleared on commit and on unwind, so a retry or another
/// request on the same hart never inherits it).
class HookGuard {
 public:
  HookGuard(rvv::Machine& m, FaultHook* hook) noexcept
      : m_(m), active_(hook != nullptr) {
    if (active_) m_.set_fault_hook(hook);
  }
  ~HookGuard() {
    if (active_) m_.set_fault_hook(nullptr);
  }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;

 private:
  rvv::Machine& m_;
  bool active_;
};

/// Arm the executing machine's cooperative-cancellation deadline for the
/// body's lifetime.  `remaining` is the request's (or group's) unspent
/// virtual-time budget; the machine cancels (DeadlineTrap) at the first
/// strip-mine wave boundary after its own counter has advanced that far.
/// Cleared on commit and on unwind, so a retry or another request on the
/// same hart never inherits it.
class DeadlineGuard {
 public:
  DeadlineGuard(rvv::Machine& m, std::uint64_t remaining) noexcept
      : m_(m), active_(remaining > 0) {
    if (active_) m_.set_instruction_deadline(m_.counter().total() + remaining);
  }
  ~DeadlineGuard() {
    if (active_) m_.clear_instruction_deadline();
  }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

 private:
  rvv::Machine& m_;
  bool active_;
};

/// The unspent virtual-time budget of a queued request at wave time, or 0
/// when it carries no deadline.  Callers shed expired requests before
/// execution, so a positive remainder is the normal case; the floor of 1
/// keeps an exactly-at-deadline request armed rather than unlimited.
[[nodiscard]] std::uint64_t remaining_budget(const Pending& p,
                                             std::uint64_t now_vt) noexcept {
  if (p.deadline_vt == 0) return 0;
  return p.deadline_vt > now_vt ? p.deadline_vt - now_vt : 1;
}

/// Largest histogram bin count submit accepts: keys are Values, so no key
/// reaches a bin at or past 2^32.
constexpr std::uint64_t kMaxBins = std::uint64_t{1} << 32;

/// Identity response for an empty payload: nothing executes, nothing bills.
[[nodiscard]] Response empty_response(const Request& req) {
  Response resp;
  if (req.kind == Kind::kHistogram) resp.data.assign(req.bins, Value{0});
  return resp;
}

/// Map one unrecovered shard failure to a stable error code.
[[nodiscard]] ErrorCode failure_code(const par::ShardFailure& fail) noexcept {
  return fail.has_context ? error_code(fail.trap_kind) : ErrorCode::kWorkerCrash;
}

}  // namespace

ScanService::ScanService(Config cfg)
    : cfg_(cfg),
      pool_(par::HartPool::Config{.harts = cfg.harts,
                                  .machine = cfg.machine,
                                  .recovery = cfg.recovery}),
      queue_(cfg.queue_capacity),
      breakers_(cfg.breaker) {
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  if (!cfg_.restore_snapshot.empty()) {
    // Warm start: the pool exists but has run nothing, so every hart is
    // quiescent and this thread owns it.  Any mismatch or corruption
    // propagates as SnapshotTrap before the scheduler ever starts.
    snap::restore_pool(pool_, snap::read_file(cfg_.restore_snapshot),
                       &tune::AutoTuner::global());
  }
  if (cfg_.background) {
    scheduler_ = std::thread([this] { scheduler_main(); });
  }
}

ScanService::~ScanService() { stop(); }

void ScanService::set_budget(sim::TenantId tenant,
                             std::uint64_t max_instructions) {
  billing_.set_budget(tenant, max_instructions);
}

std::future<Response> ScanService::submit(Request req) {
  Pending p;
  std::future<Response> fut = p.promise.get_future();
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.submitted;
  }

  // Admission gates, cheapest first.  Every rejection fulfils the future
  // immediately and charges nothing (the fuzz layer pins that) — overload
  // is turned away in microseconds, never after wasted work.
  const std::uint64_t now_vt = virtual_now();
  const std::uint64_t predicted = predict_cost(req.kind, req.data.size());
  ErrorCode reject = ErrorCode::kOk;
  const char* detail = "";
  if (stopped_.load(std::memory_order_acquire)) {
    reject = ErrorCode::kShutdown;
    detail = "service stopping";
  } else if (req.kind == Kind::kCompress &&
             req.flags.size() != req.data.size()) {
    reject = ErrorCode::kMalformed;
    detail = "compress: flags length must equal data length";
  } else if (req.kind == Kind::kHistogram &&
             (req.bins == 0 || req.bins > kMaxBins)) {
    reject = ErrorCode::kMalformed;
    detail = "histogram: bins must be in [1, 2^32]";
  } else if (billing_.would_exceed(req.tenant,
                                   estimate(req.kind, req.data.size()))) {
    reject = ErrorCode::kBudgetExceeded;
    detail = "tenant instruction budget exhausted";
  }

  // Circuit breaker: a quarantined tenant is turned away before the queue
  // sees the request.  The probe slot, if we take one, must be released on
  // any later rejection so the tenant is not deadlocked out of probing.
  if (reject == ErrorCode::kOk) {
    switch (breakers_.admit(req.tenant, now_vt)) {
      case TenantBreakers::Decision::kReject:
        reject = ErrorCode::kTenantQuarantined;
        detail = "tenant circuit breaker open";
        break;
      case TenantBreakers::Decision::kProbe:
        p.breaker_probe = true;
        break;
      case TenantBreakers::Decision::kAllow:
        break;
    }
  }

  // Deadline feasibility: predicted cost plus this request's per-hart
  // share of the predicted queue backlog must fit the budget.
  if (reject == ErrorCode::kOk && cfg_.admission_control &&
      req.deadline_insts > 0) {
    const std::uint64_t backlog =
        queued_cost_.load(std::memory_order_relaxed) / pool_.harts();
    if (predicted > req.deadline_insts ||
        backlog > req.deadline_insts - predicted) {
      reject = ErrorCode::kDeadlineUnmeetable;
      detail = "predicted cost cannot meet the deadline at current load";
    }
  }

  if (reject == ErrorCode::kOk) {
    p.admit_vt = now_vt;
    p.deadline_vt =
        req.deadline_insts > 0 ? now_vt + req.deadline_insts : 0;
    p.predicted_cost = predicted;
    const sim::TenantId tenant = req.tenant;
    p.req = std::move(req);
    std::optional<Pending> shed;
    if (queue_.push_or_shed(std::move(p), shed)) {
      queued_cost_.fetch_add(predicted, std::memory_order_relaxed);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.admitted;
        if (shed) ++stats_.shed_overload;
      }
      if (shed) {
        // Shed-lowest-first: the victim was admitted earlier at a lower
        // priority; it never executed and bills nothing.
        queued_cost_.fetch_sub(shed->predicted_cost,
                               std::memory_order_relaxed);
        if (shed->breaker_probe) {
          breakers_.record_probe_dropped(shed->req.tenant);
        }
        Response evicted;
        evicted.error = ErrorCode::kShedOverload;
        evicted.message = "shed by a higher-priority arrival at saturation";
        shed->promise.set_value(std::move(evicted));
      }
      return fut;
    }
    if (p.breaker_probe) breakers_.record_probe_dropped(tenant);
    reject = queue_.is_closed() ? ErrorCode::kShutdown : ErrorCode::kQueueFull;
    detail = queue_.is_closed() ? "service stopping" : "request queue full";
  } else if (p.breaker_probe) {
    breakers_.record_probe_dropped(req.tenant);
  }

  {
    std::lock_guard lock(stats_mu_);
    switch (reject) {
      case ErrorCode::kQueueFull:
        ++stats_.rejected_queue_full;
        break;
      case ErrorCode::kBudgetExceeded:
        ++stats_.rejected_budget;
        break;
      case ErrorCode::kMalformed:
        ++stats_.rejected_malformed;
        break;
      case ErrorCode::kDeadlineUnmeetable:
        ++stats_.rejected_deadline;
        break;
      case ErrorCode::kTenantQuarantined:
        ++stats_.rejected_quarantined;
        break;
      default:
        ++stats_.rejected_shutdown;
        break;
    }
  }
  Response resp;
  resp.error = reject;
  resp.message = detail;
  p.promise.set_value(std::move(resp));
  return fut;
}

Response ScanService::call(Request req) {
  std::future<Response> fut = submit(std::move(req));
  if (!cfg_.background) drain();
  return fut.get();
}

std::size_t ScanService::drain() {
  if (cfg_.background) return 0;  // the scheduler thread owns the pool
  std::size_t executed = 0;
  for (;;) {
    std::vector<Pending> wave = queue_.pop_batch(cfg_.max_batch);
    if (wave.empty()) return executed;
    executed += wave.size();
    run_wave(std::move(wave));
  }
}

void ScanService::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
  if (!cfg_.background) {
    // Foreground: execute the queued tail on this thread.
    for (;;) {
      std::vector<Pending> wave = queue_.pop_batch(cfg_.max_batch);
      if (wave.empty()) break;
      run_wave(std::move(wave));
    }
  }
}

ScanService::Stats ScanService::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

std::uint64_t ScanService::estimate(Kind kind, std::size_t n) const {
  // One strip-mine block processes VLEN/32 elements; the per-block factors
  // are eyeballed from the paper tables' per-element costs.  Approximate on
  // purpose: this gates budgets, the bill itself is always measured.
  const std::size_t lanes =
      cfg_.machine.vlen_bits >= 32 ? cfg_.machine.vlen_bits / 32 : 1;
  const std::uint64_t blocks = (n + lanes - 1) / lanes;
  switch (kind) {
    case Kind::kScan:
    case Kind::kScanExclusive:
      return 16 + blocks * 12;
    case Kind::kReduce:
      return 16 + blocks * 8;
    case Kind::kCompress:
      return 16 + blocks * 14;
    case Kind::kHistogram:
      return 64 + blocks * 48;
    case Kind::kSort:
      return 64 + blocks * 12 * 32;  // one split pass per key bit
  }
  return 16;
}

std::uint64_t ScanService::predict_cost(Kind kind, std::size_t n) const {
  using tune::Shape;
  bool fitted = true;
  Shape shape = Shape::kScanInclusive;
  switch (kind) {
    case Kind::kScan:
      shape = Shape::kScanInclusive;
      break;
    case Kind::kScanExclusive:
      shape = Shape::kScanExclusive;
      break;
    case Kind::kReduce:
      shape = Shape::kReduce;
      break;
    case Kind::kCompress:
      shape = Shape::kPack;
      break;
    case Kind::kSort:       // one-hart split_radix_sort has no fitted shape
    case Kind::kHistogram:  // nor has the bin scatter
      fitted = false;       // the eyeballed estimate gates both
      break;
  }
  if (fitted && n > 0) {
    const tune::CostModel& model = tune::CostModel::global();
    if (model.covers(shape)) {
      const double pred =
          model.predict(shape, /*lmul=*/1, n, cfg_.machine.vlen_bits,
                        /*sew_bits=*/32);
      if (pred > 0.0) return static_cast<std::uint64_t>(pred);
    }
  }
  return estimate(kind, n);
}

void ScanService::scheduler_main() {
  for (;;) {
    std::vector<Pending> wave = queue_.wait_batch(cfg_.max_batch);
    if (wave.empty()) return;  // closed and drained
    run_wave(std::move(wave));
  }
}

void ScanService::finish(Pending& p, Response&& resp) {
  resp.billed_total = resp.bill.total();
  billing_.charge(p.req.tenant, resp.bill);
  queued_cost_.fetch_sub(p.predicted_cost, std::memory_order_relaxed);
  const std::uint64_t now_vt = virtual_now();
  resp.vt_latency = now_vt > p.admit_vt ? now_vt - p.admit_vt : 0;
  if (resp.ok()) {
    breakers_.record_success(p.req.tenant, p.breaker_probe);
  } else {
    breakers_.record_failure(p.req.tenant, p.breaker_probe, now_vt);
  }
  {
    std::lock_guard lock(stats_mu_);
    if (resp.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
      if (resp.error == ErrorCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
    }
  }
  p.promise.set_value(std::move(resp));
}

void ScanService::run_wave(std::vector<Pending> wave) {
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.waves;
  }
  wave_vt_ = virtual_now();

  std::vector<Pending*> individual;
  std::array<std::vector<Pending*>, kNumRequestKinds> batches;

  for (Pending& p : wave) {
    const Request& r = p.req;
    if (p.deadline_vt != 0 && wave_vt_ >= p.deadline_vt) {
      // The deadline passed while the request sat in the queue: shed it
      // unexecuted (zero bill) instead of burning a wave on a late result.
      Response resp;
      resp.error = ErrorCode::kDeadlineExceeded;
      resp.message = "deadline expired while queued";
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.expired_in_queue;
      }
      finish(p, std::move(resp));
      continue;
    }
    if (r.data.empty()) {
      finish(p, empty_response(r));
      continue;
    }
    if (r.data.size() < cfg_.coalesce_threshold && coalescible(r.kind) &&
        r.chaos_hook == nullptr) {
      batches[static_cast<std::size_t>(r.kind)].push_back(&p);
    } else {
      individual.push_back(&p);
    }
  }

  for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
    std::vector<Pending*>& members = batches[k];
    if (members.size() >= 2) {
      execute_batch(static_cast<Kind>(k), members);
    } else if (members.size() == 1) {
      individual.push_back(members[0]);  // nothing to coalesce with
    }
  }
  if (!individual.empty()) execute_individual(individual);
  maybe_checkpoint();
}

// Scheduler-only, between pool jobs (the machines are quiescent, so the
// ledger reads are race-free).  Abandoned work is included: rolled-back
// attempts and cancelled waves consumed real execution time, and the
// breaker cooldown must advance under failure-heavy load too.
void ScanService::update_vclock() {
  const std::uint64_t total =
      pool_.merged_counts().total() + pool_.abandoned_counts().total();
  vclock_.store(total / pool_.harts(), std::memory_order_release);
}

// Called at the tail of every wave, on the thread that owns the pool and
// with every request finished — exactly the quiescent point a snapshot
// needs.  A failed write is counted and absorbed: losing a checkpoint must
// not fail a healthy service.
void ScanService::maybe_checkpoint() {
  if (cfg_.checkpoint_every_waves == 0 || cfg_.checkpoint_path.empty()) return;
  std::uint64_t waves = 0;
  {
    std::lock_guard lock(stats_mu_);
    waves = stats_.waves;
  }
  if (waves % cfg_.checkpoint_every_waves != 0) return;
  try {
    checkpoint_to(cfg_.checkpoint_path);
  } catch (...) {
    // Count the failure exactly once, whatever the write threw (snap raises
    // SnapshotTrap, but a filesystem surprise could surface as any host
    // exception) — a lost checkpoint must never take down the scheduler.
    std::lock_guard lock(stats_mu_);
    ++stats_.checkpoint_failures;
  }
}

void ScanService::checkpoint_to(const std::string& path) {
  snap::write_file(path, snap::save_pool(pool_, &tune::AutoTuner::global()));
  std::lock_guard lock(stats_mu_);
  ++stats_.checkpoints;
}

// Individual path: every request that does not coalesce (large, histogram,
// sort, chaos, batch singletons).  Request i is shard i of one fork-join
// epoch, so up to `harts` requests run side by side, one per hart, and the
// pool's per-shard failure isolation maps 1:1 to requests — an unrecovered
// shard fails exactly its request, recovered shards are invisible.  The
// body re-stages from the immutable request each attempt (idempotent, so
// retries and the inline fallback need no checkpoint hooks), and brackets
// its own committed counts for an exact per-request bill.
void ScanService::execute_individual(const std::vector<Pending*>& members) {
  const std::size_t n = members.size();
  {
    std::lock_guard lock(stats_mu_);
    stats_.individual_requests += n;
  }

  std::vector<std::vector<Value>> out(n);
  std::vector<Value> scalars(n, Value{0});
  std::vector<std::size_t> kept(n, 0);
  std::vector<sim::CountSnapshot> bills(n);

  const auto body = [&](std::size_t i) {
    const Request& r = members[i]->req;
    rvv::Machine& m = rvv::Machine::active();
    const HookGuard guard(m, r.chaos_hook);
    const DeadlineGuard deadline(m, remaining_budget(*members[i], wave_vt_));
    const sim::CountSnapshot pre = m.counter().snapshot();
    switch (r.kind) {
      case Kind::kScan:
        out[i].assign(r.data.begin(), r.data.end());
        svm::plus_scan<Value>(std::span<Value>(out[i]));
        break;
      case Kind::kScanExclusive:
        out[i].assign(r.data.begin(), r.data.end());
        svm::plus_scan_exclusive<Value>(std::span<Value>(out[i]));
        break;
      case Kind::kReduce:
        scalars[i] =
            svm::reduce<svm::PlusOp, Value>(std::span<const Value>(r.data));
        break;
      case Kind::kCompress:
        out[i].assign(r.data.size(), Value{0});
        kept[i] = svm::pack<Value>(std::span<const Value>(r.data),
                                   std::span<Value>(out[i]),
                                   std::span<const Value>(r.flags));
        break;
      case Kind::kHistogram:
        out[i].assign(r.bins, Value{0});
        apps::histogram<Value>(std::span<const Value>(r.data),
                               std::span<Value>(out[i]));
        break;
      case Kind::kSort:
        out[i].assign(r.data.begin(), r.data.end());
        apps::split_radix_sort<Value>(std::span<Value>(out[i]));
        break;
    }
    bills[i] = m.counter().snapshot() - pre;
  };

  std::vector<ErrorCode> codes(n, ErrorCode::kOk);
  std::vector<std::string> messages(n);
  try {
    pool_.for_shards(n, body);
  } catch (const par::ShardExecutionError& e) {
    for (const par::ShardFailure& f : e.report().failures) {
      if (f.recovered || f.shard >= n) continue;
      codes[f.shard] = failure_code(f);
      messages[f.shard] = f.message;
    }
  }
  // Republish the clock before finishing so vt_latency covers this epoch.
  update_vclock();

  for (std::size_t i = 0; i < n; ++i) {
    Response resp;
    if (codes[i] == ErrorCode::kOk) {
      resp.bill = bills[i];
      switch (members[i]->req.kind) {
        case Kind::kReduce:
          resp.scalar = scalars[i];
          break;
        case Kind::kCompress:
          out[i].resize(kept[i]);
          resp.out_size = kept[i];
          resp.data = std::move(out[i]);
          break;
        default:
          resp.data = std::move(out[i]);
          break;
      }
    } else {
      // The failed attempt's counts were rolled back by the pool; the
      // request bills nothing and only this request fails.
      resp.error = codes[i];
      resp.message = std::move(messages[i]);
    }
    finish(*members[i], std::move(resp));
  }
}

// Coalesced path: one segmented-envelope pass per member group, all groups
// one fork-join epoch.  Group boundaries sit on member boundaries, so each
// member's segment is whole inside one group and the segmented kernels make
// the result bit-identical to direct per-request execution.  A group that
// stays unrecovered falls back to the individual path member-by-member —
// batch peers of a poisoned request never fail with it.
void ScanService::execute_batch(Kind kind, std::vector<Pending*>& members) {
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.coalesced_batches;
    stats_.coalesced_requests += members.size();
  }

  std::vector<const Request*> reqs;
  reqs.reserve(members.size());
  for (const Pending* p : members) reqs.push_back(&p->req);
  const Envelope env = build_envelope(std::span<const Request* const>(reqs));
  const std::vector<GroupRange> groups = partition_groups(env, pool_.harts());

  std::vector<Value> work(env.total(), Value{0});
  std::vector<Value> reduce_out(members.size(), Value{0});
  std::vector<sim::CountSnapshot> group_bills(groups.size());

  // A group's pass shares one strip-mined kernel, so it runs under the
  // tightest member deadline.  A group cancelled at a wave boundary rolls
  // back whole and falls into the member-by-member fallback below, where
  // each member re-runs (or is cancelled) under its own budget.
  std::vector<std::uint64_t> group_budget(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const GroupRange& range = groups[g];
    for (std::size_t i = range.first_member; i < range.end_member; ++i) {
      const std::uint64_t rem = remaining_budget(*members[i], wave_vt_);
      if (rem > 0 && (group_budget[g] == 0 || rem < group_budget[g])) {
        group_budget[g] = rem;
      }
    }
  }

  const auto body = [&](std::size_t g) {
    const GroupRange& range = groups[g];
    const std::size_t len = range.end_elem - range.begin_elem;
    const std::span<const Value> src(env.data.data() + range.begin_elem, len);
    const std::span<const Value> heads(env.heads.data() + range.begin_elem,
                                       len);
    const std::span<Value> dst(work.data() + range.begin_elem, len);
    rvv::Machine& m = rvv::Machine::active();
    const DeadlineGuard deadline(m, group_budget[g]);
    const sim::CountSnapshot pre = m.counter().snapshot();
    switch (kind) {
      case Kind::kScan:
        // Host staging copy (not emulated); re-run from src each attempt.
        std::copy(src.begin(), src.end(), dst.begin());
        svm::seg_plus_scan<Value>(dst, heads);
        break;
      case Kind::kScanExclusive:
        std::copy(src.begin(), src.end(), dst.begin());
        svm::seg_scan_exclusive<svm::PlusOp, Value>(dst, heads);
        break;
      case Kind::kReduce: {
        const std::span<Value> totals(reduce_out.data() + range.first_member,
                                      range.end_member - range.first_member);
        static_cast<void>(svm::seg_reduce<svm::PlusOp, Value>(src, heads, totals));
        break;
      }
      case Kind::kCompress: {
        const std::span<const Value> flags(env.flags.data() + range.begin_elem,
                                           len);
        static_cast<void>(svm::pack<Value>(src, dst, flags));
        break;
      }
      case Kind::kHistogram:
      case Kind::kSort:
        break;  // never coalesced (coalescible() gates admission to batches)
    }
    group_bills[g] = m.counter().snapshot() - pre;
  };

  std::vector<char> group_failed(groups.size(), 0);
  try {
    pool_.for_shards(groups.size(), body);
  } catch (const par::ShardExecutionError& e) {
    for (const par::ShardFailure& f : e.report().failures) {
      if (!f.recovered && f.shard < groups.size()) group_failed[f.shard] = 1;
    }
  }
  // Republish the clock before finishing so vt_latency covers this epoch.
  update_vclock();

  std::vector<Pending*> fallback;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const GroupRange& range = groups[g];
    if (group_failed[g] != 0) {
      // The group's counts were rolled back whole; re-run its members
      // individually so one bad member cannot fail its peers.
      for (std::size_t i = range.first_member; i < range.end_member; ++i) {
        fallback.push_back(members[i]);
      }
      continue;
    }

    // Exact group bill, apportioned to members by element share.
    std::vector<std::size_t> sizes;
    sizes.reserve(range.end_member - range.first_member);
    for (std::size_t i = range.first_member; i < range.end_member; ++i) {
      sizes.push_back(env.member_size(i));
    }
    const std::vector<sim::CountSnapshot> bills =
        apportion_bill(group_bills[g], std::span<const std::size_t>(sizes));

    std::size_t pack_prefix = 0;  // kCompress: packed offset within the group
    for (std::size_t i = range.first_member; i < range.end_member; ++i) {
      Response resp;
      resp.coalesced = true;
      resp.bill = bills[i - range.first_member];
      const std::size_t begin = env.offsets[i];
      const std::size_t end = env.offsets[i + 1];
      switch (kind) {
        case Kind::kReduce:
          resp.scalar = reduce_out[i];
          break;
        case Kind::kCompress: {
          // Stable pack keeps members in order, so member i's packed output
          // is the next kept_i elements of the group's packed stream.
          std::size_t kept_i = 0;
          for (std::size_t e = begin; e < end; ++e) {
            if (env.flags[e] != Value{0}) ++kept_i;
          }
          const std::size_t out_begin = range.begin_elem + pack_prefix;
          resp.data.assign(work.begin() + static_cast<std::ptrdiff_t>(out_begin),
                           work.begin() +
                               static_cast<std::ptrdiff_t>(out_begin + kept_i));
          resp.out_size = kept_i;
          pack_prefix += kept_i;
          break;
        }
        default:
          resp.data.assign(work.begin() + static_cast<std::ptrdiff_t>(begin),
                           work.begin() + static_cast<std::ptrdiff_t>(end));
          break;
      }
      finish(*members[i], std::move(resp));
    }
  }
  if (!fallback.empty()) execute_individual(fallback);
}

}  // namespace rvvsvm::serve
