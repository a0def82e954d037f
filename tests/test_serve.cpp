// Unit tests for the src/serve service layer: the exhaustive trap->error
// mapping, admission control, batching bit-identity, exact billing, and
// fault isolation.  Suite names carry the "Serve" prefix so the CI thread
// sanitizer job picks them up (`ctest -R "...|Serve"`).

#include <cstdint>
#include <future>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "check/fault_injection.hpp"
#include "serve/service.hpp"
#include "sim/tenant_ledger.hpp"
#include "svm/svm.hpp"

namespace {

using rvvsvm::check::FaultInjector;
using rvvsvm::serve::ErrorCode;
using rvvsvm::serve::Kind;
using rvvsvm::serve::Request;
using rvvsvm::serve::Response;
using rvvsvm::serve::ScanService;
using rvvsvm::serve::Value;
using rvvsvm::sim::TrapKind;

ScanService::Config foreground_config(unsigned harts = 2) {
  ScanService::Config cfg;
  cfg.harts = harts;
  cfg.background = false;
  return cfg;
}

Request make_request(Kind kind, std::vector<Value> data,
                     rvvsvm::sim::TenantId tenant = 1) {
  Request req;
  req.tenant = tenant;
  req.kind = kind;
  req.data = std::move(data);
  if (kind == Kind::kCompress) {
    req.flags.assign(req.data.size(), Value{1});
    for (std::size_t i = 0; i < req.flags.size(); i += 2) req.flags[i] = 0;
  }
  if (kind == Kind::kHistogram) {
    req.bins = 8;
    for (Value& v : req.data) v %= 8;
  }
  return req;
}

std::vector<Value> iota_values(std::size_t n) {
  std::vector<Value> v(n);
  std::iota(v.begin(), v.end(), Value{1});
  return v;
}

// --- the exhaustive trap taxonomy mapping (ISSUE 7 satellite) ---------------

TEST(ServeErrorCodes, EveryTrapKindRoundTrips) {
  for (std::size_t k = 0; k < rvvsvm::sim::kNumTrapKinds; ++k) {
    const TrapKind kind = static_cast<TrapKind>(k);
    const ErrorCode code = rvvsvm::serve::error_code(kind);
    EXPECT_NE(code, ErrorCode::kOk) << rvvsvm::sim::to_string(kind);
    const auto back = rvvsvm::serve::trap_kind(code);
    ASSERT_TRUE(back.has_value()) << rvvsvm::sim::to_string(kind);
    EXPECT_EQ(*back, kind) << rvvsvm::sim::to_string(kind);
    EXPECT_STRNE(rvvsvm::serve::to_string(code), "?");
  }
}

TEST(ServeErrorCodes, TrapKindsMapToDistinctCodes) {
  std::vector<ErrorCode> seen;
  for (std::size_t k = 0; k < rvvsvm::sim::kNumTrapKinds; ++k) {
    const ErrorCode code =
        rvvsvm::serve::error_code(static_cast<TrapKind>(k));
    for (const ErrorCode prior : seen) EXPECT_NE(code, prior);
    seen.push_back(code);
  }
}

TEST(ServeErrorCodes, NonTrapCodesHaveNoTrapKind) {
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kOk).has_value());
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kQueueFull).has_value());
  EXPECT_FALSE(
      rvvsvm::serve::trap_kind(ErrorCode::kBudgetExceeded).has_value());
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kMalformed).has_value());
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kShutdown).has_value());
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kWorkerCrash).has_value());
  // ISSUE 10 overload codes: only kDeadlineExceeded has a trap behind it.
  EXPECT_FALSE(
      rvvsvm::serve::trap_kind(ErrorCode::kDeadlineUnmeetable).has_value());
  EXPECT_FALSE(rvvsvm::serve::trap_kind(ErrorCode::kShedOverload).has_value());
  EXPECT_FALSE(
      rvvsvm::serve::trap_kind(ErrorCode::kTenantQuarantined).has_value());
}

TEST(ServeErrorCodes, DeadlineTrapRoundTripsAndCodesStayStable) {
  EXPECT_EQ(rvvsvm::serve::error_code(TrapKind::kDeadlineExceeded),
            ErrorCode::kDeadlineExceeded);
  const auto back = rvvsvm::serve::trap_kind(ErrorCode::kDeadlineExceeded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, TrapKind::kDeadlineExceeded);
  // The wire codes are append-only contract values.
  EXPECT_EQ(static_cast<int>(ErrorCode::kDeadlineExceeded), 13);
  EXPECT_EQ(static_cast<int>(ErrorCode::kDeadlineUnmeetable), 14);
  EXPECT_EQ(static_cast<int>(ErrorCode::kShedOverload), 15);
  EXPECT_EQ(static_cast<int>(ErrorCode::kTenantQuarantined), 16);
}

// --- the tenant ledger -------------------------------------------------------

TEST(ServeTenantLedger, ChargesAccumulatePerTenant) {
  rvvsvm::sim::TenantLedger ledger;
  rvvsvm::sim::InstCounter counter;
  counter.add(rvvsvm::sim::InstClass::kVectorArith, 5);
  ledger.charge(1, counter.snapshot());
  ledger.charge(1, counter.snapshot());
  counter.add(rvvsvm::sim::InstClass::kScalarAlu, 3);
  ledger.charge(2, counter.snapshot());
  EXPECT_EQ(ledger.billed_total(1), 10u);
  EXPECT_EQ(ledger.billed_total(2), 8u);
  EXPECT_EQ(ledger.grand_total().total(), 18u);
  EXPECT_EQ(ledger.num_tenants(), 2u);
  EXPECT_EQ(ledger.billed_total(99), 0u);  // unknown tenant bills zero
}

// --- admission control --------------------------------------------------------

TEST(ServeAdmission, BudgetRejectionNeverCharges) {
  ScanService svc(foreground_config());
  svc.set_budget(5, 1);  // below the estimate floor
  const Response resp = svc.call(make_request(Kind::kScan, iota_values(32), 5));
  EXPECT_EQ(resp.error, ErrorCode::kBudgetExceeded);
  EXPECT_EQ(resp.billed_total, 0u);
  EXPECT_EQ(svc.billing().billed(5).total(), 0u);
  EXPECT_EQ(svc.stats().rejected_budget, 1u);
}

TEST(ServeAdmission, MalformedShapesRejected) {
  ScanService svc(foreground_config());
  Request bad_flags = make_request(Kind::kCompress, iota_values(8));
  bad_flags.flags.pop_back();
  EXPECT_EQ(svc.call(std::move(bad_flags)).error, ErrorCode::kMalformed);

  Request bad_bins = make_request(Kind::kHistogram, iota_values(8));
  bad_bins.bins = 0;
  EXPECT_EQ(svc.call(std::move(bad_bins)).error, ErrorCode::kMalformed);

  // Keys are 32-bit, so no bin count past 2^32 is valid; an empty payload
  // would otherwise reach the identity response's bin allocation.
  Request huge_bins = make_request(Kind::kHistogram, {});
  huge_bins.bins = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(svc.call(std::move(huge_bins)).error, ErrorCode::kMalformed);
  EXPECT_EQ(svc.billing().grand_total().total(), 0u);
}

TEST(ServeAdmission, ZeroHartsTakesThePoolShape) {
  // harts = 0 selects the hardware concurrency in the pool; the service's
  // virtual clock and deadline gate must divide by the resolved count.
  ScanService svc(foreground_config(0));
  ASSERT_GT(svc.pool().harts(), 0u);
  EXPECT_TRUE(svc.call(make_request(Kind::kScan, iota_values(256))).ok());
  Request timed = make_request(Kind::kScan, iota_values(256));
  timed.deadline_insts = 1u << 30;
  EXPECT_TRUE(svc.call(std::move(timed)).ok());
  EXPECT_GT(svc.virtual_now(), 0u);
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

TEST(ServeAdmission, QueueOverflowRejectsExactlyTheExcess) {
  ScanService::Config cfg = foreground_config();
  cfg.queue_capacity = 2;
  ScanService svc(cfg);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(svc.submit(make_request(Kind::kScan, iota_values(16))));
  }
  svc.drain();
  std::size_t ok = 0;
  std::size_t full = 0;
  for (auto& fut : futs) {
    const Response resp = fut.get();
    if (resp.ok()) ++ok;
    if (resp.error == ErrorCode::kQueueFull) {
      ++full;
      EXPECT_EQ(resp.billed_total, 0u);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(full, 3u);
}

TEST(ServeAdmission, SubmitAfterStopRejectsWithShutdown) {
  ScanService svc(foreground_config());
  svc.stop();
  const Response resp =
      svc.call(make_request(Kind::kReduce, iota_values(4)));
  EXPECT_EQ(resp.error, ErrorCode::kShutdown);
}

// --- batching: coalesced results are bit-identical to direct execution -------

TEST(ServeBatching, CoalescedResponsesMatchDirectExecution) {
  ScanService svc(foreground_config(4));
  static constexpr Kind kKinds[] = {Kind::kScan, Kind::kScanExclusive,
                                    Kind::kReduce, Kind::kCompress};
  std::vector<Request> requests;
  std::vector<std::future<Response>> futs;
  for (const Kind kind : kKinds) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::vector<Value> data(17 + 11 * j);
      for (std::size_t e = 0; e < data.size(); ++e) {
        data[e] = static_cast<Value>((e * 2654435761u) ^ j);
      }
      requests.push_back(make_request(kind, std::move(data)));
      futs.push_back(svc.submit(Request(requests.back())));
    }
  }
  svc.drain();

  rvvsvm::rvv::Machine machine({.vlen_bits = svc.config().machine.vlen_bits});
  rvvsvm::rvv::MachineScope scope(machine);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const Response resp = futs[i].get();
    ASSERT_TRUE(resp.ok()) << to_string(req.kind);
    EXPECT_TRUE(resp.coalesced) << to_string(req.kind);
    switch (req.kind) {
      case Kind::kScan: {
        std::vector<Value> expect(req.data);
        rvvsvm::svm::plus_scan<Value>(std::span<Value>(expect));
        EXPECT_EQ(resp.data, expect);
        break;
      }
      case Kind::kScanExclusive: {
        std::vector<Value> expect(req.data);
        rvvsvm::svm::plus_scan_exclusive<Value>(std::span<Value>(expect));
        EXPECT_EQ(resp.data, expect);
        break;
      }
      case Kind::kReduce: {
        const Value expect = rvvsvm::svm::reduce<rvvsvm::svm::PlusOp, Value>(
            std::span<const Value>(req.data));
        EXPECT_EQ(resp.scalar, expect);
        break;
      }
      case Kind::kCompress: {
        std::vector<Value> expect(req.data.size(), Value{0});
        const std::size_t kept = rvvsvm::svm::pack<Value>(
            std::span<const Value>(req.data), std::span<Value>(expect),
            std::span<const Value>(req.flags));
        expect.resize(kept);
        EXPECT_EQ(resp.out_size, kept);
        EXPECT_EQ(resp.data, expect);
        break;
      }
      default:
        break;
    }
  }
  EXPECT_GE(svc.stats().coalesced_batches, 4u);
}

TEST(ServeBatching, SingletonAndOddKindsRunIndividually) {
  ScanService svc(foreground_config());
  std::vector<std::future<Response>> futs;
  futs.push_back(svc.submit(make_request(Kind::kScan, iota_values(10))));
  futs.push_back(svc.submit(make_request(Kind::kHistogram, iota_values(20))));
  futs.push_back(svc.submit(make_request(Kind::kSort, {5, 3, 9, 1})));
  svc.drain();

  const Response scan = futs[0].get();
  EXPECT_TRUE(scan.ok());
  EXPECT_FALSE(scan.coalesced);  // nothing to coalesce with

  const Response hist = futs[1].get();
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist.data.size(), 8u);
  std::uint64_t total = 0;
  for (const Value c : hist.data) total += c;
  EXPECT_EQ(total, 20u);

  const Response sorted = futs[2].get();
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted.data, (std::vector<Value>{1, 3, 5, 9}));
}

TEST(ServeBatching, LargeRequestTakesWholePoolPath) {
  ScanService::Config cfg = foreground_config(4);
  cfg.coalesce_threshold = 64;
  ScanService svc(cfg);
  std::vector<Value> data(500, Value{1});
  const Response resp = svc.call(make_request(Kind::kScan, data));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.data.size(), 500u);
  EXPECT_EQ(resp.data.front(), 1u);
  EXPECT_EQ(resp.data.back(), 500u);
  EXPECT_FALSE(resp.coalesced);
  EXPECT_EQ(svc.stats().large_requests, 1u);
  EXPECT_GT(resp.billed_total, 0u);
}

TEST(ServeBatching, EmptyPayloadIsIdentityAndBillsNothing) {
  ScanService svc(foreground_config());
  const Response scan = svc.call(make_request(Kind::kScan, {}));
  EXPECT_TRUE(scan.ok());
  EXPECT_TRUE(scan.data.empty());
  EXPECT_EQ(scan.billed_total, 0u);

  Request hist = make_request(Kind::kHistogram, {});
  hist.bins = 4;
  const Response bins = svc.call(std::move(hist));
  EXPECT_TRUE(bins.ok());
  EXPECT_EQ(bins.data, (std::vector<Value>{0, 0, 0, 0}));
  EXPECT_EQ(svc.billing().grand_total().total(), 0u);
}

// --- billing exactness ---------------------------------------------------------

TEST(ServeBilling, BillsSumExactlyToPoolMergedCounts) {
  ScanService::Config cfg = foreground_config(4);
  cfg.coalesce_threshold = 128;
  ScanService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.push_back(svc.submit(make_request(Kind::kScan, iota_values(30), 1)));
  futs.push_back(svc.submit(make_request(Kind::kScan, iota_values(40), 2)));
  futs.push_back(svc.submit(make_request(Kind::kReduce, iota_values(25), 1)));
  futs.push_back(svc.submit(make_request(Kind::kReduce, iota_values(60), 3)));
  futs.push_back(svc.submit(make_request(Kind::kHistogram, iota_values(50), 2)));
  futs.push_back(svc.submit(make_request(Kind::kSort, iota_values(40), 3)));
  futs.push_back(svc.submit(make_request(Kind::kScan, iota_values(300), 1)));
  svc.drain();

  rvvsvm::sim::InstCounter from_responses;
  for (auto& fut : futs) {
    const Response resp = fut.get();
    ASSERT_TRUE(resp.ok());
    from_responses.add_all(resp.bill);
    EXPECT_EQ(resp.billed_total, resp.bill.total());
  }
  // Response bills == tenant ledger == pool merged counts, per class.
  EXPECT_EQ(from_responses.snapshot(), svc.billing().grand_total());
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
  EXPECT_GT(svc.billing().grand_total().total(), 0u);
}

// --- fault isolation -------------------------------------------------------------

TEST(ServeFaults, PersistentFaultFailsOnlyThePoisonedRequest) {
  ScanService svc(foreground_config(2));
  FaultInjector inj({.trap_at_instruction = 3, .persistent = true});

  std::vector<std::future<Response>> healthy;
  healthy.push_back(svc.submit(make_request(Kind::kScan, iota_values(20), 1)));
  healthy.push_back(svc.submit(make_request(Kind::kSort, iota_values(15), 2)));

  Request poisoned = make_request(Kind::kScan, iota_values(24), 3);
  poisoned.chaos_hook = &inj;
  std::future<Response> poisoned_fut = svc.submit(std::move(poisoned));
  svc.drain();

  for (auto& fut : healthy) EXPECT_TRUE(fut.get().ok());
  const Response resp = poisoned_fut.get();
  EXPECT_EQ(resp.error, ErrorCode::kFaultInjected);
  EXPECT_EQ(resp.billed_total, 0u);  // rolled back, never billed
  EXPECT_GT(svc.pool().abandoned_counts().total(), 0u);
  // The exactness invariant survives the rollback.
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

TEST(ServeFaults, OneShotCrashIsRecoveredInvisibly) {
  ScanService svc(foreground_config(2));  // default policy retries once
  FaultInjector inj({.trap_at_instruction = 2, .crash = true});

  Request poisoned = make_request(Kind::kReduce, iota_values(40), 1);
  const Value expected = [&] {
    Value sum = 0;
    for (const Value v : poisoned.data) sum += v;
    return sum;
  }();
  poisoned.chaos_hook = &inj;
  const Response resp = svc.call(std::move(poisoned));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.scalar, expected);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_GT(resp.billed_total, 0u);
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

TEST(ServeFaults, PoisonedBatchPeerStillCoalesces) {
  // A chaos request never joins a batch; its small same-kind peers still do.
  ScanService svc(foreground_config(2));
  FaultInjector inj({.trap_at_instruction = 1, .persistent = true});

  std::vector<std::future<Response>> peers;
  peers.push_back(svc.submit(make_request(Kind::kScan, iota_values(12), 1)));
  peers.push_back(svc.submit(make_request(Kind::kScan, iota_values(18), 2)));
  Request poisoned = make_request(Kind::kScan, iota_values(16), 3);
  poisoned.chaos_hook = &inj;
  std::future<Response> poisoned_fut = svc.submit(std::move(poisoned));
  svc.drain();

  for (auto& fut : peers) {
    const Response resp = fut.get();
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(resp.coalesced);
  }
  EXPECT_FALSE(poisoned_fut.get().ok());
}

// --- request deadlines (ISSUE 10 tentpole) -----------------------------------

TEST(ServeDeadlines, UnmeetableDeadlineRejectedAtAdmission) {
  ScanService svc(foreground_config());
  Request req = make_request(Kind::kScan, iota_values(1024));
  req.deadline_insts = 1;  // far below any predicted cost
  const Response resp = svc.call(std::move(req));
  EXPECT_EQ(resp.error, ErrorCode::kDeadlineUnmeetable);
  EXPECT_EQ(resp.billed_total, 0u);
  EXPECT_EQ(svc.stats().rejected_deadline, 1u);
  EXPECT_EQ(svc.billing().grand_total().total(), 0u);
}

TEST(ServeDeadlines, GenerousDeadlineCompletesAndReportsVtLatency) {
  ScanService svc(foreground_config());
  const std::uint64_t deadline = 1u << 30;
  Request req = make_request(Kind::kSort, iota_values(128));
  req.deadline_insts = deadline;
  const Response resp = svc.call(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp.vt_latency, 0u);
  EXPECT_LT(resp.vt_latency, deadline);
  EXPECT_EQ(svc.stats().deadline_exceeded, 0u);
}

TEST(ServeDeadlines, MidExecutionCancellationBillsZeroExactly) {
  ScanService::Config cfg = foreground_config();
  // Admission control off so the tiny budget reaches execution and the
  // cooperative-cancellation path fires at a strip-mine wave boundary.
  cfg.admission_control = false;
  ScanService svc(cfg);

  std::vector<std::future<Response>> healthy;
  healthy.push_back(svc.submit(make_request(Kind::kScan, iota_values(40), 1)));
  healthy.push_back(svc.submit(make_request(Kind::kSort, iota_values(32), 2)));
  Request doomed = make_request(Kind::kSort, iota_values(64), 3);
  doomed.deadline_insts = 8;
  std::future<Response> doomed_fut = svc.submit(std::move(doomed));
  svc.drain();

  for (auto& fut : healthy) EXPECT_TRUE(fut.get().ok());
  const Response resp = doomed_fut.get();
  EXPECT_EQ(resp.error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(resp.billed_total, 0u);  // the cancelled wave rolled back whole
  EXPECT_EQ(svc.billing().billed(3).total(), 0u);
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
  EXPECT_GT(svc.pool().abandoned_counts().total(), 0u);
  // Exactness survives cancellation: bills still sum to the merged ledger.
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

TEST(ServeDeadlines, ExpiredInQueueShedsUnexecuted) {
  ScanService::Config cfg = foreground_config();
  cfg.admission_control = false;
  cfg.max_batch = 1;  // one request per wave: the first wave ages the second
  ScanService svc(cfg);

  std::future<Response> first =
      svc.submit(make_request(Kind::kScan, iota_values(64), 1));
  Request stale = make_request(Kind::kScan, iota_values(32), 2);
  stale.deadline_insts = 1;
  std::future<Response> stale_fut = svc.submit(std::move(stale));
  svc.drain();

  EXPECT_TRUE(first.get().ok());
  const Response resp = stale_fut.get();
  EXPECT_EQ(resp.error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(resp.billed_total, 0u);  // shed before touching the pool
  EXPECT_EQ(svc.stats().expired_in_queue, 1u);
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

// --- priority shedding --------------------------------------------------------

TEST(ServePriority, InteractiveEvictsNewestBackgroundAtSaturation) {
  ScanService::Config cfg = foreground_config();
  cfg.queue_capacity = 2;
  ScanService svc(cfg);

  Request b1 = make_request(Kind::kScan, iota_values(16), 1);
  b1.priority = rvvsvm::serve::Priority::kBackground;
  Request b2 = make_request(Kind::kScan, iota_values(16), 2);
  b2.priority = rvvsvm::serve::Priority::kBackground;
  Request i1 = make_request(Kind::kScan, iota_values(16), 3);
  i1.priority = rvvsvm::serve::Priority::kInteractive;

  std::future<Response> b1_fut = svc.submit(std::move(b1));
  std::future<Response> b2_fut = svc.submit(std::move(b2));
  std::future<Response> i1_fut = svc.submit(std::move(i1));
  svc.drain();

  EXPECT_TRUE(b1_fut.get().ok());  // oldest background survives
  const Response shed = b2_fut.get();
  EXPECT_EQ(shed.error, ErrorCode::kShedOverload);  // newest victim first
  EXPECT_EQ(shed.billed_total, 0u);
  EXPECT_TRUE(i1_fut.get().ok());
  EXPECT_EQ(svc.stats().shed_overload, 1u);
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

TEST(ServePriority, SamePriorityOverflowStillRejectsQueueFull) {
  ScanService::Config cfg = foreground_config();
  cfg.queue_capacity = 1;
  ScanService svc(cfg);
  Request a = make_request(Kind::kScan, iota_values(8), 1);
  a.priority = rvvsvm::serve::Priority::kInteractive;
  Request b = make_request(Kind::kScan, iota_values(8), 2);
  b.priority = rvvsvm::serve::Priority::kInteractive;
  std::future<Response> a_fut = svc.submit(std::move(a));
  const Response resp = svc.submit(std::move(b)).get();
  EXPECT_EQ(resp.error, ErrorCode::kQueueFull);  // nobody below to shed
  EXPECT_EQ(svc.stats().rejected_queue_full, 1u);
  svc.drain();
  EXPECT_TRUE(a_fut.get().ok());
}

// --- per-tenant circuit breakers ----------------------------------------------

TEST(ServeBreaker, OpensAfterThresholdAndQuarantinesOnlyThatTenant) {
  ScanService::Config cfg = foreground_config();
  cfg.breaker = {.threshold = 2, .cooldown_vt = 1u << 30};
  ScanService svc(cfg);
  FaultInjector inj({.trap_at_instruction = 2, .persistent = true});

  for (int i = 0; i < 2; ++i) {
    Request poisoned = make_request(Kind::kScan, iota_values(24), 7);
    poisoned.chaos_hook = &inj;
    EXPECT_FALSE(svc.call(std::move(poisoned)).ok());
  }
  using State = rvvsvm::serve::TenantBreakers::State;
  EXPECT_EQ(svc.breakers().state(7), State::kOpen);
  EXPECT_EQ(svc.breakers().stats().opens, 1u);

  // The quarantined tenant is rejected in admission, unexecuted, unbilled.
  const Response rej = svc.call(make_request(Kind::kScan, iota_values(16), 7));
  EXPECT_EQ(rej.error, ErrorCode::kTenantQuarantined);
  EXPECT_EQ(rej.billed_total, 0u);
  EXPECT_EQ(svc.stats().rejected_quarantined, 1u);
  // Other tenants are untouched.
  EXPECT_TRUE(svc.call(make_request(Kind::kScan, iota_values(16), 8)).ok());
  EXPECT_EQ(svc.billing().billed(7).total(), 0u);
}

TEST(ServeBreaker, HalfOpenProbeClosesOnSuccess) {
  ScanService::Config cfg = foreground_config();
  cfg.breaker = {.threshold = 1, .cooldown_vt = 0};
  ScanService svc(cfg);
  FaultInjector inj({.trap_at_instruction = 2, .persistent = true});

  Request poisoned = make_request(Kind::kScan, iota_values(24), 7);
  poisoned.chaos_hook = &inj;
  EXPECT_FALSE(svc.call(std::move(poisoned)).ok());
  using State = rvvsvm::serve::TenantBreakers::State;
  EXPECT_EQ(svc.breakers().state(7), State::kOpen);

  // Cooldown elapsed (0 vt): the next arrival is the half-open probe; its
  // success closes the breaker and normal service resumes.
  EXPECT_TRUE(svc.call(make_request(Kind::kScan, iota_values(16), 7)).ok());
  EXPECT_EQ(svc.breakers().state(7), State::kClosed);
  EXPECT_EQ(svc.breakers().stats().probes, 1u);
  EXPECT_EQ(svc.breakers().stats().closes, 1u);
  EXPECT_TRUE(svc.call(make_request(Kind::kScan, iota_values(16), 7)).ok());
}

TEST(ServeBreaker, FailedProbeReopensWithFreshCooldown) {
  ScanService::Config cfg = foreground_config();
  cfg.breaker = {.threshold = 1, .cooldown_vt = 0};
  ScanService svc(cfg);
  FaultInjector inj({.trap_at_instruction = 2, .persistent = true});

  for (int i = 0; i < 2; ++i) {
    Request poisoned = make_request(Kind::kScan, iota_values(24), 7);
    poisoned.chaos_hook = &inj;
    EXPECT_FALSE(svc.call(std::move(poisoned)).ok());
  }
  // First failure opened the breaker; the second was the half-open probe
  // failing, which re-opens it (a fresh trip, not a threshold count).
  using State = rvvsvm::serve::TenantBreakers::State;
  EXPECT_EQ(svc.breakers().state(7), State::kOpen);
  EXPECT_EQ(svc.breakers().stats().opens, 2u);
  EXPECT_EQ(svc.breakers().stats().probes, 1u);
  EXPECT_EQ(svc.breakers().stats().closes, 0u);
}

// --- checkpoint robustness (ISSUE 10 satellite) -------------------------------

TEST(ServeCheckpoint, UnwritablePathCountsFailuresAndKeepsServing) {
  ScanService::Config cfg = foreground_config();
  cfg.checkpoint_every_waves = 1;
  cfg.checkpoint_path = "/nonexistent-dir-for-serve-test/pool.snap";
  ScanService svc(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(svc.call(make_request(Kind::kScan, iota_values(16))).ok());
  }
  const ScanService::Stats stats = svc.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_GE(stats.checkpoint_failures, 3u);
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
}

// --- background (daemon) mode -----------------------------------------------------

TEST(ServeBackground, SchedulerThreadExecutesSubmissions) {
  ScanService::Config cfg;
  cfg.harts = 2;
  cfg.background = true;
  ScanService svc(cfg);
  std::vector<std::future<Response>> futs;
  for (std::size_t j = 0; j < 8; ++j) {
    futs.push_back(
        svc.submit(make_request(Kind::kScan, iota_values(10 + j), 1 + j % 2)));
  }
  for (std::size_t j = 0; j < futs.size(); ++j) {
    const Response resp = futs[j].get();
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.data.size(), 10 + j);
    EXPECT_EQ(resp.data.front(), 1u);
  }
  svc.stop();
  EXPECT_EQ(svc.billing().grand_total(), svc.pool().merged_counts());
  EXPECT_EQ(svc.stats().completed, 8u);
}

}  // namespace
