// Differential properties for the serve:: multi-tenant service layer.
//
// Three claims (the ISSUE 7 contract):
//
//   * serve.coalesce — responses produced through the batching scheduler
//     (segmented-envelope coalescing across every coalescible kind) are
//     bit-identical in result data/scalars/pack-counts to direct svm::
//     execution of each request on a plain machine, and the sum of all
//     per-tenant bills equals the pool's merged instruction counts exactly,
//     class by class.
//
//   * serve.billing_chaos — under chaos-injected hart crashes and traps
//     (one-shot and persistent), per-tenant bills still sum exactly to the
//     pool's merged counts: rolled-back attempts are never billed, a
//     recovered request bills only its committed attempt, an unrecovered
//     request bills nothing and fails alone while every other in-flight
//     request completes.
//
//   * serve.admission — admission rejection never charges: budget-capped,
//     malformed and queue-overflow requests all leave their tenant's bill
//     untouched, and admitted work bills exactly what its responses say.
//
// ISSUE 10 adds the overload-containment claims:
//
//   * serve.deadline_chaos — with an injected hart fault in flight at the
//     same time as deadline-bearing requests (coalesced, individual, and
//     individual at or above the coalesce threshold), every deadline miss
//     surfaces as kDeadlineExceeded, healthy peers are untouched, and the
//     sum of bills still equals the merged pool ledger exactly — cancelled
//     attempts roll back whole into the abandoned ledger and bill nothing.
//
//   * serve.overload_shed — at queue saturation, higher-priority arrivals
//     evict exactly the newest lowest-priority queued requests
//     (kShedOverload, zero bill), same-priority overflow still rejects with
//     kQueueFull, and everything that executes bills exactly.
//
// All properties run the service in foreground mode (the caller pumps
// drain()), which makes every case single-threaded-deterministic in
// (seed, iteration).

#include <cstdint>
#include <future>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_injection.hpp"
#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "serve/service.hpp"
#include "sim/inst_counter.hpp"
#include "svm/svm.hpp"

namespace rvvsvm::check {

namespace {

using detail::norm_lmul;
using detail::norm_vlen;
using serve::Kind;
using serve::Value;

constexpr std::size_t kMaxMemberN = 96;

struct Shape {
  unsigned vlen;
  unsigned harts;
};

[[nodiscard]] Shape serve_shape(const Case& c) {
  Shape s;
  s.vlen = norm_vlen(c.vlen);
  s.harts = norm_lmul(c.harts);  // {1,2,4,8}
  return s;
}

[[nodiscard]] serve::ScanService::Config service_config(const Shape& s) {
  serve::ScanService::Config cfg;
  cfg.harts = s.harts;
  cfg.machine.vlen_bits = s.vlen;
  cfg.queue_capacity = 4096;
  cfg.max_batch = 4096;
  cfg.background = false;  // the property pumps drain() — deterministic
  return cfg;
}

/// Draw the next payload value from the case's operand stream.
class ValueStream {
 public:
  explicit ValueStream(const Case& c) : c_(c) {}
  [[nodiscard]] Value next() {
    if (c_.a.empty()) return static_cast<Value>(i_++);
    return static_cast<Value>(c_.a[i_++ % c_.a.size()]);
  }

 private:
  const Case& c_;
  std::size_t i_ = 0;
};

/// Direct (no service) execution of one request on a plain machine — the
/// reference the coalesced responses must match bit-for-bit.
[[nodiscard]] serve::Response direct_reference(const serve::Request& r,
                                               unsigned vlen) {
  serve::Response resp;
  rvv::Machine machine({.vlen_bits = vlen});
  rvv::MachineScope scope(machine);
  switch (r.kind) {
    case Kind::kScan: {
      resp.data.assign(r.data.begin(), r.data.end());
      svm::plus_scan<Value>(std::span<Value>(resp.data));
      break;
    }
    case Kind::kScanExclusive: {
      resp.data.assign(r.data.begin(), r.data.end());
      svm::plus_scan_exclusive<Value>(std::span<Value>(resp.data));
      break;
    }
    case Kind::kReduce:
      resp.scalar =
          svm::reduce<svm::PlusOp, Value>(std::span<const Value>(r.data));
      break;
    case Kind::kCompress: {
      resp.data.assign(r.data.size(), Value{0});
      resp.out_size = svm::pack<Value>(std::span<const Value>(r.data),
                                       std::span<Value>(resp.data),
                                       std::span<const Value>(r.flags));
      resp.data.resize(resp.out_size);
      break;
    }
    case Kind::kHistogram:
    case Kind::kSort:
      break;  // not exercised by the coalesce property
  }
  return resp;
}

[[nodiscard]] std::string diff_ledgers(const char* name,
                                       const sim::CountSnapshot& bills,
                                       const sim::CountSnapshot& merged) {
  for (std::size_t k = 0; k < sim::kNumInstClasses; ++k) {
    const auto cls = static_cast<sim::InstClass>(k);
    if (bills.count(cls) != merged.count(cls)) {
      std::ostringstream msg;
      msg << name << ": tenant bills do not sum to the pool ledger for "
          << sim::to_string(cls) << " (billed " << bills.count(cls)
          << " vs merged " << merged.count(cls) << ")";
      return msg.str();
    }
  }
  return "";
}

Case gen_serve(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  static constexpr unsigned kHarts[] = {1, 2, 4, 8};
  c.harts = kHarts[rng.below(4)];
  c.vl = rng.below(512);
  detail::gen_values(rng, c.a, 256);
  detail::gen_values(rng, c.b, 24);  // member-size material
  c.scalar = rng.next();
  c.offset = rng.below(64);
  return c;
}

// --- properties -------------------------------------------------------------

std::string check_coalesce(const Case& c) {
  const Shape s = serve_shape(c);
  serve::ScanService svc(service_config(s));

  struct Member {
    serve::Request req;
    std::future<serve::Response> fut;
  };
  static constexpr Kind kKinds[] = {Kind::kScan, Kind::kScanExclusive,
                                    Kind::kReduce, Kind::kCompress};
  const std::size_t per_kind = 2 + c.offset % 4;  // 2..5 members per kind
  ValueStream values(c);
  std::vector<Member> members;
  std::vector<std::size_t> nonempty_per_kind(serve::kNumRequestKinds, 0);

  std::size_t mi = 0;
  for (const Kind kind : kKinds) {
    for (std::size_t j = 0; j < per_kind; ++j, ++mi) {
      serve::Request r;
      r.tenant = 1 + (mi % 3);
      r.kind = kind;
      const std::size_t n =
          c.b.empty() ? (mi * 7 + c.vl) % kMaxMemberN
                      : static_cast<std::size_t>(c.b[mi % c.b.size()]) %
                            kMaxMemberN;
      r.data.reserve(n);
      for (std::size_t e = 0; e < n; ++e) r.data.push_back(values.next());
      if (kind == Kind::kCompress) {
        r.flags.reserve(n);
        for (std::size_t e = 0; e < n; ++e) {
          r.flags.push_back(static_cast<Value>(values.next() & 1u));
        }
      }
      if (n != 0) ++nonempty_per_kind[static_cast<std::size_t>(kind)];
      Member m;
      m.req = r;
      m.fut = svc.submit(std::move(r));
      members.push_back(std::move(m));
    }
  }

  svc.drain();

  sim::InstCounter billed_by_responses;
  for (Member& m : members) {
    serve::Response resp = m.fut.get();
    if (!resp.ok()) {
      return std::string("serve.coalesce: unexpected error response '") +
             serve::to_string(resp.error) + "' for " +
             serve::to_string(m.req.kind);
    }
    const serve::Response expect = direct_reference(m.req, s.vlen);
    if (resp.data != expect.data || resp.scalar != expect.scalar ||
        resp.out_size != expect.out_size) {
      std::ostringstream msg;
      msg << "serve.coalesce: " << serve::to_string(m.req.kind) << " (n="
          << m.req.data.size() << ") diverges from direct svm:: execution";
      return msg.str();
    }
    // Everything small, same-kind and >=2 strong must actually coalesce.
    const bool expect_coalesced =
        !m.req.data.empty() &&
        nonempty_per_kind[static_cast<std::size_t>(m.req.kind)] >= 2;
    if (expect_coalesced && !resp.coalesced) {
      return std::string("serve.coalesce: ") + serve::to_string(m.req.kind) +
             " batch member executed uncoalesced";
    }
    billed_by_responses.add_all(resp.bill);
  }

  // Exact billing: response bills == tenant ledger == pool merged counts.
  const sim::CountSnapshot ledger = svc.billing().grand_total();
  if (!(billed_by_responses.snapshot() == ledger)) {
    return "serve.coalesce: response bills disagree with the tenant ledger";
  }
  return diff_ledgers("serve.coalesce", ledger, svc.pool().merged_counts());
}

std::string check_billing_chaos(const Case& c) {
  const Shape s = serve_shape(c);
  serve::ScanService::Config cfg = service_config(s);
  cfg.coalesce_threshold = 128;  // one healthy scan runs at or above it
  cfg.recovery = {.max_retries = 1, .fallback_inline = true};
  serve::ScanService svc(cfg);

  const bool crash = (c.scalar & 1) != 0;
  const bool persistent = (c.scalar & 2) != 0;
  FaultInjector inj({.trap_at_instruction = 1 + c.offset % 40,
                     .crash = crash,
                     .persistent = persistent});

  ValueStream values(c);
  auto make_request = [&](Kind kind, std::size_t n,
                          sim::TenantId tenant) -> serve::Request {
    serve::Request r;
    r.tenant = tenant;
    r.kind = kind;
    r.data.reserve(n);
    for (std::size_t e = 0; e < n; ++e) r.data.push_back(values.next());
    if (kind == Kind::kCompress) {
      r.flags.reserve(n);
      for (std::size_t e = 0; e < n; ++e) {
        r.flags.push_back(static_cast<Value>(values.next() & 1u));
      }
    }
    if (kind == Kind::kHistogram) {
      r.bins = 16;
      for (Value& v : r.data) v %= 16;
    }
    return r;
  };

  // A healthy mixed wave: coalescible pairs, an individual histogram and
  // sort, and one scan at or above the threshold (individual too).
  std::vector<std::future<serve::Response>> healthy;
  healthy.push_back(svc.submit(make_request(Kind::kScan, 40 + c.vl % 32, 1)));
  healthy.push_back(svc.submit(make_request(Kind::kScan, 24, 2)));
  healthy.push_back(svc.submit(make_request(Kind::kReduce, 50, 1)));
  healthy.push_back(svc.submit(make_request(Kind::kReduce, 33, 3)));
  healthy.push_back(svc.submit(make_request(Kind::kHistogram, 48, 2)));
  healthy.push_back(svc.submit(make_request(Kind::kSort, 30, 3)));
  healthy.push_back(
      svc.submit(make_request(Kind::kScan, 128 + c.vl % 256, 1)));

  // The poisoned request: individual path, hook installed for its attempts.
  static constexpr Kind kChaosKinds[] = {Kind::kScan, Kind::kReduce,
                                         Kind::kCompress, Kind::kSort};
  serve::Request poisoned =
      make_request(kChaosKinds[(c.scalar >> 2) % 4], 16 + c.vl % 64, 9);
  poisoned.chaos_hook = &inj;
  std::future<serve::Response> chaos_fut = svc.submit(std::move(poisoned));

  svc.drain();

  for (std::size_t i = 0; i < healthy.size(); ++i) {
    const serve::Response resp = healthy[i].get();
    if (!resp.ok()) {
      std::ostringstream msg;
      msg << "serve.billing_chaos: healthy request " << i
          << " failed with '" << serve::to_string(resp.error)
          << "' — fault not isolated to the poisoned request";
      return msg.str();
    }
  }

  const serve::Response chaos_resp = chaos_fut.get();
  if (inj.fired() == 0) {
    if (!chaos_resp.ok()) {
      return "serve.billing_chaos: injector never fired but the request "
             "failed";
    }
  } else if (persistent) {
    // Fails the hart attempt, the retry, and the inline fallback.
    if (chaos_resp.ok()) {
      return "serve.billing_chaos: persistent fault yielded a success";
    }
    const serve::ErrorCode expect =
        crash ? serve::ErrorCode::kWorkerCrash
              : serve::ErrorCode::kFaultInjected;
    if (chaos_resp.error != expect) {
      return std::string("serve.billing_chaos: expected '") +
             serve::to_string(expect) + "' got '" +
             serve::to_string(chaos_resp.error) + "'";
    }
    if (chaos_resp.bill.total() != 0) {
      return "serve.billing_chaos: failed request carries a non-zero bill";
    }
    if (svc.pool().abandoned_counts().total() == 0) {
      return "serve.billing_chaos: rolled-back attempts missing from the "
             "abandoned ledger";
    }
  } else {
    // One-shot fault: the retry (or fallback) commits invisibly.
    if (!chaos_resp.ok()) {
      return std::string(
                 "serve.billing_chaos: one-shot fault was not recovered (") +
             serve::to_string(chaos_resp.error) + ")";
    }
  }

  // The invariant under test: bills sum exactly to the pool ledger even
  // with rolled-back attempts in the epoch.
  return diff_ledgers("serve.billing_chaos", svc.billing().grand_total(),
                      svc.pool().merged_counts());
}

std::string check_admission(const Case& c) {
  const Shape s = serve_shape(c);
  serve::ScanService::Config cfg = service_config(s);
  cfg.queue_capacity = 2;
  serve::ScanService svc(cfg);

  ValueStream values(c);
  auto small = [&](Kind kind, sim::TenantId tenant) -> serve::Request {
    serve::Request r;
    r.tenant = tenant;
    r.kind = kind;
    const std::size_t n = 8 + c.vl % 24;
    for (std::size_t e = 0; e < n; ++e) r.data.push_back(values.next());
    if (kind == Kind::kCompress) r.flags.assign(n, Value{1});
    return r;
  };

  // (a) Budget below the minimum estimate: every request rejected, zero bill.
  svc.set_budget(7, c.scalar % 8);  // estimate() floor is 16
  for (int i = 0; i < 3; ++i) {
    serve::Response resp = svc.call(small(Kind::kScan, 7));
    if (resp.error != serve::ErrorCode::kBudgetExceeded) {
      return "serve.admission: under-budget request not rejected";
    }
    if (resp.bill.total() != 0) {
      return "serve.admission: budget rejection carries a bill";
    }
  }
  if (svc.billing().billed(7).total() != 0) {
    return "serve.admission: budget-rejected tenant was charged";
  }

  // (b) Malformed shapes: rejected before the queue, zero bill.
  serve::Request bad_flags = small(Kind::kCompress, 8);
  bad_flags.flags.pop_back();
  if (svc.call(std::move(bad_flags)).error != serve::ErrorCode::kMalformed) {
    return "serve.admission: compress flag-length mismatch admitted";
  }
  serve::Request bad_bins = small(Kind::kHistogram, 8);
  bad_bins.bins = 0;
  if (svc.call(std::move(bad_bins)).error != serve::ErrorCode::kMalformed) {
    return "serve.admission: zero-bin histogram admitted";
  }
  if (svc.billing().billed(8).total() != 0) {
    return "serve.admission: malformed-rejected tenant was charged";
  }

  // (c) Queue overflow: capacity 2, five submissions before any drain —
  // exactly the overflow is rejected, and only executed work is billed.
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 5; ++i) futs.push_back(svc.submit(small(Kind::kScan, 9)));
  svc.drain();
  sim::InstCounter billed;
  std::size_t rejected = 0;
  for (auto& fut : futs) {
    serve::Response resp = fut.get();
    if (resp.error == serve::ErrorCode::kQueueFull) {
      ++rejected;
      if (resp.bill.total() != 0) {
        return "serve.admission: queue-full rejection carries a bill";
      }
    } else if (resp.ok()) {
      billed.add_all(resp.bill);
    } else {
      return std::string("serve.admission: unexpected '") +
             serve::to_string(resp.error) + "' during overflow";
    }
  }
  if (rejected != 3) {
    return "serve.admission: capacity-2 queue did not reject exactly the "
           "overflow";
  }
  if (!(billed.snapshot() == svc.billing().billed(9))) {
    return "serve.admission: tenant ledger disagrees with admitted bills";
  }
  return diff_ledgers("serve.admission", svc.billing().grand_total(),
                      svc.pool().merged_counts());
}

std::string check_deadline_chaos(const Case& c) {
  const Shape s = serve_shape(c);
  serve::ScanService::Config cfg = service_config(s);
  cfg.coalesce_threshold = 1024;  // doomed multi-wave scans stay coalesced
  cfg.recovery = {.max_retries = 1, .fallback_inline = true};
  // Admission control off so arbitrarily tight deadlines reach execution —
  // this property exercises the cancellation machinery, not the gate.
  cfg.admission_control = false;
  serve::ScanService svc(cfg);

  const bool crash = (c.scalar & 1) != 0;
  FaultInjector inj({.trap_at_instruction = 1 + c.offset % 40,
                     .crash = crash,
                     .persistent = true});

  ValueStream values(c);
  auto make_request = [&](Kind kind, std::size_t n, sim::TenantId tenant,
                          std::uint64_t deadline) -> serve::Request {
    serve::Request r;
    r.tenant = tenant;
    r.kind = kind;
    r.deadline_insts = deadline;
    r.data.reserve(n);
    for (std::size_t e = 0; e < n; ++e) r.data.push_back(values.next());
    return r;
  };

  // Healthy peers with roomy deadlines (every kernel here costs well under
  // a million instructions), on both execution paths.
  std::vector<std::future<serve::Response>> healthy;
  healthy.push_back(
      svc.submit(make_request(Kind::kScan, 40 + c.vl % 32, 1, 1u << 20)));
  healthy.push_back(svc.submit(make_request(Kind::kScan, 24, 2, 1u << 20)));
  healthy.push_back(svc.submit(make_request(Kind::kSort, 30, 3, 0)));
  healthy.push_back(
      svc.submit(make_request(Kind::kScan, 1024 + c.vl % 256, 1, 1u << 20)));

  // Deadline-doomed requests: budgets of a handful of instructions cancel
  // at an early strip-mine boundary on both paths — a coalesced pair (the
  // group cancels, then each member re-cancels in the fallback), an
  // individual sort, and a scan past the threshold, which runs alone on one
  // hart.  The wave-boundary cancellation contract only fires at the
  // *second* vsetvl, so every doomed scan must strip-mine at least twice
  // under the widest possible vector: n > VLMAX(vlen=1024, LMUL=8, 32-bit)
  // = 256.
  const std::uint64_t tight = 4 + c.offset % 8;
  std::vector<std::future<serve::Response>> doomed;
  doomed.push_back(svc.submit(make_request(Kind::kScan, 600, 5, tight)));
  doomed.push_back(svc.submit(make_request(Kind::kScan, 520, 5, tight)));
  doomed.push_back(svc.submit(make_request(Kind::kSort, 300, 6, tight)));
  doomed.push_back(svc.submit(make_request(Kind::kScan, 4608, 6, tight)));

  // The chaos request: a persistent injected fault (or crash) in the same
  // waves as the deadline-bearing batch.
  serve::Request poisoned = make_request(Kind::kReduce, 16 + c.vl % 64, 9, 0);
  poisoned.chaos_hook = &inj;
  std::future<serve::Response> chaos_fut = svc.submit(std::move(poisoned));

  svc.drain();

  for (std::size_t i = 0; i < healthy.size(); ++i) {
    const serve::Response resp = healthy[i].get();
    if (!resp.ok()) {
      std::ostringstream msg;
      msg << "serve.deadline_chaos: healthy request " << i << " failed with '"
          << serve::to_string(resp.error) << "'";
      return msg.str();
    }
  }
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    const serve::Response resp = doomed[i].get();
    if (resp.error != serve::ErrorCode::kDeadlineExceeded) {
      std::ostringstream msg;
      msg << "serve.deadline_chaos: doomed request " << i
          << " ended with '" << serve::to_string(resp.error)
          << "' instead of deadline_exceeded";
      return msg.str();
    }
  }
  const serve::Response chaos_resp = chaos_fut.get();
  if (inj.fired() > 0 && chaos_resp.ok()) {
    return "serve.deadline_chaos: persistent fault yielded a success";
  }
  if (svc.pool().abandoned_counts().total() == 0) {
    return "serve.deadline_chaos: cancelled waves missing from the "
           "abandoned ledger";
  }

  // The tentpole invariant: cancellation + chaos leave the bills exact.
  return diff_ledgers("serve.deadline_chaos", svc.billing().grand_total(),
                      svc.pool().merged_counts());
}

std::string check_overload_shed(const Case& c) {
  const Shape s = serve_shape(c);
  serve::ScanService::Config cfg = service_config(s);
  cfg.queue_capacity = 4;
  serve::ScanService svc(cfg);

  ValueStream values(c);
  auto request = [&](serve::Priority prio) -> serve::Request {
    serve::Request r;
    r.tenant = 1 + static_cast<sim::TenantId>(prio);
    r.kind = Kind::kScan;
    const std::size_t n = 8 + c.vl % 24;
    for (std::size_t e = 0; e < n; ++e) r.data.push_back(values.next());
    r.priority = prio;
    return r;
  };

  // Fill the queue with background work, then saturate: interactive
  // arrivals must evict background victims (newest first), and a further
  // background arrival with no one below it must get a flat kQueueFull.
  std::vector<std::future<serve::Response>> background;
  for (int i = 0; i < 4; ++i) {
    background.push_back(svc.submit(request(serve::Priority::kBackground)));
  }
  const std::size_t evictions = 1 + c.offset % 3;  // 1..3
  std::vector<std::future<serve::Response>> interactive;
  for (std::size_t i = 0; i < evictions; ++i) {
    interactive.push_back(svc.submit(request(serve::Priority::kInteractive)));
  }
  serve::Response full = svc.submit(request(serve::Priority::kBackground)).get();
  if (full.error != serve::ErrorCode::kQueueFull) {
    return std::string("serve.overload_shed: bottom-class overflow got '") +
           serve::to_string(full.error) + "' instead of queue_full";
  }

  svc.drain();

  std::size_t shed = 0;
  sim::InstCounter billed;
  for (std::size_t i = 0; i < background.size(); ++i) {
    const serve::Response resp = background[i].get();
    if (resp.error == serve::ErrorCode::kShedOverload) {
      ++shed;
      if (resp.bill.total() != 0) {
        return "serve.overload_shed: shed request carries a bill";
      }
      // Newest-first eviction: only the tail of the background class sheds.
      if (i < background.size() - evictions) {
        return "serve.overload_shed: shed victim was not the newest queued "
               "background request";
      }
    } else if (resp.ok()) {
      billed.add_all(resp.bill);
    } else {
      return std::string("serve.overload_shed: unexpected '") +
             serve::to_string(resp.error) + "' on a background request";
    }
  }
  if (shed != evictions) {
    std::ostringstream msg;
    msg << "serve.overload_shed: " << evictions << " interactive arrivals shed "
        << shed << " background requests";
    return msg.str();
  }
  for (auto& fut : interactive) {
    const serve::Response resp = fut.get();
    if (!resp.ok()) {
      return std::string("serve.overload_shed: interactive request failed "
                         "with '") +
             serve::to_string(resp.error) + "'";
    }
    billed.add_all(resp.bill);
  }
  if (!(billed.snapshot() == svc.billing().grand_total())) {
    return "serve.overload_shed: response bills disagree with the ledger";
  }
  return diff_ledgers("serve.overload_shed", svc.billing().grand_total(),
                      svc.pool().merged_counts());
}

}  // namespace

std::vector<Property> make_serve_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name,
                 std::function<std::string(const Case&)> check) {
    props.push_back(Property{name, "serve", gen_serve, std::move(check)});
  };
  add("serve.coalesce", check_coalesce);
  add("serve.billing_chaos", check_billing_chaos);
  add("serve.admission", check_admission);
  add("serve.deadline_chaos", check_deadline_chaos);
  add("serve.overload_shed", check_overload_shed);
  return props;
}

}  // namespace rvvsvm::check
