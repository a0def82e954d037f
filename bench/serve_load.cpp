// serve_load — open-loop load driver for the multi-tenant scan service.
//
//   serve_load [--seed N] [--requests N] [--harts-list 1,2,4,8]
//              [--vlen BITS] [--min-rps X] [--max-p99-ms X]
//              [--json PATH] [--smoke]
//
// For each hart count it stands up a background ScanService, replays a
// seeded mixed workload (all six request kinds, three tenants, sizes from
// tiny coalescible strips to large requests that each run on one hart) in
// bounded open-loop bursts, and reports sustained requests/sec plus p50/p99
// end-to-end latency.  A final chaos run poisons a fixed fraction of
// requests with persistent injected hart crashes and checks the service's
// isolation contract: exactly the poisoned requests fail, everything else
// completes, and throughput stays above zero.
//
// Two overload-containment scenarios (ISSUE 10) follow, both hard gates:
//
//   * overload — a seeded 2x-queue-capacity open-loop burst with all three
//     priority classes and per-request deadlines.  Gates: nothing but the
//     two lowest classes is ever shed, every shed/reject decision lands at
//     admission (before any execution), accepted p99 virtual-time latency
//     stays under the deadline, and bills remain exact with shed and
//     cancelled requests in the mix.
//
//   * breaker — a tenant whose requests always fault, interleaved 1-in-10
//     with healthy traffic under per-tenant circuit breakers.  Gates: the
//     breaker trips (later poisoned arrivals are quarantined unexecuted),
//     every healthy request completes, and the pool instructions wasted on
//     the rogue tenant stay within 10% of all retired work.
//
// --min-rps / --max-p99-ms turn the report into a CI gate (applied to the
// highest-hart healthy run).  The JSON written by --json is the
// BENCH_serve.json contract.
//
// A row's `billed_instructions` is not a count of the seeded workload: the
// service runs in background mode, so which requests coalesce depends on
// how waves form by arrival time, and a coalesced bill differs from an
// individual one.  Runs of one build differ by a few thousand instructions.
// The exact check is `bills_exact`: the sum of bills equals the pool's
// merged counts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/fault_injection.hpp"
#include "check/rng.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rvvsvm::check::FaultInjector;
using rvvsvm::check::Rng;
using rvvsvm::serve::ErrorCode;
using rvvsvm::serve::Kind;
using rvvsvm::serve::Request;
using rvvsvm::serve::Response;
using rvvsvm::serve::ScanService;
using rvvsvm::serve::Value;

struct Options {
  std::uint64_t seed = 1;
  std::size_t requests = 2000;
  std::vector<unsigned> harts{1, 2, 4, 8};
  unsigned vlen = 256;
  double min_rps = 0.0;      ///< 0 = no gate
  double max_p99_ms = 0.0;   ///< 0 = no gate
  std::string json_path;
  bool smoke = false;
};

struct RunResult {
  const char* mode = "throughput";  ///< throughput | chaos | overload | breaker
  unsigned harts = 0;
  bool chaos = false;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  std::size_t poisoned = 0;  ///< chaos runs: requests carrying an injector
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t billed_instructions = 0;
  std::uint64_t merged_instructions = 0;
  bool bills_exact = false;  ///< sum of bills == pool merged counts
  // Overload/breaker scenario counters (zero elsewhere).
  std::size_t shed = 0;              ///< kShedOverload responses
  std::size_t interactive_shed = 0;  ///< sheds that hit the top class (gate: 0)
  std::size_t deadline_exceeded = 0; ///< expired-in-queue + cancelled
  std::size_t quarantined = 0;       ///< kTenantQuarantined responses
  std::uint64_t vt_p99 = 0;          ///< p99 virtual-time latency (accepted)
  std::uint64_t deadline_vt = 0;     ///< the per-request deadline budget used
  double waste_fraction = 0.0;       ///< abandoned / (merged + abandoned)
  bool sheds_decided_at_admission = false;
};

/// Deterministic mixed workload: mostly small coalescible strips, some
/// individual-path kinds, a few large requests (individual path too).
[[nodiscard]] Request gen_request(Rng& rng, std::size_t large_threshold) {
  Request req;
  req.tenant = 1 + rng.below(3);
  const std::uint64_t roll = rng.below(100);
  if (roll < 30) {
    req.kind = Kind::kScan;
  } else if (roll < 45) {
    req.kind = Kind::kScanExclusive;
  } else if (roll < 65) {
    req.kind = Kind::kReduce;
  } else if (roll < 80) {
    req.kind = Kind::kCompress;
  } else if (roll < 90) {
    req.kind = Kind::kHistogram;
  } else {
    req.kind = Kind::kSort;
  }

  std::size_t n = 0;
  const std::uint64_t size_roll = rng.below(100);
  if (size_roll < 70) {
    n = 1 + rng.below(64);  // coalescible strip
  } else if (size_roll < 95) {
    n = 64 + rng.below(large_threshold > 64 ? large_threshold - 64 : 64);
  } else {
    n = large_threshold + rng.below(large_threshold);  // one hart each
  }
  if (req.kind == Kind::kSort && n > 512) n = 512;  // keep sort passes sane

  req.data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    req.data.push_back(static_cast<Value>(rng.next() & 0xFFFFu));
  }
  if (req.kind == Kind::kCompress) {
    req.flags.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      req.flags.push_back(static_cast<Value>(rng.next() & 1u));
    }
  }
  if (req.kind == Kind::kHistogram) {
    req.bins = 64;
    for (Value& v : req.data) v %= 64;
  }
  return req;
}

RunResult run_load(const Options& opt, unsigned harts, bool chaos) {
  RunResult r;
  r.mode = chaos ? "chaos" : "throughput";
  r.harts = harts;
  r.chaos = chaos;
  r.requests = opt.requests;

  ScanService::Config cfg;
  cfg.harts = harts;
  cfg.machine.vlen_bits = opt.vlen;
  cfg.queue_capacity = 4096;
  cfg.coalesce_threshold = 1024;
  cfg.background = true;
  ScanService svc(cfg);

  // Seeded from opt.seed alone: every hart count replays the same request
  // mix, so the 1/2/4/8-hart rows compare like with like.
  Rng rng(opt.seed);
  std::vector<Request> workload;
  workload.reserve(opt.requests);
  for (std::size_t i = 0; i < opt.requests; ++i) {
    workload.push_back(gen_request(rng, cfg.coalesce_threshold));
  }

  // Chaos: every 97th request carries a persistent injected crash — it must
  // fail alone.  Injectors live here so they outlive their requests.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<char> poisoned(workload.size(), 0);
  if (chaos) {
    for (std::size_t i = 13; i < workload.size(); i += 97) {
      injectors.push_back(std::make_unique<FaultInjector>(
          FaultInjector::Plan{.trap_at_instruction = 1 + (i % 7),
                              .crash = (i % 2) == 0,
                              .persistent = true}));
      workload[i].chaos_hook = injectors.back().get();
      poisoned[i] = 1;
      ++r.poisoned;
    }
  }

  // Open-loop submission in bounded bursts: fire a burst without waiting,
  // then collect it, so the queue and the batching scheduler stay loaded
  // without the driver outrunning the bounded queue.
  constexpr std::size_t kBurst = 256;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(workload.size());
  std::size_t chaos_failed_on_poisoned = 0;

  const auto t0 = Clock::now();
  std::size_t next = 0;
  while (next < workload.size()) {
    const std::size_t burst_end = std::min(next + kBurst, workload.size());
    std::vector<std::future<Response>> futs;
    std::vector<Clock::time_point> submit_times;
    std::vector<std::size_t> ids;
    futs.reserve(burst_end - next);
    for (std::size_t i = next; i < burst_end; ++i) {
      submit_times.push_back(Clock::now());
      futs.push_back(svc.submit(Request(workload[i])));
      ids.push_back(i);
    }
    for (std::size_t j = 0; j < futs.size(); ++j) {
      const Response resp = futs[j].get();
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - submit_times[j])
                            .count();
      if (resp.ok()) {
        ++r.completed;
        latencies_ms.push_back(ms);
      } else if (resp.error == ErrorCode::kQueueFull) {
        ++r.rejected;
      } else {
        ++r.failed;
        if (poisoned[ids[j]] != 0) ++chaos_failed_on_poisoned;
      }
    }
    next = burst_end;
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.rps = r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    r.p50_ms = latencies_ms[latencies_ms.size() / 2];
    r.p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
  }

  svc.stop();
  r.billed_instructions = svc.billing().grand_total().total();
  r.merged_instructions = svc.pool().merged_counts().total();
  r.bills_exact =
      svc.billing().grand_total() == svc.pool().merged_counts();

  if (chaos) {
    // Isolation contract: exactly the poisoned requests fail.
    if (r.failed != r.poisoned || chaos_failed_on_poisoned != r.failed) {
      std::cerr << "serve_load: CHAOS ISOLATION VIOLATION — poisoned "
                << r.poisoned << ", failed " << r.failed << " ("
                << chaos_failed_on_poisoned << " on poisoned requests)\n";
    }
  }
  return r;
}

// Seeded 2x-queue-capacity open-loop overload burst, foreground mode so the
// saturation point (and therefore every shed decision) is deterministic in
// the seed.  All three priority classes arrive round-robin, every request
// carries the same virtual-time deadline.
RunResult run_overload(const Options& opt, unsigned harts) {
  RunResult r;
  r.mode = "overload";
  r.harts = harts;

  ScanService::Config cfg;
  cfg.harts = harts;
  cfg.machine.vlen_bits = opt.vlen;
  cfg.queue_capacity = 64;
  cfg.coalesce_threshold = 1024;
  cfg.background = false;
  ScanService svc(cfg);

  const std::size_t total = cfg.queue_capacity * 2;  // 2x capacity, open loop
  r.requests = total;
  constexpr std::uint64_t kDeadlineVt = 1u << 26;
  r.deadline_vt = kDeadlineVt;

  Rng rng(opt.seed * 7777u + harts);
  struct Slot {
    std::future<Response> fut;
    rvvsvm::serve::Priority prio = rvvsvm::serve::Priority::kBatch;
    bool decided_at_admission = false;
  };
  std::vector<Slot> slots;
  slots.reserve(total);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    Request req = gen_request(rng, cfg.coalesce_threshold);
    req.priority = static_cast<rvvsvm::serve::Priority>(i % 3);
    req.deadline_insts = kDeadlineVt;
    Slot slot;
    slot.prio = req.priority;
    slot.fut = svc.submit(std::move(req));
    slots.push_back(std::move(slot));
  }
  // Nothing has executed yet (foreground mode): every future that is
  // already decided was shed or rejected purely at admission.
  for (Slot& s : slots) {
    s.decided_at_admission =
        s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }
  svc.drain();
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<std::uint64_t> vt_latencies;
  bool late_rejection = false;
  for (Slot& s : slots) {
    const Response resp = s.fut.get();
    switch (resp.error) {
      case ErrorCode::kOk:
        ++r.completed;
        vt_latencies.push_back(resp.vt_latency);
        break;
      case ErrorCode::kShedOverload:
        ++r.shed;
        if (s.prio == rvvsvm::serve::Priority::kInteractive) {
          ++r.interactive_shed;
        }
        if (!s.decided_at_admission) late_rejection = true;
        break;
      case ErrorCode::kQueueFull:
      case ErrorCode::kDeadlineUnmeetable:
        ++r.rejected;
        if (!s.decided_at_admission) late_rejection = true;
        break;
      case ErrorCode::kDeadlineExceeded:
        ++r.deadline_exceeded;
        ++r.failed;
        break;
      default:
        ++r.failed;
        break;
    }
  }
  r.sheds_decided_at_admission = !late_rejection;
  r.rps = r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
  if (!vt_latencies.empty()) {
    std::sort(vt_latencies.begin(), vt_latencies.end());
    r.vt_p99 = vt_latencies[(vt_latencies.size() * 99) / 100];
  }

  svc.stop();
  r.billed_instructions = svc.billing().grand_total().total();
  r.merged_instructions = svc.pool().merged_counts().total();
  r.bills_exact = svc.billing().grand_total() == svc.pool().merged_counts();
  const double abandoned =
      static_cast<double>(svc.pool().abandoned_counts().total());
  const double retired = static_cast<double>(r.merged_instructions) + abandoned;
  r.waste_fraction = retired > 0.0 ? abandoned / retired : 0.0;
  return r;
}

// Breaker isolation: one tenant in ten requests always faults; per-tenant
// circuit breakers must quarantine it after the threshold so the pool stops
// burning retries on it, while every healthy request still completes.
RunResult run_breaker(const Options& opt, unsigned harts) {
  RunResult r;
  r.mode = "breaker";
  r.harts = harts;

  ScanService::Config cfg;
  cfg.harts = harts;
  cfg.machine.vlen_bits = opt.vlen;
  cfg.coalesce_threshold = 1024;
  cfg.background = false;
  cfg.breaker = {.threshold = 3, .cooldown_vt = std::uint64_t{1} << 40};
  ScanService svc(cfg);

  const std::size_t total = std::min<std::size_t>(opt.requests, 400);
  r.requests = total;
  Rng rng(opt.seed * 31337u + harts);
  // One injector per poisoned request: poisoned requests in one wave run on
  // different harts, and an injector's counters are not synchronized.
  std::vector<std::unique_ptr<FaultInjector>> injectors;

  // Submit in bursts with a drain between them so breaker trips from one
  // burst shape admission in the next — the daemon steady state, serialized.
  constexpr std::size_t kBurst = 32;
  std::size_t healthy_failed = 0;
  std::size_t poisoned_executed_failures = 0;
  const auto t0 = Clock::now();
  std::size_t next = 0;
  while (next < total) {
    const std::size_t burst_end = std::min(next + kBurst, total);
    std::vector<std::future<Response>> futs;
    std::vector<char> is_poisoned;
    for (std::size_t i = next; i < burst_end; ++i) {
      Request req;
      if (i % 10 == 0) {
        req = gen_request(rng, cfg.coalesce_threshold);
        req.data.resize(std::min<std::size_t>(req.data.size(), 24));
        req.kind = Kind::kScan;
        req.flags.clear();
        req.tenant = 9;
        injectors.push_back(std::make_unique<FaultInjector>(
            FaultInjector::Plan{.trap_at_instruction = 2, .persistent = true}));
        req.chaos_hook = injectors.back().get();
        ++r.poisoned;
      } else {
        req = gen_request(rng, cfg.coalesce_threshold);
        if (req.tenant == 9) req.tenant = 1;
      }
      is_poisoned.push_back(i % 10 == 0 ? 1 : 0);
      futs.push_back(svc.submit(std::move(req)));
    }
    svc.drain();
    for (std::size_t j = 0; j < futs.size(); ++j) {
      const Response resp = futs[j].get();
      if (resp.ok()) {
        ++r.completed;
      } else if (resp.error == ErrorCode::kTenantQuarantined) {
        ++r.quarantined;
      } else {
        ++r.failed;
        if (is_poisoned[j] != 0) {
          ++poisoned_executed_failures;
        } else {
          ++healthy_failed;
        }
      }
    }
    next = burst_end;
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.rps = r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;

  svc.stop();
  r.billed_instructions = svc.billing().grand_total().total();
  r.merged_instructions = svc.pool().merged_counts().total();
  r.bills_exact = svc.billing().grand_total() == svc.pool().merged_counts();
  const double abandoned =
      static_cast<double>(svc.pool().abandoned_counts().total());
  const double retired = static_cast<double>(r.merged_instructions) + abandoned;
  r.waste_fraction = retired > 0.0 ? abandoned / retired : 0.0;
  if (healthy_failed != 0) {
    std::cerr << "serve_load: BREAKER ISOLATION VIOLATION — " << healthy_failed
              << " healthy requests failed\n";
    r.quarantined = 0;  // force the gate below to trip
  }
  if (poisoned_executed_failures > cfg.breaker.threshold + kBurst / 10) {
    std::cerr << "serve_load: breaker let " << poisoned_executed_failures
              << " poisoned requests execute before tripping\n";
    r.quarantined = 0;  // force the gate below to trip
  }
  return r;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void write_json(const std::vector<RunResult>& results, const Options& opt,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "serve_load: cannot write " << path << "\n";
    std::exit(2);
  }
  out << "{\n"
      << "  \"schema\": \"rvvsvm-bench-serve\",\n"
      << "  \"schema_version\": 2,\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"requests_per_run\": " << opt.requests << ",\n"
      << "  \"vlen\": " << opt.vlen << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"harts\": " << r.harts
        << ", \"chaos\": " << (r.chaos ? "true" : "false")
        << ", \"requests\": " << r.requests
        << ", \"completed\": " << r.completed << ", \"failed\": " << r.failed
        << ", \"rejected\": " << r.rejected
        << ", \"poisoned\": " << r.poisoned
        << ", \"shed\": " << r.shed
        << ", \"interactive_shed\": " << r.interactive_shed
        << ", \"deadline_exceeded\": " << r.deadline_exceeded
        << ", \"quarantined\": " << r.quarantined
        << ", \"vt_p99\": " << r.vt_p99
        << ", \"deadline_vt\": " << r.deadline_vt
        << ", \"waste_fraction\": " << json_number(r.waste_fraction)
        << ", \"sheds_decided_at_admission\": "
        << (r.sheds_decided_at_admission ? "true" : "false")
        << ", \"seconds\": " << json_number(r.seconds)
        << ", \"req_per_sec\": " << json_number(r.rps)
        << ", \"p50_ms\": " << json_number(r.p50_ms)
        << ", \"p99_ms\": " << json_number(r.p99_ms)
        << ", \"billed_instructions\": " << r.billed_instructions
        << ", \"merged_instructions\": " << r.merged_instructions
        << ", \"bills_exact\": " << (r.bills_exact ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_summary(const std::vector<RunResult>& results) {
  std::cout << std::left << std::setw(12) << "mode" << std::setw(7) << "harts"
            << std::right << std::setw(10) << "done" << std::setw(8) << "fail"
            << std::setw(8) << "shed" << std::setw(8) << "quar"
            << std::setw(12) << "req/s" << std::setw(11) << "p99 ms"
            << std::setw(8) << "exact" << '\n';
  for (const RunResult& r : results) {
    std::cout << std::left << std::setw(12) << r.mode << std::setw(7)
              << r.harts << std::right << std::setw(10) << r.completed
              << std::setw(8) << r.failed << std::setw(8) << r.shed
              << std::setw(8) << r.quarantined << std::setw(12) << std::fixed
              << std::setprecision(1) << r.rps << std::setw(11)
              << std::setprecision(3) << r.p99_ms << std::setw(8)
              << (r.bills_exact ? "yes" : "NO") << '\n';
  }
}

[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t value = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  out = value;
  return true;
}

[[nodiscard]] bool parse_double(std::string_view s, double& out) {
  try {
    out = std::stod(std::string(s));
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        std::cerr << "serve_load: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--seed") {
      if (!parse_u64(value(), opt.seed)) return 2;
    } else if (arg == "--requests") {
      if (!parse_u64(value(), v) || v == 0) return 2;
      opt.requests = v;
    } else if (arg == "--vlen") {
      if (!parse_u64(value(), v) || v == 0) return 2;
      opt.vlen = static_cast<unsigned>(v);
    } else if (arg == "--harts-list") {
      opt.harts.clear();
      std::istringstream list{std::string(value())};
      std::string tok;
      while (std::getline(list, tok, ',')) {
        if (!parse_u64(tok, v) || v == 0) return 2;
        opt.harts.push_back(static_cast<unsigned>(v));
      }
      if (opt.harts.empty()) return 2;
    } else if (arg == "--min-rps") {
      if (!parse_double(value(), opt.min_rps)) return 2;
    } else if (arg == "--max-p99-ms") {
      if (!parse_double(value(), opt.max_p99_ms)) return 2;
    } else if (arg == "--json") {
      opt.json_path = std::string(value());
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: serve_load [--seed N] [--requests N]\n"
                   "                  [--harts-list 1,2,4,8] [--vlen BITS]\n"
                   "                  [--min-rps X] [--max-p99-ms X]\n"
                   "                  [--json PATH] [--smoke]\n";
      return 0;
    } else {
      std::cerr << "serve_load: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opt.smoke) {
    opt.requests = std::min<std::size_t>(opt.requests, 300);
    opt.harts = {2};
  }

  std::vector<RunResult> results;
  for (const unsigned harts : opt.harts) {
    std::cout << "serve_load: " << opt.requests << " requests @ " << harts
              << " hart" << (harts == 1 ? "" : "s") << "...\n";
    results.push_back(run_load(opt, harts, /*chaos=*/false));
  }
  // Chaos run at the widest pool: injected crashes must fail alone.
  const unsigned chaos_harts = opt.harts.back();
  std::cout << "serve_load: chaos run @ " << chaos_harts << " harts...\n";
  results.push_back(run_load(opt, chaos_harts, /*chaos=*/true));
  const std::size_t widest_healthy = results.size() - 2;

  // Overload-containment scenarios (always gated, see the file header).
  std::cout << "serve_load: overload burst @ " << chaos_harts << " harts...\n";
  results.push_back(run_overload(opt, chaos_harts));
  std::cout << "serve_load: breaker isolation @ " << chaos_harts
            << " harts...\n";
  results.push_back(run_breaker(opt, chaos_harts));

  print_summary(results);
  if (!opt.json_path.empty()) write_json(results, opt, opt.json_path);

  int rc = 0;
  for (const RunResult& r : results) {
    if (!r.bills_exact) {
      std::cerr << "serve_load: FAIL — bills not exact in " << r.mode
                << " run at " << r.harts << " harts\n";
      rc = 1;
    }
    if (r.chaos && r.failed != r.poisoned) {
      std::cerr << "serve_load: FAIL — chaos isolation violated\n";
      rc = 1;
    }
    if (r.chaos && r.rps <= 0.0) {
      std::cerr << "serve_load: FAIL — no throughput under chaos\n";
      rc = 1;
    }
    if (r.mode == std::string_view("overload")) {
      if (r.interactive_shed != 0) {
        std::cerr << "serve_load: FAIL — overload shed " << r.interactive_shed
                  << " interactive requests\n";
        rc = 1;
      }
      if (r.shed + r.rejected == 0) {
        std::cerr << "serve_load: FAIL — 2x-capacity burst shed nothing "
                     "(not saturating?)\n";
        rc = 1;
      }
      if (!r.sheds_decided_at_admission) {
        std::cerr << "serve_load: FAIL — a shed/reject decision waited for "
                     "execution\n";
        rc = 1;
      }
      if (r.completed > 0 && r.vt_p99 > r.deadline_vt) {
        std::cerr << "serve_load: FAIL — accepted p99 vt latency " << r.vt_p99
                  << " above the deadline " << r.deadline_vt << "\n";
        rc = 1;
      }
    }
    if (r.mode == std::string_view("breaker")) {
      if (r.quarantined == 0) {
        std::cerr << "serve_load: FAIL — breaker never quarantined the rogue "
                     "tenant\n";
        rc = 1;
      }
      if (r.waste_fraction > 0.10) {
        std::cerr << "serve_load: FAIL — rogue tenant wasted "
                  << json_number(100.0 * r.waste_fraction)
                  << "% of pool instructions (gate 10%)\n";
        rc = 1;
      }
    }
  }
  // Perf gates apply to the widest healthy run.
  const RunResult& gated = results[widest_healthy];
  if (opt.min_rps > 0.0 && gated.rps < opt.min_rps) {
    std::cerr << "serve_load: FAIL — " << gated.rps << " req/s below gate "
              << opt.min_rps << "\n";
    rc = 1;
  }
  if (opt.max_p99_ms > 0.0 && gated.p99_ms > opt.max_p99_ms) {
    std::cerr << "serve_load: FAIL — p99 " << gated.p99_ms
              << " ms above gate " << opt.max_p99_ms << "\n";
    rc = 1;
  }
  return rc;
}
