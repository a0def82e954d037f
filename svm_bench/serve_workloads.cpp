// The serve workloads: a background ScanService (2 harts, VLEN 256,
// coalesce threshold 1024, queue 65536) driven by one generator thread.
// There is no collector thread: the generator stamps completions itself, so
// the run uses 2 harts + 1 scheduler + 1 generator = 4 threads.
//
//   serve_small  scan/scan_exclusive/reduce/compress, n uniform in 1..64,
//                3 tenants, 20% interactive with a 2^20 vt deadline; phase A
//                at 50,000 req/s, phase B with 256 in flight.  Per-request
//                service cost dominates (admission, the cost-model gate,
//                queue, envelope build, futures, billing).
//   serve_large  95% scan/scan_exclusive/reduce with n in [4096, 32768),
//                run as whole-pool par:: collectives, and 5% on the
//                individual path: sort (n in [512, 1024)), histogram (n in
//                [512, 4096)) and compress (n in [4096, 32768), which has
//                no collective); phase A at 1,500 req/s, phase B with 32 in
//                flight.  par:: fork-join and fused kernel bodies dominate.
//
// Each open-loop rate is a quarter of the workload's capacity as phase B
// measured it on a 4-vCPU Xeon VM (about 200k and 6k req/s), so requests
// mostly find the service idle and p50 is the request's own cost, not
// queueing behind a wave.
//
// A run is kRounds rounds.  Each builds a fresh service (set-up), then runs
// phase A and phase B for equal shares of --seconds.  Phase A is an open
// loop with Poisson arrivals: while waiting for the next due time the
// generator polls its outstanding futures in FIFO order, and latency is
// timed from each request's due time.  Phase B is a closed loop whose
// billed instructions per second are sim_mips.  Both phases are read in
// 50 ms blocks: p50_ms is the fast end (stats.hpp) of the blocks' p50s,
// sim_mips the median of the blocks' rates, setup_s the median of the
// rounds' set-ups.  Requests are staged copies of a pre-generated seeded
// ring, made before they are due, so generation is never timed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "bench.hpp"
#include "par/collectives.hpp"
#include "serve/service.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

namespace svmbench {
namespace {

namespace par = rvvsvm::par;
namespace rvv = rvvsvm::rvv;
namespace serve = rvvsvm::serve;
namespace sim = rvvsvm::sim;
namespace svm = rvvsvm::svm;
using serve::Kind;
using serve::Request;
using serve::Response;
using serve::ScanService;
using serve::Value;

constexpr unsigned kHarts = 2;
constexpr unsigned kVlen = 256;
constexpr std::size_t kCoalesceThreshold = 1024;
/// Requests replayed for the modeled count and by each ladder stage.
constexpr std::size_t kReplayRequests = 4096;
/// A run is kRounds rounds, each on a fresh service: set-up, phase A,
/// phase B.  How fast one service instance runs depends on where Linux
/// places its threads and how quickly they wake each other, and on a
/// shared host that differs by about ±15% from one instance to the next.
constexpr unsigned kRounds = 16;
/// Both phases are cut into blocks of this length, and every block of every
/// round is one sample: phase A's the p50 latency of the arrivals due in
/// it, phase B's the instructions billed for completions in it.
constexpr double kBlockSeconds = 0.05;
/// The traced run records spans for the first round's phase A, up to its
/// first kTracedSeconds, in alternate kTraceBlockSeconds blocks (at most
/// about 20,000 traced requests on serve_small, within the tracer's span
/// limit); trace.overhead_frac compares the traced blocks with the plain
/// ones between them.
constexpr double kTracedSeconds = 0.8;
constexpr double kTraceBlockSeconds = 0.05;

struct Workload {
  const char* name;
  double rate_rps;        ///< phase A open-loop arrival rate
  std::size_t in_flight;  ///< phase B closed-loop requests in flight
  std::size_t ring_size;
  std::size_t warmup;  ///< reference-ring requests submitted per set-up
  std::vector<Request> (*gen)(Rng&, std::size_t count);
};

constexpr Kind kCoalescible[] = {Kind::kScan, Kind::kScanExclusive,
                                 Kind::kReduce, Kind::kCompress};

Request payload(Rng& rng, Kind kind, std::size_t n) {
  Request req;
  req.tenant = 1 + rng.below(3);
  req.kind = kind;
  req.data.resize(n);
  for (Value& v : req.data) v = static_cast<Value>(rng.next());
  if (kind == Kind::kCompress) {
    req.flags.resize(n);
    for (Value& f : req.flags) f = static_cast<Value>(rng.below(2));
  }
  if (kind == Kind::kHistogram) {
    req.bins = 64;
    for (Value& v : req.data) v %= 64;
  }
  return req;
}

std::vector<Request> gen_small(Rng& rng, std::size_t count) {
  std::vector<Request> ring;
  for (std::size_t i = 0; i < count; ++i) {
    const Kind kind = kCoalescible[rng.below(4)];
    Request req = payload(rng, kind, 1 + rng.below(64));
    if (rng.below(5) == 0) {
      req.priority = serve::Priority::kInteractive;
      req.deadline_insts = std::uint64_t{1} << 20;
    }
    ring.push_back(std::move(req));
  }
  return ring;
}

/// A few hundred large requests: drawn independently, the count of
/// expensive requests and the total size would swing with the seed.
/// Instead every 20 requests hold 19 large scans/reduces and one request
/// for the individual path (sort, histogram and compress in turn), sizes
/// are stratified over their range, and the seed shuffles the order and
/// draws the data.  The individual-path requests stay at 5%: a large
/// compress runs interpreted on one hart for about a millisecond, and at
/// 22% (a quarter of the coalescible kinds) it swamped the par:: path this
/// workload exists to load.
std::vector<Request> gen_large(Rng& rng, std::size_t count) {
  std::vector<Request> ring;
  const double strata = static_cast<double>((count + 19) / 20);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i / 20) + rng.unit()) / strata;
    const auto within = [&](std::size_t lo, std::size_t hi) {
      return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo));
    };
    if (i % 20 < 19) {
      ring.push_back(payload(rng, kCoalescible[i % 20 % 3], within(4096, 32768)));
    } else if ((i / 20) % 3 == 0) {
      // Below the coalesce threshold, so it runs individually.
      ring.push_back(payload(rng, Kind::kSort, within(512, 1024)));
    } else if ((i / 20) % 3 == 1) {
      ring.push_back(payload(rng, Kind::kHistogram, within(512, 4096)));
    } else {
      ring.push_back(payload(rng, Kind::kCompress, within(4096, 32768)));
    }
  }
  for (std::size_t i = ring.size(); i > 1; --i) {
    std::swap(ring[i - 1], ring[rng.below(i)]);
  }
  return ring;
}

constexpr Workload kWorkloads[] = {
    {"serve_small", 50000.0, 256, 65536, 4096, gen_small},
    {"serve_large", 1500.0, 32, 512, 128, gen_large},
};

const Workload& workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown serve workload");
}

ScanService::Config service_config(bool background) {
  ScanService::Config cfg;
  cfg.harts = kHarts;
  cfg.machine.vlen_bits = kVlen;
  cfg.coalesce_threshold = kCoalesceThreshold;
  cfg.queue_capacity = 65536;
  cfg.background = background;
  return cfg;
}

/// A ring request and the scalar reference's answer to it.
struct Entry {
  Request req;
  std::vector<Value> expected;
  Value scalar = 0;
};

Entry make_entry(Request req) {
  Entry e;
  const std::vector<Value>& d = req.data;
  switch (req.kind) {
    case Kind::kScan:
    case Kind::kScanExclusive: {
      Value acc = 0;
      for (const Value v : d) {
        if (req.kind == Kind::kScanExclusive) e.expected.push_back(acc);
        acc += v;
        if (req.kind == Kind::kScan) e.expected.push_back(acc);
      }
      break;
    }
    case Kind::kReduce:
      for (const Value v : d) e.scalar += v;
      break;
    case Kind::kCompress:
      for (std::size_t i = 0; i < d.size(); ++i) {
        if (req.flags[i] != 0) e.expected.push_back(d[i]);
      }
      break;
    case Kind::kHistogram:
      e.expected.assign(req.bins, 0);
      for (const Value v : d) ++e.expected[v];
      break;
    case Kind::kSort:
      e.expected = d;
      std::sort(e.expected.begin(), e.expected.end());
      break;
  }
  e.req = std::move(req);
  return e;
}

std::vector<Entry> make_ring(const Workload& w, std::uint64_t seed,
                             std::size_t count) {
  Rng rng(seed);
  std::vector<Entry> ring;
  ring.reserve(count);
  for (Request& req : w.gen(rng, count)) ring.push_back(make_entry(std::move(req)));
  return ring;
}

bool matches(const Entry& e, const Response& resp) {
  if (!resp.ok()) return false;
  if (e.req.kind == Kind::kReduce) return resp.scalar == e.scalar;
  return resp.data == e.expected;
}

/// The generator thread's side of a service: it submits staged copies of
/// ring entries and polls outstanding futures in FIFO order, stamping each
/// completion the first time it sees it ready.
class Client {
 public:
  Client(ScanService& svc, const std::vector<Entry>& ring, Tracer* tracer)
      : svc_(svc), ring_(ring), tracer_(tracer) {
    stage();
  }

  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  /// Submit the staged request as due at `due` (seconds on now()'s clock),
  /// then stage a copy of the next ring entry.
  void submit(double due) {
    const auto t0 = Clock::now();
    std::future<Response> fut = svc_.submit(std::move(staged_));
    const auto t1 = Clock::now();
    Slot s{std::move(fut), cursor_ % ring_.size(), due,
           seconds_between(origin_, t1), kNone, 0};
    if (recording) {
      s.arrival = arrivals.size();
      const auto block = static_cast<long>((due - trace_from) / kTraceBlockSeconds);
      const bool traced = tracer_ != nullptr && due < trace_until && block % 2 == 0;
      arrivals.push_back(Arrival{due, seconds_between(origin_, t0), 0.0, false, traced});
      submit_us.push_back(1e-3 * nanos_between(t0, t1));
      if (traced) {
        s.span = tracer_->new_id();
        tracer_->record("submit", "serve.submit", t0, t1, tracer_->new_id(), s.span);
      }
    }
    slots_.push_back(std::move(s));
    ++cursor_;
    stage();
  }

  /// Collect every ready request; returns how many completed.
  std::size_t poll() {
    std::size_t seen = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        if (keep != i) slots_[keep] = std::move(s);
        ++keep;
        continue;
      }
      const auto t = Clock::now();
      finish(s, s.fut.get(), t);
      ++seen;
    }
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(keep), slots_.end());
    return seen;
  }

  [[nodiscard]] std::size_t outstanding() const noexcept { return slots_.size(); }

  /// Start the next submissions from ring entry 0 again.
  void rewind() {
    cursor_ = 0;
    stage();
  }

  // Phase A records each arrival; phase B counts completions up to its end.
  bool recording = false;
  std::vector<Arrival> arrivals;
  std::vector<double> submit_us;  ///< wall time inside submit()
  std::vector<double> ready_us;   ///< submit() return to future seen ready
  /// With a tracer: phase A arrivals due in [trace_from, trace_until) are
  /// traced in alternate blocks.
  double trace_from = 0.0;
  double trace_until = 0.0;
  /// Phase B: completions and billed instructions seen in each whole
  /// block_seconds block of [window_start, window_end).
  double window_start = 0.0;
  double window_end = 0.0;
  double block_seconds = kBlockSeconds;
  std::vector<std::uint64_t> block_count;
  std::vector<std::uint64_t> block_billed;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t billed = 0;

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  struct Slot {
    std::future<Response> fut;
    std::size_t entry;
    double due;
    double submitted;  ///< when submit() returned
    std::size_t arrival;
    std::uint64_t span;
  };

  void stage() { staged_ = ring_[cursor_ % ring_.size()].req; }

  void finish(const Slot& s, const Response& resp, Clock::time_point t) {
    const double done = seconds_between(origin_, t);
    const bool ok = matches(ring_[s.entry], resp);
    ++completed;
    if (!ok) ++failed;
    billed += resp.billed_total;
    if (done >= window_start && done < window_end) {
      const auto block = static_cast<std::size_t>((done - window_start) / block_seconds);
      if (block < block_count.size()) {
        ++block_count[block];
        block_billed[block] += resp.billed_total;
      }
    }
    if (s.arrival != kNone) {
      arrivals[s.arrival].done = done;
      arrivals[s.arrival].ok = ok;
      ready_us.push_back((done - s.submitted) * 1e6);
    }
    if (s.span != 0) {
      const auto due = origin_ + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(s.due));
      tracer_->record("request", "serve.request", due, t, s.span, 0, true);
    }
  }

  ScanService& svc_;
  const std::vector<Entry>& ring_;
  Tracer* tracer_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Slot> slots_;
  Request staged_;
  std::size_t cursor_ = 0;
};

/// Whole blocks in a phase of `seconds`: kBlockSeconds long, or one block
/// of the whole phase when it is shorter.
std::size_t whole_blocks(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kBlockSeconds));
}
double block_length(double seconds) { return std::min(kBlockSeconds, seconds); }

struct OpenLoop {
  double start = 0.0;      ///< the first due time
  double backlog_s = 0.0;  ///< requests outstanding at the end, in seconds of arrivals
};

/// Phase A: Poisson arrivals at `rate` for `seconds`.
OpenLoop open_loop(Client& c, double rate, double seconds, Rng& rng) {
  c.recording = true;
  const auto expected = static_cast<std::size_t>(rate * seconds * 1.2) + 1024;
  c.arrivals.reserve(expected);
  c.submit_us.reserve(expected);
  c.ready_us.reserve(expected);
  double due = c.now() + 1e-3;
  const double end = due + seconds;
  OpenLoop out{due, 0.0};
  c.trace_from = due;
  c.trace_until = due + kTracedSeconds;
  while (due < end) {
    if (c.now() >= due) {
      c.submit(due);
      due += -std::log(1.0 - rng.unit()) / rate;
    } else {
      c.poll();
    }
  }
  out.backlog_s = static_cast<double>(c.outstanding()) / rate;
  while (c.outstanding() > 0) c.poll();
  c.recording = false;
  return out;
}

/// The p50 latency of the arrivals due in each whole block of a phase A
/// that began at `start` and lasted `seconds`.
std::vector<double> block_p50s(const std::vector<Arrival>& arrivals,
                               const std::vector<double>& latency, double start,
                               double seconds) {
  const double length = block_length(seconds);
  std::vector<std::vector<double>> blocks(whole_blocks(seconds));
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto b = static_cast<std::size_t>((arrivals[i].due - start) / length);
    if (b < blocks.size()) blocks[b].push_back(latency[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& b : blocks) {
    if (!b.empty()) out.push_back(tail_quantile(std::move(b), 0.5).value);
  }
  return out;
}

struct Capacity {
  std::vector<double> rps;   ///< each block's completions per second
  std::vector<double> mips;  ///< each block's billed instructions, millions per second
  std::uint64_t completed = 0;
};

/// Phase B: `clients` requests in flight for `seconds`; each completion is
/// replaced at once.  Counts what completes within the phase.  The
/// generator spins on poll() rather than blocking on a future: the service
/// has its own three CPUs, and waking a blocked generator costs a
/// cross-CPU wake-up whose latency varies with the host's load (blocking
/// here doubled the run-to-run spread of sim_mips on serve_small).
Capacity closed_loop(Client& c, std::size_t clients, double seconds) {
  c.window_start = c.now();
  c.window_end = c.window_start + seconds;
  c.block_seconds = block_length(seconds);
  c.block_count.assign(whole_blocks(seconds), 0);
  c.block_billed.assign(whole_blocks(seconds), 0);
  for (std::size_t k = 0; k < clients; ++k) c.submit(c.now());
  while (c.now() < c.window_end) {
    for (std::size_t done = c.poll(); done > 0; --done) c.submit(c.now());
  }
  while (c.outstanding() > 0) c.poll();
  Capacity cap;
  for (std::size_t b = 0; b < c.block_count.size(); ++b) {
    cap.rps.push_back(static_cast<double>(c.block_count[b]) / c.block_seconds);
    cap.mips.push_back(1e-6 * static_cast<double>(c.block_billed[b]) / c.block_seconds);
    cap.completed += c.block_count[b];
  }
  return cap;
}

/// Closed loop over exactly `count` ring requests from entry 0; returns the
/// wall time.
double closed_loop_count(Client& c, std::size_t clients, std::size_t count) {
  c.rewind();
  const std::uint64_t base = c.completed;
  const auto t0 = Clock::now();
  std::size_t sent = 0;
  for (; sent < std::min(clients, count); ++sent) c.submit(c.now());
  while (c.completed - base < count) {
    for (std::size_t done = c.poll(); done > 0 && sent < count; --done, ++sent) {
      c.submit(c.now());
    }
  }
  return seconds_between(t0, Clock::now());
}

/// Submit `reqs` at once and spin until every one is ready (as the closed
/// loop does): the set-up's warm-up pass.  Returns when the last was ready;
/// the results are checked after that.
Clock::time_point warm_up(ScanService& svc, std::vector<Request> reqs,
                          const std::vector<Entry>& ring, Result& r) {
  std::vector<std::future<Response>> futs;
  futs.reserve(reqs.size());
  for (Request& req : reqs) futs.push_back(svc.submit(std::move(req)));
  for (const std::future<Response>& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    }
  }
  const auto ready = Clock::now();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ++r.attempted;
    if (!matches(ring[i], futs[i].get())) ++r.failed;
  }
  return ready;
}

std::vector<Request> copies(const std::vector<Entry>& ring, std::size_t begin,
                            std::size_t end) {
  std::vector<Request> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(ring[i % ring.size()].req);
  return out;
}

struct Replay {
  sim::CountSnapshot billed;
  bool exact = false;
  double last_pass_s = 0.0;
};

/// Replay the first `count` ring requests through a foreground service in
/// max_batch bursts, each followed by drain().  Deterministic: the same
/// requests give the same waves and the same bills.
Replay replay_foreground(const std::vector<Entry>& ring, std::size_t count,
                         unsigned passes, Result& r) {
  ScanService svc(service_config(false));
  const std::size_t burst = svc.config().max_batch;
  Replay out;
  for (unsigned pass = 0; pass < passes; ++pass) {
    out.last_pass_s = 0.0;
    for (std::size_t begin = 0; begin < count; begin += burst) {
      const std::size_t end = std::min(count, begin + burst);
      std::vector<Request> reqs = copies(ring, begin, end);
      std::vector<std::future<Response>> futs;
      futs.reserve(reqs.size());
      const auto t0 = Clock::now();
      for (Request& req : reqs) futs.push_back(svc.submit(std::move(req)));
      svc.drain();
      out.last_pass_s += seconds_between(t0, Clock::now());
      for (std::size_t i = begin; i < end; ++i) {
        ++r.attempted;
        if (!matches(ring[i % ring.size()], futs[i - begin].get())) ++r.failed;
      }
    }
  }
  svc.stop();
  out.billed = svc.billing().grand_total();
  out.exact = out.billed == svc.pool().merged_counts();
  return out;
}

/// One request run directly on the active machine, as the service's
/// individual path runs it.
void run_direct(const Request& req, std::vector<Value>& work, Value& scalar,
                std::size_t& kept) {
  switch (req.kind) {
    case Kind::kScan:
      svm::plus_scan<Value>(std::span<Value>(work));
      break;
    case Kind::kScanExclusive:
      svm::plus_scan_exclusive<Value>(std::span<Value>(work));
      break;
    case Kind::kReduce:
      scalar = svm::reduce<svm::PlusOp, Value>(std::span<const Value>(req.data));
      break;
    case Kind::kCompress:
      kept = svm::pack<Value>(std::span<const Value>(req.data), std::span<Value>(work),
                              std::span<const Value>(req.flags));
      break;
    case Kind::kHistogram:
      rvvsvm::apps::histogram<Value>(std::span<const Value>(req.data),
                                     std::span<Value>(work));
      break;
    case Kind::kSort:
      rvvsvm::apps::split_radix_sort<Value>(std::span<Value>(work));
      break;
  }
}

/// Untimed: the buffer a direct call works in, holding its input.
void stage_direct(const Request& req, std::vector<Value>& work) {
  if (req.kind == Kind::kHistogram) {
    work.assign(req.bins, 0);
  } else if (req.kind == Kind::kCompress) {
    work.assign(req.data.size(), 0);
  } else {
    work.assign(req.data.begin(), req.data.end());
  }
}

bool direct_matches(const Entry& e, std::vector<Value>& work, Value scalar,
                    std::size_t kept) {
  if (e.req.kind == Kind::kReduce) return scalar == e.scalar;
  if (e.req.kind == Kind::kCompress) work.resize(kept);
  return work == e.expected;
}

/// Ladder stages 1 and 2: each request straight on one warm machine, or on
/// a 2-hart pool (par:: collectives where the service would use them, a
/// one-shard epoch otherwise).  Returns µs per request of the second pass.
double ladder_direct(const std::vector<Entry>& ring, std::size_t count,
                     bool on_pool, Result& r, Tracer* tracer) {
  std::unique_ptr<par::HartPool> pool;
  std::unique_ptr<rvv::Machine> machine;
  std::unique_ptr<rvv::MachineScope> scope;
  if (on_pool) {
    pool = std::make_unique<par::HartPool>(par::HartPool::Config{
        .harts = kHarts, .machine = {.vlen_bits = kVlen}});
  } else {
    machine = std::make_unique<rvv::Machine>(rvv::Machine::Config{.vlen_bits = kVlen});
    scope = std::make_unique<rvv::MachineScope>(*machine);
  }
  std::vector<Value> work;
  double timed = 0.0;
  for (unsigned pass = 0; pass < 2; ++pass) {
    timed = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Entry& e = ring[i % ring.size()];
      const Request& req = e.req;
      stage_direct(req, work);
      Value scalar = 0;
      std::size_t kept = 0;
      bool ok = true;
      const auto t0 = Clock::now();
      try {
        const bool collective = req.data.size() >= kCoalesceThreshold &&
                                req.kind != Kind::kCompress &&
                                req.kind != Kind::kHistogram;
        if (!on_pool) {
          run_direct(req, work, scalar, kept);
        } else if (!collective) {
          pool->for_shards(1, [&](std::size_t) { run_direct(req, work, scalar, kept); });
        } else if (req.kind == Kind::kScan) {
          par::plus_scan<Value>(*pool, std::span<Value>(work));
        } else if (req.kind == Kind::kScanExclusive) {
          par::plus_scan_exclusive<Value>(*pool, std::span<Value>(work));
        } else if (req.kind == Kind::kReduce) {
          scalar = par::reduce<svm::PlusOp, Value>(*pool,
                                                   std::span<const Value>(req.data));
        } else {
          par::split_radix_sort<Value>(*pool, std::span<Value>(work));
        }
      } catch (const std::exception&) {
        ok = false;
      }
      const auto t1 = Clock::now();
      timed += seconds_between(t0, t1);
      ++r.attempted;
      if (!ok || !direct_matches(e, work, scalar, kept)) ++r.failed;
      if (tracer != nullptr && pass == 1 && i < 64) {
        tracer->record(on_pool ? "par" : "svm", "ladder", t0, t1, tracer->new_id());
      }
    }
  }
  return timed / static_cast<double>(count) * 1e6;
}

/// The per-layer metrics of the traced round: its client's samples and its
/// service's counters, read after the service stopped.
void add_round_metrics(ScanService& svc, const Client& c,
                       const std::vector<double>& latency, double backlog_s,
                       const sim::CountSnapshot& modeled, Result& r) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const ScanService::Stats st = svc.stats();
  const sim::CountSnapshot merged = svc.pool().merged_counts();
  const sim::CountSnapshot billed = svc.billing().grand_total();
  const double executed =
      d(st.coalesced_requests + st.individual_requests + st.large_requests);
  r.add_tail("p90_ms", tail_quantile(latency, 0.9));
  r.add_tail("serve.submit_us.p50", tail_quantile(c.submit_us, 0.5));
  r.add_tail("serve.submit_us.p99", tail_quantile(c.submit_us, 0.99));
  r.add_tail("serve.ready_us.p50", tail_quantile(c.ready_us, 0.5));
  r.add("serve.reqs_per_wave", ratio(executed, d(st.waves)));
  r.add("serve.coalesced_frac", ratio(d(st.coalesced_requests), executed));
  r.add("serve.individual_frac", ratio(d(st.individual_requests), executed));
  r.add("serve.large_frac", ratio(d(st.large_requests), executed));
  r.add_tail("serve.p99_ms", tail_quantile(latency, 0.99));
  const std::vector<double> late = lateness_ms(c.arrivals);
  r.add_tail("serve.gen_late_ms.p99", tail_quantile(late, 0.99));
  r.add("serve.gen_late_ms.max",
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  r.add("serve.backlog_s", backlog_s);
  r.add("serve.rejected",
        d(st.rejected_queue_full + st.rejected_budget + st.rejected_malformed +
          st.rejected_shutdown + st.rejected_deadline + st.rejected_quarantined +
          st.shed_overload));
  r.add("serve.failed", d(st.failed));
  r.add("serve.bill_mismatch_insts", std::fabs(d(billed.total()) - d(merged.total())));
  r.add("serve.billed_insts_per_req", ratio(d(c.billed), d(c.completed)));
  std::vector<double> per_hart;
  for (const sim::CountSnapshot& h : svc.pool().per_hart_counts()) {
    per_hart.push_back(d(h.total()));
  }
  double mean = 0.0;
  for (const double v : per_hart) mean += v / static_cast<double>(per_hart.size());
  r.add("par.epochs_per_req", ratio(d(svc.pool().epochs()), d(st.completed)));
  r.add("par.hart_imbalance",
        ratio(*std::max_element(per_hart.begin(), per_hart.end()), mean));
  const double abandoned = d(svc.pool().abandoned_counts().total());
  r.add("par.waste_frac", ratio(abandoned, d(merged.total()) + abandoned));
  std::vector<const rvv::Machine*> harts;
  for (unsigned h = 0; h < svc.pool().harts(); ++h) {
    harts.push_back(&svc.pool().machine(h));
  }
  add_layer_metrics(LayerCounters{}, read_counters(harts), d(st.completed), modeled, r);

  // Tracing costs the generator thread time per traced request, and that
  // delays every request behind it, so traced and plain blocks of arrivals
  // are compared as wholes.
  std::vector<double> traced_ms;
  std::vector<double> plain_ms;
  for (std::size_t i = 0; i < c.arrivals.size(); ++i) {
    if (c.arrivals[i].due >= c.trace_until) break;
    (c.arrivals[i].traced ? traced_ms : plain_ms).push_back(latency[i]);
  }
  const double traced_p50 = tail_quantile(traced_ms, 0.5).value;
  const double plain_p50 = tail_quantile(plain_ms, 0.5).value;
  r.add("trace.overhead_frac", ratio(traced_p50, plain_p50) - 1.0);
}

}  // namespace

bool is_serve_workload(std::string_view name) {
  return name == "serve_small" || name == "serve_large";
}

Result run_serve(const Options& opt) {
  const Workload& w = workload(opt.workload);
  const std::size_t replay = opt.smoke ? 256 : kReplayRequests;
  const unsigned rounds = opt.smoke ? 2 : kRounds;
  const std::vector<Entry> ring = make_ring(w, opt.seed, w.ring_size);
  const std::vector<Entry> reference =
      make_ring(w, kReferenceSeed, std::min(w.ring_size, kReplayRequests));
  Result r;
  Tracer tracer;
  Tracer* const trace = opt.traced() ? &tracer : nullptr;

  const Replay modeled = replay_foreground(reference, replay, 1, r);
  if (!modeled.exact) r.violations.push_back("replay bills differ from merged counts");

  Rng arrivals(opt.seed ^ 0xA5A5A5A5A5A5A5A5ull);
  const double phase = opt.seconds / (2.0 * rounds);
  std::vector<double> setups;
  std::vector<double> p50s;
  std::vector<double> mips;
  std::vector<double> rps;
  std::size_t phase_a_requests = 0;
  std::uint64_t phase_b_completed = 0;
  for (unsigned k = 0; k < rounds; ++k) {
    // Set-up: service construction plus a warm-up pass over the reference
    // ring's first requests, tuner misses included (the tuner is emptied
    // first).  Staging the warm-up copies is excluded.
    rvvsvm::tune::AutoTuner::global().invalidate();
    std::vector<Request> warm = copies(reference, 0, w.warmup);
    const auto t0 = Clock::now();
    ScanService svc(service_config(true));
    setups.push_back(seconds_between(t0, warm_up(svc, std::move(warm), reference, r)));

    Client client(svc, ring, k == 0 ? trace : nullptr);
    const OpenLoop phase_a = open_loop(client, w.rate_rps, phase, arrivals);
    const Capacity capacity = closed_loop(client, w.in_flight, phase);
    svc.stop();
    r.attempted += client.completed;
    r.failed += client.failed;
    if (!(svc.billing().grand_total() == svc.pool().merged_counts())) {
      r.violations.push_back("bills differ from merged counts in round " +
                             std::to_string(k));
    }
    const std::vector<double> latency = due_latencies_ms(client.arrivals);
    const std::vector<double> blocks =
        block_p50s(client.arrivals, latency, phase_a.start, phase);
    p50s.insert(p50s.end(), blocks.begin(), blocks.end());
    mips.insert(mips.end(), capacity.mips.begin(), capacity.mips.end());
    rps.insert(rps.end(), capacity.rps.begin(), capacity.rps.end());
    phase_a_requests += client.arrivals.size();
    phase_b_completed += capacity.completed;
    if (trace != nullptr && k == 0) {
      add_round_metrics(svc, client, latency, phase_a.backlog_s, modeled.billed, r);
    }
  }
  r.notes.push_back("rounds=" + std::to_string(rounds) +
                    " phase_a_blocks=" + std::to_string(p50s.size()) +
                    " phase_a_requests=" + std::to_string(phase_a_requests) +
                    " phase_b_blocks=" + std::to_string(mips.size()) +
                    " phase_b_completed=" + std::to_string(phase_b_completed));

  if (!opt.traced()) {
    r.add("setup_s", median(setups));
    r.add("sim_mips", median(mips));
    r.add("modeled_insts", static_cast<double>(modeled.billed.total()));
    r.add("p50_ms", fast_time(p50s));
    r.add("peak_rss_mb", peak_rss_mb());
    return r;
  }
  r.add("serve.capacity_rps", median(rps));

  // The ladder: the seeded ring's first requests through each layer in turn.
  const bool large = opt.workload == "serve_large";
  const auto stage = [&](const char* name, auto&& fn) {
    const auto t0 = Clock::now();
    const double us = fn();
    tracer.record(name, "ladder", t0, Clock::now(), tracer.new_id());
    return us;
  };
  const double svm_us =
      stage("ladder.svm", [&] { return ladder_direct(ring, replay, false, r, trace); });
  const auto par_stage = [&] { return ladder_direct(ring, replay, true, r, trace); };
  const double par_us = large ? stage("ladder.par", par_stage) : 0.0;
  const double fg_us = stage("ladder.fg", [&] {
    return replay_foreground(ring, replay, 2, r).last_pass_s /
           static_cast<double>(replay) * 1e6;
  });
  const double bg_us = stage("ladder.bg", [&] {
    ScanService bg(service_config(true));
    Client c(bg, ring, nullptr);
    closed_loop_count(c, w.in_flight, replay);
    const double s = closed_loop_count(c, w.in_flight, replay);
    r.attempted += c.completed;
    r.failed += c.failed;
    return s / static_cast<double>(replay) * 1e6;
  });
  r.add("ladder.svm_us_per_req", svm_us);
  r.add("ladder.par_us_per_req", par_us);
  r.add("ladder.fg_us_per_req", fg_us);
  r.add("ladder.bg_us_per_req", bg_us);
  r.add("ladder.serve_self_us", fg_us - (large ? par_us : svm_us));
  r.add("ladder.handoff_us", bg_us - fg_us);

  if (!tracer.write(opt.trace_path)) {
    r.violations.push_back("cannot write trace " + opt.trace_path);
  }
  return r;
}

}  // namespace svmbench
