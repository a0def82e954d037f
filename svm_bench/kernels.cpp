// The kernel workloads: one thread, one warm rvv::Machine per VLEN, and a
// fixed job of svm:: calls repeated in a closed loop.
//
//   fused   plus_scan, plus_scan_exclusive, max_scan, reduce<Plus>, p_add
//           at n = 2^10 and 2^16 — after warm-up every strip-mine iteration
//           replays a stable trace through a fused host loop, and the 2^10
//           cells expose per-call overhead (tuner and trace-site lookups).
//   interp  seg_plus_scan (tuned and LMUL=8), permute (reversal and random),
//           pack at n = 2^16 and apps::split_radix_sort at 2^14 — paths
//           that never fuse: gather, compress and segmented ops run per op
//           through decode dispatch, the regfile model and the buffer pool.
//
// Only the svm:: call is timed; staging the input and checking the output
// against the scalar reference happen outside the timed span.  Every host
// time is built from each cell's fastest call (stats.hpp, "fast end"):
// sim_mips is one job's modeled instructions over the sum of its cells'
// fastest calls, which the large cells dominate, and p50_ms is the mean
// fastest call of the cells at the job's smallest n (fused: the ten 2^10
// cells, interp: the two radix sorts), so per-call overhead shows there.
// On fused each 2^10 call is made kWarmReps more times in a row: the first
// call after the 2^16 cells finds its operands and the machine's trace
// state evicted, and a refill from the shared last-level cache times the
// host's other tenants as much as the call.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/radix_sort.hpp"
#include "bench.hpp"
#include "rvv/machine.hpp"
#include "sim/inst_counter.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

namespace svmbench {
namespace {

namespace rvv = rvvsvm::rvv;
namespace svm = rvvsvm::svm;
using u32 = std::uint32_t;

constexpr unsigned kVlens[] = {128, 1024};
/// Set-ups timed per run; setup_s sums the fastest of each set-up step.
constexpr unsigned kSetups = 24;
/// Extra back-to-back calls of each fused 2^10 cell per timed job.
constexpr unsigned kWarmReps = 4;
constexpr double kNever = std::numeric_limits<double>::infinity();

/// One kernel's inputs, the scalar reference's expected output, and the
/// buffer the call writes; shared by the kernel's cells at every VLEN.
struct Operands {
  std::vector<u32> a;
  std::vector<u32> b;  ///< second operand, head flags, keep flags or index
  std::vector<u32> work;
  std::vector<u32> expected;
  std::uint64_t result = 0;  ///< reduce's sum or pack's kept count
  std::uint64_t expected_result = 0;
};

/// A kernel of a job: how to make its operands and how to call it.
struct Kernel {
  const char* name;
  std::size_t n;
  void (*make)(Operands&, Rng&, std::size_t);
  void (*stage)(Operands&);  ///< untimed: reset what the call writes
  void (*call)(Operands&);   ///< timed: the svm:: call itself
};

std::vector<u32> random_words(Rng& rng, std::size_t n) {
  std::vector<u32> v(n);
  for (u32& x : v) x = static_cast<u32>(rng.next());
  return v;
}

void stage_copy(Operands& o) { o.work = o.a; }
void stage_clear(Operands& o) { std::fill(o.work.begin(), o.work.end(), 0u); }

template <class F>
void make_scan(Operands& o, Rng& rng, std::size_t n, u32 identity, F op,
               bool exclusive) {
  o.a = random_words(rng, n);
  o.expected.resize(n);
  u32 acc = identity;
  for (std::size_t i = 0; i < n; ++i) {
    if (exclusive) o.expected[i] = acc;
    acc = op(acc, o.a[i]);
    if (!exclusive) o.expected[i] = acc;
  }
}

u32 plus(u32 x, u32 y) { return x + y; }
u32 max_of(u32 x, u32 y) { return std::max(x, y); }

/// dst[index[i]] = src[i] for a permutation `index`.
void make_permute(Operands& o, Rng& rng, std::size_t n, bool reversal) {
  o.a = random_words(rng, n);
  o.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) o.b[i] = static_cast<u32>(n - 1 - i);
  if (!reversal) {
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(o.b[i], o.b[rng.below(i + 1)]);
    }
  }
  o.work.assign(n, 0);
  o.expected.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) o.expected[o.b[i]] = o.a[i];
}

/// Head flags with segments of mean length 64; element 0 always heads.
void make_seg_scan(Operands& o, Rng& rng, std::size_t n) {
  o.a = random_words(rng, n);
  o.b.assign(n, 0);
  o.expected.resize(n);
  u32 acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    o.b[i] = (i == 0 || rng.below(64) == 0) ? 1u : 0u;
    acc = (o.b[i] != 0 ? 0u : acc) + o.a[i];
    o.expected[i] = acc;
  }
}

const Kernel kFused[] = {
    {"plus_scan", 0,
     [](Operands& o, Rng& r, std::size_t n) { make_scan(o, r, n, 0, plus, false); },
     stage_copy,
     [](Operands& o) { svm::plus_scan<u32>(std::span<u32>(o.work)); }},
    {"plus_scan_exclusive", 0,
     [](Operands& o, Rng& r, std::size_t n) { make_scan(o, r, n, 0, plus, true); },
     stage_copy,
     [](Operands& o) { svm::plus_scan_exclusive<u32>(std::span<u32>(o.work)); }},
    {"max_scan", 0,
     [](Operands& o, Rng& r, std::size_t n) { make_scan(o, r, n, 0, max_of, false); },
     stage_copy,
     [](Operands& o) { svm::max_scan<u32>(std::span<u32>(o.work)); }},
    {"reduce", 0,
     [](Operands& o, Rng& r, std::size_t n) {
       o.a = random_words(r, n);
       u32 sum = 0;
       for (const u32 x : o.a) sum += x;
       o.expected_result = sum;
     },
     [](Operands& o) { o.result = 0; },
     [](Operands& o) {
       o.result = svm::reduce<svm::PlusOp, u32>(std::span<const u32>(o.a));
     }},
    {"p_add", 0,
     [](Operands& o, Rng& r, std::size_t n) {
       o.a = random_words(r, n);
       o.b = random_words(r, n);
       o.expected.resize(n);
       for (std::size_t i = 0; i < n; ++i) o.expected[i] = o.a[i] + o.b[i];
     },
     stage_copy,
     [](Operands& o) {
       svm::p_add<u32>(std::span<u32>(o.work), std::span<const u32>(o.b));
     }},
};

const Kernel kInterp[] = {
    {"seg_plus_scan", 1u << 16, make_seg_scan, stage_copy,
     [](Operands& o) {
       svm::seg_plus_scan<u32>(std::span<u32>(o.work), std::span<const u32>(o.b));
     }},
    {"seg_plus_scan_m8", 1u << 16, make_seg_scan, stage_copy,
     [](Operands& o) {
       svm::seg_plus_scan<u32, 8>(std::span<u32>(o.work),
                                  std::span<const u32>(o.b));
     }},
    {"permute_rev", 1u << 16,
     [](Operands& o, Rng& r, std::size_t n) { make_permute(o, r, n, true); },
     stage_clear,
     [](Operands& o) {
       svm::permute<u32>(std::span<const u32>(o.a), std::span<u32>(o.work),
                         std::span<const u32>(o.b));
     }},
    {"permute_rand", 1u << 16,
     [](Operands& o, Rng& r, std::size_t n) { make_permute(o, r, n, false); },
     stage_clear,
     [](Operands& o) {
       svm::permute<u32>(std::span<const u32>(o.a), std::span<u32>(o.work),
                         std::span<const u32>(o.b));
     }},
    {"pack", 1u << 16,
     [](Operands& o, Rng& r, std::size_t n) {
       o.a = random_words(r, n);
       o.b.resize(n);
       o.work.assign(n, 0);
       o.expected.assign(n, 0);
       std::size_t kept = 0;
       for (std::size_t i = 0; i < n; ++i) {
         o.b[i] = static_cast<u32>(r.below(2));
         if (o.b[i] != 0) o.expected[kept++] = o.a[i];
       }
       o.expected_result = kept;
     },
     stage_clear,
     [](Operands& o) {
       o.result = svm::pack<u32>(std::span<const u32>(o.a), std::span<u32>(o.work),
                                 std::span<const u32>(o.b));
     }},
    {"radix_sort", 1u << 14,
     [](Operands& o, Rng& r, std::size_t n) {
       o.a = random_words(r, n);
       o.expected = o.a;
       std::sort(o.expected.begin(), o.expected.end());
     },
     stage_copy,
     [](Operands& o) { rvvsvm::apps::split_radix_sort<u32>(std::span<u32>(o.work)); }},
};

/// The job of a kernel workload: each kernel at each of its sizes.
std::vector<Kernel> job_kernels(std::string_view workload) {
  std::vector<Kernel> out;
  if (workload == "fused") {
    for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 16}) {
      for (Kernel k : kFused) {
        k.n = n;
        out.push_back(k);
      }
    }
  } else {
    out.assign(std::begin(kInterp), std::end(kInterp));
  }
  return out;
}

std::string cell_name(const Kernel& k, unsigned vlen) {
  return std::string(k.name) + ".v" + std::to_string(vlen) + ".n" +
         std::to_string(k.n);
}

struct Cell {
  const Kernel* kernel;
  Operands* ops;
  rvv::Machine* machine;
  std::string name;
  bool small;               ///< at the job's smallest n: timed for p50_ms
  unsigned warm_reps;       ///< extra calls in a row in a timed job
  std::uint64_t insts = 0;  ///< modeled instructions of the last call
  double last_ns = 0.0;     ///< host time of the last call
  /// The fastest call of the timed loop: plain [0] and traced [1].
  double best_ns[2] = {kNever, kNever};
};

std::vector<Cell> make_cells(const std::vector<Kernel>& kernels,
                             std::vector<Operands>& ops,
                             const std::vector<std::unique_ptr<rvv::Machine>>& machines) {
  std::size_t smallest = kernels.front().n;
  for (const Kernel& k : kernels) smallest = std::min(smallest, k.n);
  std::vector<Cell> cells;
  for (const auto& m : machines) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const bool small = kernels[k].n == smallest;
      // Only fused's 2^10 calls are short enough for a refill to matter.
      const unsigned reps = small && smallest <= (1u << 10) ? kWarmReps : 0;
      cells.push_back(Cell{&kernels[k], &ops[k], m.get(),
                           cell_name(kernels[k], m->vlen_bits()), small, reps});
    }
  }
  return cells;
}

std::vector<Operands> make_operands(const std::vector<Kernel>& kernels,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Operands> ops(kernels.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    kernels[k].make(ops[k], rng, kernels[k].n);
    if (ops[k].work.empty()) ops[k].work.resize(ops[k].expected.size());
  }
  return ops;
}

struct JobSample {
  double ns = 0.0;  ///< every call
  std::uint64_t calls = 0;
  std::uint64_t insts = 0;
};

/// Run one job: each cell once, plus its warm_reps when `timed`, which also
/// keeps each cell's fastest call.  Per-call spans are recorded only when
/// tracing; every output is checked either way.
JobSample run_job(std::vector<Cell>& cells, Result& r, Tracer* tracer,
                  bool timed = false) {
  JobSample job;
  const std::uint64_t job_id = tracer != nullptr ? tracer->new_id() : 0;
  const auto job_begin = Clock::now();
  for (Cell& c : cells) {
    const unsigned reps = timed ? c.warm_reps : 0;
    for (unsigned rep = 0; rep <= reps; ++rep) {
      c.kernel->stage(*c.ops);
      rvv::MachineScope scope(*c.machine);
      const std::uint64_t before = c.machine->counter().total();
      bool ok = true;
      const auto t0 = Clock::now();
      try {
        c.kernel->call(*c.ops);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto t1 = Clock::now();
      c.insts = c.machine->counter().total() - before;
      ok = ok && c.ops->work == c.ops->expected &&
           c.ops->result == c.ops->expected_result;
      ++r.attempted;
      if (!ok) ++r.failed;
      const double ns = nanos_between(t0, t1);
      c.last_ns = ns;
      if (timed) {
        double& best = c.best_ns[tracer != nullptr ? 1 : 0];
        best = std::min(best, ns);
      }
      job.ns += ns;
      ++job.calls;
      job.insts += c.insts;
      if (tracer != nullptr) {
        tracer->record(c.name, "svm", t0, t1, tracer->new_id(), job_id);
      }
    }
  }
  if (tracer != nullptr) {
    tracer->record("job", "job", job_begin, Clock::now(), job_id);
  }
  return job;
}

/// Moves the calling thread round the CPUs it may use, one CPU per next(),
/// and restores its affinity on destruction.  A thread left on one CPU of
/// a shared host reports that CPU's neighbours as much as the program: a
/// busy neighbour on the CPU's sibling hyperthread runs it at about 0.6x
/// for seconds at a time.  Moving round the CPUs gives every timing loop
/// samples on every CPU, so its fastest calls come from whichever CPU was
/// quiet.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(static_cast<std::size_t>(cpu), &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    ++moves_;
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(cpus_[moves_ % cpus_.size()]), &one);
    // On failure the thread stays where it is; the measurement still holds.
    static_cast<void>(sched_setaffinity(0, sizeof one, &one));
  }
  /// Moves made so far; each CPU is visited once per slots() moves.
  [[nodiscard]] std::size_t moves() const noexcept { return moves_; }
  [[nodiscard]] std::size_t slots() const noexcept {
    return cpus_.empty() ? 1 : cpus_.size();
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t moves_ = 0;
};

struct Timed {
  std::size_t windows = 0;
  std::vector<double> job_ms;
  std::uint64_t calls = 0;
};

/// Jobs in a closed loop for `seconds`; the thread moves to the next CPU
/// every 0.1 s window.  With a tracer, tracing is on for one round of the
/// CPUs and off for the next, so traced and plain calls interleave over the
/// same CPUs for trace.overhead_frac.
Timed run_for(std::vector<Cell>& cells, double seconds, Result& r, Tracer* tracer) {
  constexpr std::chrono::milliseconds kWindow{100};
  CpuRotation cpus;
  Timed t;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  auto window_end = Clock::now();
  bool traced = false;
  do {
    if (Clock::now() >= window_end) {
      cpus.next();
      ++t.windows;
      traced = tracer != nullptr && (cpus.moves() / cpus.slots()) % 2 == 1;
      window_end = Clock::now() + kWindow;
    }
    const JobSample job = run_job(cells, r, traced ? tracer : nullptr, true);
    t.job_ms.push_back(job.ns * 1e-6);
    t.calls += job.calls;
  } while (Clock::now() < end);
  return t;
}

/// Modeled instructions per host µs of one job, each cell once, at each
/// cell's fastest plain (`traced` 0) or traced (1) call; 0 without calls.
double best_mips(const std::vector<Cell>& cells, int traced) {
  double insts = 0.0;
  double ns = 0.0;
  for (const Cell& c : cells) {
    insts += static_cast<double>(c.insts);
    ns += c.best_ns[traced];
  }
  return 1e3 * insts / ns;
}

/// The mean fastest call of the cells at the job's smallest n, in ms.
double best_small_call_ms(const std::vector<Cell>& cells) {
  double ns = 0.0;
  double count = 0.0;
  for (const Cell& c : cells) {
    if (!c.small) continue;
    ns += c.best_ns[0];
    count += 1.0;
  }
  return ns * 1e-6 / count;
}

std::vector<const rvv::Machine*> views(
    const std::vector<std::unique_ptr<rvv::Machine>>& machines) {
  std::vector<const rvv::Machine*> out;
  for (const auto& m : machines) out.push_back(m.get());
  return out;
}

}  // namespace

bool is_kernel_workload(std::string_view name) {
  return name == "fused" || name == "interp";
}

std::vector<std::string> kernel_cell_names() {
  std::vector<std::string> names;
  for (const char* w : {"fused", "interp"}) {
    for (const unsigned vlen : kVlens) {
      for (const Kernel& k : job_kernels(w)) names.push_back(cell_name(k, vlen));
    }
  }
  return names;
}

Result run_kernels(const Options& opt) {
  const std::vector<Kernel> kernels = job_kernels(opt.workload);
  std::vector<Operands> ops = make_operands(kernels, opt.seed);
  std::vector<Operands> ref_ops = make_operands(kernels, kReferenceSeed);
  Result r;

  // Set-up: machine construction plus one warm-up job, tuner misses
  // included (the tuner is emptied first).  Input generation is excluded.
  // Each step (the construction, then each warm-up call) keeps its fastest
  // time over the set-ups, and setup_s is their sum.
  std::vector<std::unique_ptr<rvv::Machine>> machines;
  const unsigned setup_runs = opt.traced() || opt.smoke ? 1 : kSetups;
  std::vector<double> setup_best;
  {
    CpuRotation cpus;
    for (unsigned s = 0; s < setup_runs; ++s) {
      machines.clear();
      rvvsvm::tune::AutoTuner::global().invalidate();
      cpus.next();
      const auto t0 = Clock::now();
      for (const unsigned vlen : kVlens) {
        machines.push_back(std::make_unique<rvv::Machine>(
            rvv::Machine::Config{.vlen_bits = vlen}));
      }
      const double construct = seconds_between(t0, Clock::now());
      std::vector<Cell> warm = make_cells(kernels, ops, machines);
      run_job(warm, r, nullptr);
      setup_best.resize(warm.size() + 1, kNever);
      setup_best[0] = std::min(setup_best[0], construct);
      for (std::size_t i = 0; i < warm.size(); ++i) {
        setup_best[i + 1] = std::min(setup_best[i + 1], warm[i].last_ns * 1e-9);
      }
    }
  }
  std::vector<Cell> cells = make_cells(kernels, ops, machines);

  const LayerCounters before = read_counters(views(machines));
  Tracer tracer;
  const Timed timed = run_for(cells, opt.seconds, r, opt.traced() ? &tracer : nullptr);
  const LayerCounters after = read_counters(views(machines));

  // The modeled count: one job on the reference inputs.
  std::vector<Cell> ref_cells = make_cells(kernels, ref_ops, machines);
  rvvsvm::sim::CountSnapshot ref_before;
  for (const auto& m : machines) ref_before += m->counter().snapshot();
  const JobSample ref_job = run_job(ref_cells, r, nullptr);
  rvvsvm::sim::CountSnapshot ref_counts;
  for (const auto& m : machines) ref_counts += m->counter().snapshot();
  ref_counts = ref_counts - ref_before;

  r.notes.push_back("setups=" + std::to_string(setup_runs) +
                    " windows=" + std::to_string(timed.windows) +
                    " jobs=" + std::to_string(timed.job_ms.size()) +
                    " calls_per_job=" +
                    std::to_string(timed.calls / std::max<std::size_t>(timed.job_ms.size(), 1)));

  if (!opt.traced()) {
    double setup_s = 0.0;
    for (const double s : setup_best) setup_s += s;
    r.add("setup_s", setup_s);
    r.add("sim_mips", best_mips(cells, 0));
    r.add("modeled_insts", static_cast<double>(ref_job.insts));
    r.add("p50_ms", best_small_call_ms(cells));
    r.add("peak_rss_mb", peak_rss_mb());
    return r;
  }

  r.add_tail("p90_ms", tail_quantile(timed.job_ms, 0.9));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double n = static_cast<double>(cells[i].kernel->n);
    r.add("svm." + cells[i].name + ".ns_per_elem", cells[i].best_ns[0] / n);
    r.add("svm." + cells[i].name + ".insts_per_elem",
          static_cast<double>(ref_cells[i].insts) / n);
  }
  add_layer_metrics(before, after, static_cast<double>(timed.calls), ref_counts, r);
  r.add("trace.overhead_frac", 1.0 - ratio(best_mips(cells, 1), best_mips(cells, 0)));
  if (!tracer.write(opt.trace_path)) {
    r.violations.push_back("cannot write trace " + opt.trace_path);
  }
  return r;
}

}  // namespace svmbench
