// snapshot_warmup — cold start vs snapshot restore across the VLEN sweep.
//
//   snapshot_warmup [--seed N] [--n N] [--reps N] [--vlen-list 128,256,512,1024]
//                   [--min-speedup X] [--json PATH] [--smoke]
//
// For each VLEN the bench measures, wall-clock, the two ways a machine
// reaches its warmed steady state:
//
//   * cold — construct a Machine and a fresh AutoTuner, then run the warmup
//     workload: two pinned passes of plus_scan / seg_plus_scan / reduce (so
//     strip-mine traces record and stabilize) plus one tuned call per scan
//     shape (so the autotuner pays its measurement misses on scratch
//     machines);
//
//   * restore — construct a Machine and a fresh AutoTuner, then read the
//     snapshot file a previous cold run saved and restore it.
//
// A snapshot carries the ledger and the tuner's winners, not host caches,
// so a restored machine's first call still records its strip-mine traces
// and fills its decode table and buffer pool.  The bench reports that cost
// next to the restore: first_call_ms times one tuned plus_scan on each
// restored machine, warm_call_ms the same call on each cold-warmed machine,
// whose caches are already warm.
//
// All timings are best-of-N reps.  After the timed restore the bench
// verifies the warm-start contract before reporting: the restored ledger
// equals the cold machine's class-for-class, and the first tuned call
// replays the imported winner without re-measuring.  A cell that fails
// verification fails the bench regardless of its speedup.
//
// --min-speedup X turns the report into a CI gate applied at the largest
// VLEN (the paper's headline configuration).  --json writes the
// BENCH_snapshot.json contract.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "rvv/rvv.hpp"
#include "snap/snapshot.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace rvvsvm;
using T = std::uint32_t;

struct Options {
  std::uint64_t seed = 1;
  std::size_t n = 50000;
  std::size_t reps = 5;
  std::vector<unsigned> vlens{128, 256, 512, 1024};
  double min_speedup = 0.0;  ///< 0 = no gate
  std::string json_path;
  bool smoke = false;
};

struct Cell {
  unsigned vlen = 0;
  std::size_t n = 0;
  double cold_ms = 0.0;
  double restore_ms = 0.0;
  double speedup = 0.0;
  double first_call_ms = 0.0;  ///< first tuned plus_scan after a restore
  double warm_call_ms = 0.0;   ///< the same call on a cold-warmed machine
  std::size_t snapshot_bytes = 0;
  std::size_t tuner_winners = 0;
  std::size_t traces = 0;
  bool verified = false;
};

std::vector<T> make_data(std::size_t n, std::uint64_t seed) {
  std::vector<T> v(n);
  std::uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& e : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    e = static_cast<T>(x >> 33) & 0xFFFFu;
  }
  return v;
}

std::vector<T> make_flags(std::size_t n) {
  std::vector<T> flags(n, 0);
  if (n > 0) flags[0] = 1;
  for (std::size_t i = 97; i < n; i += 97) flags[i] = 1;
  return flags;
}

/// The warmup workload: everything a cold machine pays before it is "warm".
/// Two pinned passes stabilize the strip-mine traces; the tuned calls pay
/// the autotuner's measurement misses.
void warm(rvv::Machine& m, tune::AutoTuner& tuner, const std::vector<T>& data,
          const std::vector<T>& flags) {
  tune::TunerScope ts(tuner);
  rvv::MachineScope scope(m);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<T> buf(data);
    svm::plus_scan<T, 2>(std::span<T>(buf));
    std::vector<T> seg(data);
    svm::seg_plus_scan<T, 2>(std::span<T>(seg), std::span<const T>(flags));
    static_cast<void>(
        svm::reduce<svm::PlusOp, T, 4>(std::span<const T>(data)));
  }
  std::vector<T> tuned_scan(data);
  svm::plus_scan<T>(std::span<T>(tuned_scan));
  std::vector<T> tuned_seg(data);
  svm::seg_plus_scan<T>(std::span<T>(tuned_seg), std::span<const T>(flags));
}

/// One tuned plus_scan on `m`, timed in milliseconds (the operand copy is
/// made outside the timed region).
double timed_tuned_scan_ms(rvv::Machine& m, tune::AutoTuner& tuner,
                           const std::vector<T>& data) {
  std::vector<T> buf(data);
  const auto t0 = Clock::now();
  {
    tune::TunerScope ts(tuner);
    rvv::MachineScope scope(m);
    svm::plus_scan<T>(std::span<T>(buf));
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[nodiscard]] bool same_counts(const sim::CountSnapshot& a,
                               const sim::CountSnapshot& b) {
  for (std::size_t i = 0; i < sim::kNumInstClasses; ++i) {
    const auto cls = static_cast<sim::InstClass>(i);
    if (a.count(cls) != b.count(cls)) return false;
  }
  return true;
}

Cell run_cell(const Options& opt, unsigned vlen, const std::string& snap_path) {
  Cell cell;
  cell.vlen = vlen;
  cell.n = opt.n;

  const rvv::Machine::Config cfg{.vlen_bits = vlen};
  const std::vector<T> data = make_data(opt.n, opt.seed + vlen);
  const std::vector<T> flags = make_flags(opt.n);

  // Cold path, best of reps.  The last rep's machine becomes the snapshot
  // source, saved outside any timed region.
  double cold_best_ms = 0.0;
  double warm_call_best_ms = 0.0;
  sim::CountSnapshot warmed_counts;
  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    const auto t0 = Clock::now();
    tune::AutoTuner tuner;
    rvv::Machine machine(cfg);
    warm(machine, tuner, data, flags);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || ms < cold_best_ms) cold_best_ms = ms;
    if (rep + 1 == opt.reps) {
      warmed_counts = machine.counter().snapshot();
      const snap::Blob blob = snap::save_machine(machine, &tuner);
      cell.snapshot_bytes = blob.size();
      cell.tuner_winners = tuner.winners().size();
      cell.traces = machine.exec_cache().trace_count();
      snap::write_file(snap_path, blob);
    }
    const double call_ms = timed_tuned_scan_ms(machine, tuner, data);
    if (rep == 0 || call_ms < warm_call_best_ms) warm_call_best_ms = call_ms;
  }
  cell.cold_ms = cold_best_ms;
  cell.warm_call_ms = warm_call_best_ms;

  // Restore path, best of reps: file read + parse + install.
  double restore_best_ms = 0.0;
  double first_call_best_ms = 0.0;
  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    const auto t0 = Clock::now();
    tune::AutoTuner tuner;
    rvv::Machine machine(cfg);
    snap::restore_machine(machine, snap::read_file(snap_path), &tuner);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || ms < restore_best_ms) restore_best_ms = ms;

    // Warm-start contract: ledger restored bit-identically, and the first
    // tuned call replays the imported winner without re-measuring.
    const bool ledger_ok =
        same_counts(machine.counter().snapshot(), warmed_counts);
    const double call_ms = timed_tuned_scan_ms(machine, tuner, data);
    if (rep == 0 || call_ms < first_call_best_ms) first_call_best_ms = call_ms;
    if (rep + 1 == opt.reps) {
      cell.verified = ledger_ok && tuner.stats().measurements == 0 &&
                      tuner.stats().hits >= 1;
    }
  }
  cell.restore_ms = restore_best_ms;
  cell.first_call_ms = first_call_best_ms;
  cell.speedup =
      cell.restore_ms > 0.0 ? cell.cold_ms / cell.restore_ms : 0.0;

  std::remove(snap_path.c_str());
  return cell;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void write_json(const std::vector<Cell>& cells, const Options& opt,
                bool pass, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "snapshot_warmup: cannot write " << path << "\n";
    std::exit(2);
  }
  const Cell& gated = cells.back();
  out << "{\n"
      << "  \"schema\": \"rvvsvm-bench-snapshot\",\n"
      << "  \"schema_version\": 2,\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"n\": " << opt.n << ",\n"
      << "  \"reps\": " << opt.reps << ",\n"
      << "  \"summary\": {\n"
      << "    \"min_speedup_gate\": " << json_number(opt.min_speedup) << ",\n"
      << "    \"gated_vlen\": " << gated.vlen << ",\n"
      << "    \"gated_speedup\": " << json_number(gated.speedup) << ",\n"
      << "    \"pass\": " << (pass ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"vlen\": " << c.vlen << ", \"n\": " << c.n
        << ", \"cold_ms\": " << json_number(c.cold_ms)
        << ", \"restore_ms\": " << json_number(c.restore_ms)
        << ", \"speedup\": " << json_number(c.speedup)
        << ", \"first_call_ms\": " << json_number(c.first_call_ms)
        << ", \"warm_call_ms\": " << json_number(c.warm_call_ms)
        << ", \"snapshot_bytes\": " << c.snapshot_bytes
        << ", \"tuner_winners\": " << c.tuner_winners
        << ", \"traces\": " << c.traces
        << ", \"verified\": " << (c.verified ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_summary(const std::vector<Cell>& cells) {
  std::cout << std::left << std::setw(7) << "vlen" << std::right
            << std::setw(12) << "cold ms" << std::setw(12) << "restore ms"
            << std::setw(11) << "speedup" << std::setw(12) << "1st call ms"
            << std::setw(13) << "warm call ms" << std::setw(10) << "bytes"
            << std::setw(9) << "winners" << std::setw(8) << "traces"
            << std::setw(10) << "verified" << '\n';
  for (const Cell& c : cells) {
    std::cout << std::left << std::setw(7) << c.vlen << std::right
              << std::fixed << std::setw(12) << std::setprecision(3)
              << c.cold_ms << std::setw(12) << c.restore_ms << std::setw(10)
              << std::setprecision(1) << c.speedup << "x"
              << std::setprecision(3) << std::setw(12) << c.first_call_ms
              << std::setw(13) << c.warm_call_ms << std::setw(10)
              << c.snapshot_bytes << std::setw(9) << c.tuner_winners
              << std::setw(8) << c.traces << std::setw(10)
              << (c.verified ? "yes" : "NO") << '\n';
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

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        std::cerr << "snapshot_warmup: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--seed") {
      if (!parse_u64(value(), opt.seed)) return 2;
    } else if (arg == "--n") {
      if (!parse_u64(value(), v) || v == 0) return 2;
      opt.n = v;
    } else if (arg == "--reps") {
      if (!parse_u64(value(), v) || v == 0) return 2;
      opt.reps = v;
    } else if (arg == "--vlen-list") {
      opt.vlens.clear();
      std::istringstream list{std::string(value())};
      std::string tok;
      while (std::getline(list, tok, ',')) {
        if (!parse_u64(tok, v) || v == 0) return 2;
        opt.vlens.push_back(static_cast<unsigned>(v));
      }
      if (opt.vlens.empty()) return 2;
    } else if (arg == "--min-speedup") {
      try {
        opt.min_speedup = std::stod(std::string(value()));
      } catch (...) {
        return 2;
      }
    } else if (arg == "--json") {
      opt.json_path = std::string(value());
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: snapshot_warmup [--seed N] [--n N] [--reps N]\n"
                   "                       [--vlen-list 128,256,512,1024]\n"
                   "                       [--min-speedup X] [--json PATH]\n"
                   "                       [--smoke]\n";
      return 0;
    } else {
      std::cerr << "snapshot_warmup: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opt.smoke) {
    opt.n = std::min<std::size_t>(opt.n, 8000);
    opt.reps = std::min<std::size_t>(opt.reps, 2);
  }

  const std::string snap_path =
      opt.json_path.empty() ? "snapshot_warmup.tmp.snap"
                            : opt.json_path + ".tmp.snap";

  std::vector<Cell> cells;
  for (const unsigned vlen : opt.vlens) {
    std::cout << "snapshot_warmup: VLEN " << vlen << ", n " << opt.n
              << ", best of " << opt.reps << "...\n";
    cells.push_back(run_cell(opt, vlen, snap_path));
  }

  int rc = 0;
  for (const Cell& c : cells) {
    if (!c.verified) {
      std::cerr << "snapshot_warmup: FAIL — restored machine at VLEN "
                << c.vlen << " failed the warm-start contract\n";
      rc = 1;
    }
  }
  // The speedup gate applies at the largest VLEN (the headline config).
  const Cell& gated = cells.back();
  if (opt.min_speedup > 0.0 && gated.speedup < opt.min_speedup) {
    std::cerr << "snapshot_warmup: FAIL — restore speedup "
              << json_number(gated.speedup) << "x at VLEN " << gated.vlen
              << " below gate " << json_number(opt.min_speedup) << "x\n";
    rc = 1;
  }

  print_summary(cells);
  if (!opt.json_path.empty()) {
    write_json(cells, opt, rc == 0, opt.json_path);
  }
  return rc;
}
