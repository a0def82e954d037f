// svm_explore — interactive command-line driver for the library.
//
// Runs a named kernel on a synthetic workload under a chosen machine
// configuration and prints the dynamic-instruction breakdown, so new
// VLEN/LMUL/size combinations can be probed without writing a bench:
//
//   svm_explore --kernel seg_plus_scan --n 100000 --vlen 512 --lmul 4
//   svm_explore --kernel radix_sort --n 10000 --no-pressure
//   svm_explore --list
//
// The default --lmul is "tuned": the autotuner picks per call, and the
// report appends the tuner's hit/miss statistics and the per-key winners it
// recorded while running the kernel.
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "sim/report.hpp"
#include "snap/snapshot.hpp"
#include "svm/baseline/baseline.hpp"
#include "svm/baseline/qsort.hpp"
#include "svm/svm.hpp"
#include "tune/autotuner.hpp"
#include "tune/shape.hpp"

namespace {

using namespace rvvsvm;
using T = std::uint32_t;

struct Options {
  std::string kernel = "plus_scan";
  std::size_t n = 10000;
  unsigned vlen = 1024;
  unsigned lmul = svm::kTunedLmul;  // 0 = let the autotuner pick
  bool pressure = true;
  bool exec_cache = true;
  std::uint32_t seed = 1;
  std::size_t trace = 0;  // print the first N register-file trace lines
  std::string restore;    // warm-start the machine from this snapshot file
  std::string snapshot;   // save the warmed machine here after the run
};

std::vector<T> make_data(const Options& opt) {
  std::mt19937 rng(opt.seed);
  std::vector<T> v(opt.n);
  for (auto& x : v) x = static_cast<T>(rng());
  return v;
}

std::vector<T> make_flags(const Options& opt) {
  std::mt19937 rng(opt.seed + 1);
  std::vector<T> v(opt.n, 0);
  if (!v.empty()) v[0] = 1;
  for (auto& x : v) {
    if (rng() % 100 == 0) x = 1;
  }
  return v;
}

template <unsigned LMUL>
void run_kernel(const Options& opt) {
  using Runner = std::function<void(const Options&)>;
  const std::map<std::string, Runner> kernels = {
      {"p_add",
       [](const Options& o) {
         auto d = make_data(o);
         svm::p_add<T, LMUL>(std::span<T>(d), 1u);
       }},
      {"plus_scan",
       [](const Options& o) {
         auto d = make_data(o);
         svm::plus_scan<T, LMUL>(std::span<T>(d));
       }},
      {"plus_scan_exclusive",
       [](const Options& o) {
         auto d = make_data(o);
         svm::plus_scan_exclusive<T, LMUL>(std::span<T>(d));
       }},
      {"seg_plus_scan",
       [](const Options& o) {
         auto d = make_data(o);
         const auto f = make_flags(o);
         svm::seg_plus_scan<T, LMUL>(std::span<T>(d), std::span<const T>(f));
       }},
      {"enumerate",
       [](const Options& o) {
         const auto f = make_flags(o);
         std::vector<T> dst(o.n);
         static_cast<void>(svm::enumerate<T, LMUL>(std::span<const T>(f),
                                                   std::span<T>(dst), true));
       }},
      {"split",
       [](const Options& o) {
         const auto d = make_data(o);
         auto f = make_flags(o);
         for (std::size_t i = 0; i < f.size(); ++i) f[i] = d[i] & 1u;
         std::vector<T> dst(o.n);
         static_cast<void>(svm::split<T, LMUL>(std::span<const T>(d),
                                               std::span<T>(dst),
                                               std::span<const T>(f)));
       }},
      // The app-layer sorts pin their own LMUL internally (they pass it to
      // non-tuned helpers like p_convert), so tuned mode runs them at their
      // static default of 1.
      {"radix_sort",
       [](const Options& o) {
         constexpr unsigned kAppLmul = LMUL == svm::kTunedLmul ? 1 : LMUL;
         auto d = make_data(o);
         apps::split_radix_sort<T, kAppLmul>(std::span<T>(d));
       }},
      {"quicksort",
       [](const Options& o) {
         constexpr unsigned kAppLmul = LMUL == svm::kTunedLmul ? 1 : LMUL;
         auto d = make_data(o);
         apps::scan_quicksort<T, kAppLmul>(std::span<T>(d));
       }},
      {"qsort_baseline",
       [](const Options& o) {
         auto d = make_data(o);
         svm::baseline::qsort_u32(std::span<T>(d));
       }},
      {"p_add_baseline",
       [](const Options& o) {
         auto d = make_data(o);
         svm::baseline::p_add<T>(std::span<T>(d), 1u);
       }},
      {"plus_scan_baseline",
       [](const Options& o) {
         auto d = make_data(o);
         svm::baseline::plus_scan<T>(std::span<T>(d));
       }},
      {"seg_plus_scan_baseline",
       [](const Options& o) {
         auto d = make_data(o);
         const auto f = make_flags(o);
         svm::baseline::seg_plus_scan<T>(std::span<T>(d), std::span<const T>(f));
       }},
  };

  if (opt.kernel == "list" ) {
    for (const auto& [name, fn] : kernels) std::cout << "  " << name << '\n';
    return;
  }
  const auto it = kernels.find(opt.kernel);
  if (it == kernels.end()) {
    std::cerr << "unknown kernel '" << opt.kernel << "'; try --list\n";
    std::exit(2);
  }

  // Tuned mode runs under a fresh local tuner so the report reflects this
  // invocation alone (the process-wide tuner may carry earlier state).
  tune::AutoTuner tuner;
  std::optional<tune::TunerScope> tuner_scope;
  tune::AutoTuner* tuner_ptr = nullptr;
  if constexpr (LMUL == svm::kTunedLmul) {
    tuner_scope.emplace(tuner);
    tuner_ptr = &tuner;
  }

  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = opt.vlen,
                                            .model_register_pressure = opt.pressure,
                                            .use_exec_cache = opt.exec_cache});
  if (!opt.restore.empty()) {
    snap::restore_machine(machine, snap::read_file(opt.restore), tuner_ptr);
    std::cout << "restored machine state from " << opt.restore << "\n";
  }
  std::size_t traced = 0;
  if (opt.trace > 0 && machine.regfile() != nullptr) {
    machine.regfile()->set_trace_sink([&](const std::string& line) {
      if (traced < opt.trace) {
        std::cout << line << '\n';
        ++traced;
      }
    });
  }
  {
    rvv::MachineScope scope(machine);
    it->second(opt);
  }
  if (!opt.snapshot.empty()) {
    snap::write_file(opt.snapshot, snap::save_machine(machine, tuner_ptr));
    std::cout << "saved machine state to " << opt.snapshot << "\n";
  }
  const auto snap = machine.counter().snapshot();

  std::cout << "kernel=" << opt.kernel << " n=" << opt.n << " vlen=" << opt.vlen
            << " lmul=";
  if (opt.lmul == svm::kTunedLmul) {
    std::cout << "tuned";
  } else {
    std::cout << opt.lmul;
  }
  std::cout << " pressure=" << (opt.pressure ? "on" : "off") << "\n\n";
  sim::Table table({"class", "instructions"});
  for (std::size_t i = 0; i < sim::kNumInstClasses; ++i) {
    const auto cls = static_cast<sim::InstClass>(i);
    if (snap.count(cls) != 0) {
      table.add_row({std::string(sim::to_string(cls)), sim::format_count(snap.count(cls))});
    }
  }
  table.add_row({"total", sim::format_count(snap.total())});
  table.print(std::cout);
  if (machine.regfile() != nullptr) {
    std::cout << "\nregister file: peak " << machine.regfile()->peak_registers()
              << "/32 registers, " << machine.regfile()->spill_count() << " spills, "
              << machine.regfile()->reload_count() << " reloads\n";
  }
  const auto& ps = machine.pool_stats();
  const auto reuse_pct = [](std::uint64_t reuses, std::uint64_t acquires) {
    return acquires == 0 ? 0.0 : 100.0 * static_cast<double>(reuses) /
                                     static_cast<double>(acquires);
  };
  std::cout << std::fixed << std::setprecision(1)
            << "buffer pool: " << ps.block_acquires << " block acquires ("
            << reuse_pct(ps.block_reuses, ps.block_acquires) << "% recycled), "
            << ps.cell_acquires << " token cells ("
            << reuse_pct(ps.cell_reuses, ps.cell_acquires) << "% recycled), peak "
            << (ps.peak_bytes_in_use + 1023) / 1024 << " KiB live\n";
  const auto& cs = machine.exec_cache().stats();
  if (opt.exec_cache) {
    std::cout << "exec cache: " << machine.exec_cache().decoded_op_count()
              << " decoded ops (" << cs.decode_hits << " hits, "
              << cs.decode_misses << " misses), "
              << machine.exec_cache().trace_count() << " traces ("
              << cs.trace_replays << " replays, " << cs.trace_fused
              << " fused, " << cs.ops_replayed << " ops replayed, "
              << cs.trace_aborts << " aborts), "
              << machine.exec_cache().call_record_count() << " call records ("
              << cs.call_replays << " call replays)\n";
  } else {
    std::cout << "exec cache: disabled (interpreted path)\n";
  }
  if constexpr (LMUL == svm::kTunedLmul) {
    const auto ts = tuner.stats();
    std::cout << "autotuner: " << ts.hits << " hits, " << ts.misses
              << " misses, " << ts.measurements << " measurements, "
              << ts.model_pruned << " model-pruned\n";
    for (const auto& w : tuner.winners()) {
      std::cout << "  winner " << tune::shape_name(w.key.shape)
                << " bucket=" << w.key.bucket << " sew=" << w.key.sew
                << " vlen=" << w.key.vlen << " harts=" << w.key.harts
                << " -> lmul=" << w.lmul << " (" << w.measured_counts
                << " insts at n=" << (std::size_t{1} << w.key.bucket) << ")\n";
    }
  }
}

void usage() {
  std::cout <<
      "svm_explore --kernel NAME [--n N] [--vlen BITS] [--lmul tuned|1|2|4|8]\n"
      "            [--no-pressure] [--no-exec-cache] [--seed S]\n"
      "            [--trace LINES] [--restore FILE] [--snapshot FILE] [--list]\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--kernel") {
      opt.kernel = next();
    } else if (arg == "--n") {
      opt.n = std::stoul(next());
    } else if (arg == "--vlen") {
      opt.vlen = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--lmul") {
      const std::string value = next();
      opt.lmul = value == "tuned" ? svm::kTunedLmul
                                  : static_cast<unsigned>(std::stoul(value));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--trace") {
      opt.trace = std::stoul(next());
    } else if (arg == "--restore") {
      opt.restore = next();
    } else if (arg == "--snapshot") {
      opt.snapshot = next();
    } else if (arg == "--no-pressure") {
      opt.pressure = false;
    } else if (arg == "--no-exec-cache") {
      opt.exec_cache = false;
    } else if (arg == "--list") {
      opt.kernel = "list";
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option " << arg << '\n';
      usage();
      return 2;
    }
  }
  try {
    switch (opt.lmul) {
      case svm::kTunedLmul: run_kernel<svm::kTunedLmul>(opt); break;
      case 1: run_kernel<1>(opt); break;
      case 2: run_kernel<2>(opt); break;
      case 4: run_kernel<4>(opt); break;
      case 8: run_kernel<8>(opt); break;
      default:
        std::cerr << "lmul must be tuned, 1, 2, 4 or 8\n";
        return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
