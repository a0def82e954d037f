// svm_bench: the repository's benchmark (see README.md).
//
//   svm_bench --workload W [--seed N] [--seconds S] [--json PATH]
//       W is fused, interp, serve_small or serve_large.  Prints every
//       end-to-end metric and exits non-zero on any wrong output.
//   svm_bench --workload W --trace PATH [...]
//       The traced run: records spans around the benchmark's calls into
//       each layer, writes them to PATH as Chrome-trace JSON, and prints
//       every per-layer metric instead.
//   svm_bench --smoke        every workload for about a second, plus the
//                            self-test; exits non-zero on any violation
//   svm_bench --self-test    the statistics helpers on synthetic samples
//   svm_bench --list-metrics every metric name with its unit
//
// Output: one "name value unit" line per metric, "# ..." notes, and as the
// last line one JSON object with the keys correct, attempted, failed and
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "tune/autotuner.hpp"

namespace svmbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

LayerCounters read_counters(std::span<const rvvsvm::rvv::Machine* const> machines) {
  LayerCounters c;
  for (const rvvsvm::rvv::Machine* m : machines) {
    const rvvsvm::rvv::ExecCacheStats& s = m->exec_cache().stats();
    c.cache.decode_hits += s.decode_hits;
    c.cache.decode_misses += s.decode_misses;
    c.cache.trace_replays += s.trace_replays;
    c.cache.trace_fused += s.trace_fused;
    c.cache.trace_aborts += s.trace_aborts;
    c.cache.trace_poisons += s.trace_poisons;
    c.block_acquires += m->pool_stats().block_acquires;
    c.block_reuses += m->pool_stats().block_reuses;
    c.peak_bytes = std::max(c.peak_bytes, m->pool_stats().peak_bytes_in_use);
  }
  return c;
}

void add_layer_metrics(const LayerCounters& before, const LayerCounters& after,
                       double calls, const rvvsvm::sim::CountSnapshot& modeled,
                       Result& r) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const rvvsvm::rvv::ExecCacheStats& a = after.cache;
  const rvvsvm::rvv::ExecCacheStats& b = before.cache;
  r.add("rvv.decode_hit_ratio",
        ratio(delta(a.decode_hits, b.decode_hits),
              delta(a.decode_hits + a.decode_misses, b.decode_hits + b.decode_misses)));
  r.add("rvv.fused_ratio", ratio(delta(a.trace_fused, b.trace_fused),
                                 delta(a.trace_replays, b.trace_replays)));
  r.add("rvv.replays_per_call", ratio(delta(a.trace_replays, b.trace_replays), calls));
  r.add("rvv.trace_aborts", delta(a.trace_aborts, b.trace_aborts));
  r.add("rvv.trace_poisons", delta(a.trace_poisons, b.trace_poisons));
  r.add("sim.spills",
        static_cast<double>(modeled.count(rvvsvm::sim::InstClass::kVectorSpill)));
  r.add("sim.reloads",
        static_cast<double>(modeled.count(rvvsvm::sim::InstClass::kVectorReload)));
  r.add("sim.pool_reuse_ratio",
        ratio(delta(after.block_reuses, before.block_reuses),
              delta(after.block_acquires, before.block_acquires)));
  r.add("sim.pool_peak_bytes", static_cast<double>(after.peak_bytes));
  const rvvsvm::tune::Stats ts = rvvsvm::tune::AutoTuner::global().stats();
  r.add("tune.hits", static_cast<double>(ts.hits));
  r.add("tune.misses", static_cast<double>(ts.misses));
  r.add("tune.measurements", static_cast<double>(ts.measurements));
  r.add("tune.model_pruned", static_cast<double>(ts.model_pruned));
}

namespace {

/// Shortest text that reads back as the same double; non-finite values
/// (a percentile reaching missed requests) print as 1e999.
std::string number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Result::add_tail(const std::string& name, const Tail& t) {
  add(name, t.value);
  std::string note = name + " samples=" + std::to_string(t.samples);
  if (t.fell_back) {
    note += " (too few samples beyond it: reports the " + number(t.q) + " quantile)";
  }
  notes.push_back(std::move(note));
}

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"sim_mips", "Minsts/s"}, {"modeled_insts", "insts"},
      {"p50_ms", "ms"}, {"peak_rss_mb", "MiB"},
  };
  return specs;
}

/// Every per-layer metric.  A workload whose path does not include a layer
/// reports it as 0 (README.md lists where each one is live).
const std::vector<MetricSpec>& per_layer() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    for (const std::string& cell : kernel_cell_names()) {
      s.push_back({"svm." + cell + ".ns_per_elem", "ns"});
      s.push_back({"svm." + cell + ".insts_per_elem", "insts"});
    }
    const std::pair<const char*, const char*> layers[] = {
        {"p90_ms", "ms"},
        {"rvv.decode_hit_ratio", "ratio"},
        {"rvv.fused_ratio", "ratio"},
        {"rvv.replays_per_call", "count"},
        {"rvv.trace_aborts", "count"},
        {"rvv.trace_poisons", "count"},
        {"sim.spills", "insts"},
        {"sim.reloads", "insts"},
        {"sim.pool_reuse_ratio", "ratio"},
        {"sim.pool_peak_bytes", "bytes"},
        {"tune.hits", "count"},
        {"tune.misses", "count"},
        {"tune.measurements", "count"},
        {"tune.model_pruned", "count"},
        {"serve.capacity_rps", "req/s"},
        {"serve.submit_us.p50", "us"},
        {"serve.submit_us.p99", "us"},
        {"serve.ready_us.p50", "us"},
        {"serve.reqs_per_wave", "count"},
        {"serve.coalesced_frac", "ratio"},
        {"serve.individual_frac", "ratio"},
        {"serve.large_frac", "ratio"},
        {"serve.p99_ms", "ms"},
        {"serve.gen_late_ms.p99", "ms"},
        {"serve.gen_late_ms.max", "ms"},
        {"serve.backlog_s", "s"},
        {"serve.rejected", "count"},
        {"serve.failed", "count"},
        {"serve.bill_mismatch_insts", "insts"},
        {"serve.billed_insts_per_req", "insts"},
        {"par.epochs_per_req", "count"},
        {"par.hart_imbalance", "ratio"},
        {"par.waste_frac", "ratio"},
        {"ladder.svm_us_per_req", "us"},
        {"ladder.par_us_per_req", "us"},
        {"ladder.fg_us_per_req", "us"},
        {"ladder.bg_us_per_req", "us"},
        {"ladder.serve_self_us", "us"},
        {"ladder.handoff_us", "us"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const auto& [name, unit] : layers) s.push_back({name, unit});
    return s;
  }();
  return specs;
}

/// The run's metrics in catalog order, zero-filled for per-layer metrics
/// the workload does not reach; a missing end-to-end metric or a name the
/// catalog lacks is a violation.
std::vector<std::pair<const MetricSpec*, double>> catalogued(const Options& opt,
                                                             Result& r) {
  const std::vector<MetricSpec>& catalog = opt.traced() ? per_layer() : end_to_end();
  std::map<std::string, double> values;
  for (const Metric& m : r.metrics) {
    bool known = false;
    for (const MetricSpec& spec : catalog) known = known || spec.name == m.name;
    if (!known) r.violations.push_back("metric not in the catalog: " + m.name);
    values[m.name] = m.value;
  }
  std::vector<std::pair<const MetricSpec*, double>> out;
  for (const MetricSpec& spec : catalog) {
    const auto it = values.find(spec.name);
    if (it == values.end() && !opt.traced()) {
      r.violations.push_back("end-to-end metric not measured: " + spec.name);
    }
    out.emplace_back(&spec, it == values.end() ? 0.0 : it->second);
  }
  return out;
}

Result run(const Options& opt) {
  if (is_kernel_workload(opt.workload)) return run_kernels(opt);
  return run_serve(opt);
}

int report(const Options& opt, Result& r, const std::string& json_path) {
  const auto metrics = catalogued(opt, r);
  for (const std::string& note : r.notes) std::cout << "# " << note << '\n';
  for (const std::string& v : r.violations) {
    std::cout << "# violation: " << v << '\n';
    std::cerr << "svm_bench: " << v << '\n';
  }
  std::ostringstream body;
  body << "\"correct\": " << (r.correct() ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    std::cout << spec->name << ' ' << number(value) << ' ' << spec->unit << '\n';
    body << (i == 0 ? "" : ", ") << '"' << spec->name << "\": {\"value\": "
         << number(value) << ", \"unit\": \"" << spec->unit << "\"}";
  }
  body << '}';
  std::cout << '{' << body.str() << '}' << std::endl;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"traced\": " << (opt.traced() ? "true" : "false") << ", "
        << body.str() << "}\n";
    if (!out) {
      std::cerr << "svm_bench: cannot write " << json_path << '\n';
      return 1;
    }
  }
  return r.correct() ? 0 : 1;
}

constexpr const char* kWorkloads[] = {"fused", "interp", "serve_small", "serve_large"};

/// Every workload briefly, untraced and traced, plus the self-test.  The
/// traced runs write their trace to the working directory and remove it
/// once it is known to be non-empty.
int smoke() {
  int rc = self_test();
  for (const char* w : kWorkloads) {
    for (const bool traced : {false, true}) {
      Options opt;
      opt.workload = w;
      opt.seconds = traced ? 0.4 : 0.8;
      opt.smoke = true;
      if (traced) opt.trace_path = "svm_bench-smoke-trace.json";
      Result r = run(opt);
      static_cast<void>(catalogued(opt, r));
      if (traced) {
        std::error_code ec;
        if (std::filesystem::file_size(opt.trace_path, ec) == 0 || ec) {
          r.violations.push_back("empty trace");
        }
        std::filesystem::remove(opt.trace_path, ec);
      }
      std::cout << "smoke: " << w << (traced ? " traced" : "") << ": "
                << r.attempted << " attempted, " << r.failed << " failed";
      for (const std::string& v : r.violations) std::cout << "; " << v;
      std::cout << '\n';
      if (!r.correct() || r.attempted == 0) rc = 1;
    }
  }
  std::cout << "smoke: " << (rc == 0 ? "ok" : "FAILED") << '\n';
  return rc;
}

int usage() {
  std::cerr << "usage: svm_bench --workload fused|interp|serve_small|serve_large\n"
               "                 [--seed N] [--seconds S]\n"
               "                 [--trace PATH] [--json PATH]\n"
               "       svm_bench --smoke | --self-test | --list-metrics\n";
  return 2;
}

template <class T>
bool parse(std::string_view s, T& out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

}  // namespace
}  // namespace svmbench

int main(int argc, char** argv) {
  using namespace svmbench;
  Options opt;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") return smoke();
    if (arg == "--self-test") return self_test();
    if (arg == "--list-metrics") {
      for (const auto* list : {&end_to_end(), &per_layer()}) {
        for (const MetricSpec& m : *list) std::cout << m.name << ' ' << m.unit << '\n';
      }
      return 0;
    }
    if (!has_value) return usage();
    const std::string_view value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      ok = parse(value, opt.seed);
    } else if (arg == "--seconds") {
      ok = parse(value, opt.seconds) && opt.seconds > 0.0 && opt.seconds <= 600.0;
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else if (arg == "--json") {
      json_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  if (!is_kernel_workload(opt.workload) && !is_serve_workload(opt.workload)) {
    return usage();
  }
  try {
    Result r = run(opt);
    return report(opt, r, json_path);
  } catch (const std::exception& e) {
    std::cerr << "svm_bench: " << e.what() << '\n';
    return 1;
  }
}
