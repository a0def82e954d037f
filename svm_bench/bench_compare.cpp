// bench_compare: compares two sets of svm_bench --json results against the
// end-to-end bounds in BENCHMARK.json.
//
//   bench_compare --bounds BENCHMARK.json --a A1.json [A2.json ...]
//                 --b B1.json [B2.json ...]
//
// For every workload and end-to-end metric it prints each side's median and
// quartiles (Python's statistics.quantiles, n=4) and a verdict:
//
//   unresolved  either side's quartile spread, as a share of its median, is
//               wider than the bound, and not every B run beats every A run;
//   worse       B's median is worse than A's by more than the bound;
//   better      B's median beats A's by more than A's own quartile spread
//               and B wins at least 9 of 10 runs paired in order;
//   same        otherwise.
//
// A metric with bound 0 is compared exactly: every run must read the same.
// Exits 1 when any verdict is worse or unresolved, 2 on bad input.
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace {

/// Just enough JSON for BENCHMARK.json and svm_bench --json files.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_space();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON: " + what + " at offset " + std::to_string(i_));
  }
  void skip_space() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
                              s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_space();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  Json value() {
    skip_space();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.type = Json::Type::kObject;
      if (eat('}')) return v;
      do {
        skip_space();
        std::string key = string();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.type = Json::Type::kArray;
      if (eat(']')) return v;
      do {
        v.array.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string();
    } else if (literal("true") || literal("false")) {
      v.type = Json::Type::kBool;
      v.boolean = c == 't';
    } else if (literal("null")) {
      v.type = Json::Type::kNull;
    } else {
      v.type = Json::Type::kNumber;
      v.number = number();
    }
    return v;
  }

  std::string string() {
    if (i_ >= s_.size() || s_[i_] != '"') fail("expected a string");
    ++i_;
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("bad escape");
        c = s_[i_++];
        if (c == 'n') c = '\n';
        else if (c == 't') c = '\t';
        else if (c == 'r') c = '\r';
        else if (c == 'b') c = '\b';
        else if (c == 'f') c = '\f';
        else if (c == 'u') {
          i_ += 4;  // non-ASCII escapes do not occur in these files
          c = '?';
        }
      }
      out.push_back(c);
    }
    if (i_ >= s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }

  double number() {
    const std::size_t begin = i_;
    while (i_ < s_.size() && std::string_view("+-0123456789.eE").find(s_[i_]) !=
                                 std::string_view::npos) {
      ++i_;
    }
    double v = 0.0;
    const auto res = std::from_chars(s_.data() + begin, s_.data() + i_, v);
    if (res.ec == std::errc::result_out_of_range) {
      // 1e999: svm_bench's spelling of a percentile that reached a miss.
      return s_[begin] == '-' ? -std::numeric_limits<double>::infinity()
                              : std::numeric_limits<double>::infinity();
    }
    if (res.ec != std::errc() || res.ptr != s_.data() + i_ || begin == i_) {
      fail("bad number");
    }
    return v;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str()).document();
}

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

/// values[workload][metric] = one value per run, in file order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

void load_runs(const std::vector<std::string>& paths, Runs& runs) {
  for (const std::string& path : paths) {
    const Json doc = read_json(path);
    const Json* workload = doc.get("workload");
    const Json* metrics = doc.get("metrics");
    const Json* traced = doc.get("traced");
    if (workload == nullptr || metrics == nullptr) {
      throw std::runtime_error(path + ": not an svm_bench --json result");
    }
    if (traced != nullptr && traced->boolean) continue;  // per-layer only
    for (const auto& [name, m] : metrics->object) {
      if (const Json* v = m.get("value")) {
        runs[workload->string][name].push_back(v->number);
      }
    }
  }
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

std::string percent(double share) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << 100.0 * share << '%';
  return os.str();
}

/// The verdict on one metric; `change` is B's median against A's, signed so
/// that positive is worse.
std::string verdict(const Bound& b, const std::vector<double>& a,
                    const std::vector<double>& bv, double& change) {
  const svmbench::Quartiles qa = svmbench::quartiles(a);
  const svmbench::Quartiles qb = svmbench::quartiles(bv);
  const double sign = b.higher_is_better ? -1.0 : 1.0;
  change = qa.median != 0.0 ? sign * (qb.median - qa.median) / std::fabs(qa.median) : 0.0;
  const auto better = [&](double x, double y) { return sign * (x - y) < 0.0; };
  if (b.bound == 0.0) {
    const double first = a.front();
    bool identical = true;
    for (const auto* side : {&a, &bv}) {
      for (const double v : *side) identical = identical && v == first;
    }
    if (identical) return "same";
    if (qa.q1 != qa.q3 || qb.q1 != qb.q3) return "unresolved";
    return change > 0.0 ? "worse" : "better";
  }
  bool all_better = true;
  for (const double x : bv) {
    for (const double y : a) all_better = all_better && better(x, y);
  }
  if (std::max(qa.spread(), qb.spread()) > b.bound) {
    return all_better ? "better" : "unresolved";
  }
  if (change > b.bound) return "worse";
  std::size_t wins = 0;
  const std::size_t pairs = std::min(a.size(), bv.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(bv[i], a[i])) ++wins;
  }
  if (-change > qa.spread() && 10 * wins >= 9 * pairs) return "better";
  return "same";
}

int usage() {
  std::cerr << "usage: bench_compare --bounds BENCHMARK.json --a A.json... "
               "--b B.json...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bounds_path;
  std::vector<std::string> a_paths;
  std::vector<std::string> b_paths;
  std::vector<std::string>* side = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
      side = nullptr;
    } else if (arg == "--a") {
      side = &a_paths;
    } else if (arg == "--b") {
      side = &b_paths;
    } else if (side != nullptr && !arg.starts_with("--")) {
      side->emplace_back(arg);
    } else {
      return usage();
    }
  }
  if (bounds_path.empty() || a_paths.empty() || b_paths.empty()) return usage();

  std::vector<Bound> bounds;
  Runs a;
  Runs b;
  try {
    const Json spec = read_json(bounds_path);
    const Json* e2e = spec.get("end_to_end");
    if (e2e == nullptr) throw std::runtime_error(bounds_path + ": no end_to_end");
    for (const Json& m : e2e->array) {
      const Json* name = m.get("name");
      const Json* better = m.get("better");
      const Json* bound = m.get("bound");
      if (name == nullptr || better == nullptr || bound == nullptr) {
        throw std::runtime_error(bounds_path + ": incomplete end_to_end entry");
      }
      bounds.push_back({name->string, better->string == "higher", bound->number});
    }
    load_runs(a_paths, a);
    load_runs(b_paths, b);
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << '\n';
    return 2;
  }

  std::set<std::string> workloads;
  for (const auto* runs : {&a, &b}) {
    for (const auto& [w, metrics] : *runs) workloads.insert(w);
  }
  int rc = 0;
  std::cout << std::left << std::setw(12) << "workload" << std::setw(15) << "metric"
            << std::setw(42) << "A median [q1, q3]" << std::setw(42)
            << "B median [q1, q3]" << std::setw(11) << "worse by" << "verdict\n";
  for (const std::string& w : workloads) {
    for (const Bound& bound : bounds) {
      const auto& av = a[w][bound.name];
      const auto& bv = b[w][bound.name];
      if (av.empty() || bv.empty()) {
        std::cout << std::setw(12) << w << std::setw(15) << bound.name
                  << "missing on one side\n";
        rc = 1;
        continue;
      }
      double change = 0.0;
      const std::string v = verdict(bound, av, bv, change);
      const auto side_text = [](const std::vector<double>& vals) {
        const svmbench::Quartiles q = svmbench::quartiles(vals);
        return fmt(q.median) + " [" + fmt(q.q1) + ", " + fmt(q.q3) + "]";
      };
      std::cout << std::setw(12) << w << std::setw(15) << bound.name << std::setw(42)
                << side_text(av) << std::setw(42) << side_text(bv) << std::setw(11)
                << percent(change) << v << '\n';
      if (v == "worse" || v == "unresolved") rc = 1;
    }
  }
  return rc;
}
