// svm_serve — command-line driver for the multi-tenant scan service.
//
//   svm_serve [--harts N] [--vlen BITS] [--queue N] [--threshold N]
//             [--budget TENANT:MAX]... [--foreground] [--quiet]
//
// Speaks a line protocol on stdin/stdout (one request per line, one response
// line per request), so the same session loop can later sit behind a socket
// accept() without touching the service:
//
//   scan <tenant> <v0> <v1> ...          inclusive plus-scan
//   scan_exclusive <tenant> <v0> ...     exclusive plus-scan
//   reduce <tenant> <v0> ...             plus-reduce to one scalar
//   compress <tenant> <n> <v0..v_{n-1}> <f0..f_{n-1}>
//   histogram <tenant> <bins> <k0> ...   bin counts
//   sort <tenant> <v0> ...               split radix sort
//   budget <tenant> <max_instructions>   set the tenant's admission budget
//   bills                                print every tenant's ledger
//   stats                                print service counters
//   quit                                 stop the service and exit
//
// Request commands accept `deadline=N` (virtual-time instruction budget;
// overload containment, see DESIGN.md §9) and `priority=background|batch|
// interactive` options between the command and the tenant id, e.g.
// `scan deadline=50000 priority=interactive 1 1 2 3`.  --deadline and
// --priority set session-wide defaults.
//
// Responses: `ok kind=<k> bill=<n> vt=<n> coalesced=<0|1> [scalar=<v>]
// [data=...]` on success, `err code=<mnemonic> detail=<message>` on
// failure.  Exit status 0 on clean quit/EOF, 2 on usage errors.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "serve/service.hpp"
#include "sim/trap.hpp"
#include "snap/snapshot.hpp"

namespace {

using rvvsvm::serve::ErrorCode;
using rvvsvm::serve::Kind;
using rvvsvm::serve::Request;
using rvvsvm::serve::Response;
using rvvsvm::serve::ScanService;
using rvvsvm::serve::Value;

void usage(std::ostream& os) {
  os << "usage: svm_serve [--harts N] [--vlen BITS] [--queue N]\n"
        "                 [--threshold N] [--budget TENANT:MAX]...\n"
        "                 [--restore FILE] [--snapshot FILE]\n"
        "                 [--checkpoint-every N] [--deadline N]\n"
        "                 [--priority CLASS] [--breaker N:COOLDOWN]\n"
        "                 [--foreground] [--quiet]\n"
        "  --harts N          pool size (default 4)\n"
        "  --vlen BITS        emulated VLEN (default 256)\n"
        "  --queue N          admission queue capacity (default 1024)\n"
        "  --threshold N      elements at which a request stops coalescing\n"
        "  --budget T:MAX     per-tenant instruction budget (repeatable)\n"
        "  --restore FILE     warm-start the pool from a snapshot file\n"
        "  --snapshot FILE    write a pool snapshot on clean exit\n"
        "  --checkpoint-every N  also checkpoint every N scheduler waves\n"
        "                     (to the --snapshot file)\n"
        "  --deadline N       default virtual-time deadline per request\n"
        "                     (0 = none; per-request deadline= overrides)\n"
        "  --priority CLASS   default priority: background|batch|interactive\n"
        "  --breaker N:CD     trip a tenant's circuit breaker after N\n"
        "                     consecutive failures, cooldown CD virtual time\n"
        "  --foreground       no scheduler thread; drain per request\n"
        "  --quiet            suppress the banner\n"
        "then drive it over stdin; `quit` or EOF stops the service.\n";
}

[[nodiscard]] bool parse_priority(std::string_view s,
                                  rvvsvm::serve::Priority& out) {
  if (s == "background") {
    out = rvvsvm::serve::Priority::kBackground;
  } else if (s == "batch") {
    out = rvvsvm::serve::Priority::kBatch;
  } else if (s == "interactive") {
    out = rvvsvm::serve::Priority::kInteractive;
  } else {
    return false;
  }
  return true;
}

/// A whole token of decimal digits whose value fits in T; false on a sign,
/// a stray character or overflow.
template <class T>
[[nodiscard]] bool parse_uint(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

[[nodiscard]] bool read_values(std::istringstream& in, std::vector<Value>& out,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Value v = 0;
    std::string tok;
    if (!(in >> tok) || !parse_uint(tok, v)) return false;
    out.push_back(v);
  }
  return true;
}

/// Drain the rest of the line as Values; false on a token that is not a
/// Value.
[[nodiscard]] bool read_rest(std::istringstream& in, std::vector<Value>& out) {
  std::string tok;
  while (in >> tok) {
    Value v = 0;
    if (!parse_uint(tok, v)) return false;
    out.push_back(v);
  }
  return true;
}

void print_response(std::ostream& os, Kind kind, const Response& resp) {
  if (!resp.ok()) {
    os << "err code=" << to_string(resp.error) << " detail=" << resp.message
       << "\n";
    return;
  }
  os << "ok kind=" << to_string(kind) << " bill=" << resp.billed_total
     << " vt=" << resp.vt_latency << " coalesced=" << (resp.coalesced ? 1 : 0);
  if (kind == Kind::kReduce) {
    os << " scalar=" << resp.scalar;
  } else {
    os << " data=";
    for (std::size_t i = 0; i < resp.data.size(); ++i) {
      os << (i == 0 ? "" : ",") << resp.data[i];
    }
  }
  os << "\n";
}

void print_bills(std::ostream& os, const ScanService& svc) {
  for (const auto tenant : svc.billing().tenants()) {
    os << "tenant " << tenant << ": " << svc.billing().billed(tenant).total()
       << " instructions (budget ";
    const std::uint64_t budget = svc.billing().budget(tenant);
    if (budget == std::numeric_limits<std::uint64_t>::max()) {
      os << "unlimited";
    } else {
      os << budget;
    }
    os << ")\n";
  }
  os << "grand total: " << svc.billing().grand_total().total()
     << " instructions\n";
}

void print_stats(std::ostream& os, const ScanService& svc) {
  const ScanService::Stats s = svc.stats();
  os << "submitted " << s.submitted << ", admitted " << s.admitted
     << ", completed " << s.completed << ", failed " << s.failed << "\n"
     << "rejected: queue_full " << s.rejected_queue_full << ", budget "
     << s.rejected_budget << ", malformed " << s.rejected_malformed
     << ", shutdown " << s.rejected_shutdown << "\n"
     << "waves " << s.waves << ", coalesced " << s.coalesced_requests
     << " requests in " << s.coalesced_batches << " batches, individual "
     << s.individual_requests << "\n"
     << "overload: unmeetable " << s.rejected_deadline << ", quarantined "
     << s.rejected_quarantined << ", shed " << s.shed_overload
     << ", expired " << s.expired_in_queue << ", deadline_exceeded "
     << s.deadline_exceeded << " (vt now " << svc.virtual_now() << ")\n";
  const auto b = svc.breakers().stats();
  if (svc.breakers().enabled()) {
    os << "breakers: opens " << b.opens << ", probes " << b.probes
       << ", closes " << b.closes << ", rejects " << b.rejects << "\n";
  }
}

/// One protocol session: read commands from `in`, write responses to `out`.
/// This is the transport-independent core — a socket front-end would call
/// it with the connection's streams.
struct SessionDefaults {
  std::uint64_t deadline_insts = 0;
  rvvsvm::serve::Priority priority = rvvsvm::serve::Priority::kBatch;
};

int run_session(std::istream& in, std::ostream& out, ScanService& svc,
                const SessionDefaults& defaults) {
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string cmd;
    if (!(tokens >> cmd) || cmd[0] == '#') continue;

    if (cmd == "quit") break;
    if (cmd == "bills") {
      print_bills(out, svc);
      continue;
    }
    if (cmd == "stats") {
      print_stats(out, svc);
      continue;
    }
    if (cmd == "budget") {
      std::string tenant_tok;
      std::string max_tok;
      std::uint64_t tenant = 0;
      std::uint64_t max = 0;
      if (!(tokens >> tenant_tok >> max_tok) ||
          !parse_uint(tenant_tok, tenant) || !parse_uint(max_tok, max)) {
        out << "err code=malformed detail=budget needs <tenant> <max>\n";
        continue;
      }
      svc.set_budget(tenant, max);
      out << "ok kind=budget\n";
      continue;
    }

    Request req;
    bool parsed = true;
    req.deadline_insts = defaults.deadline_insts;
    req.priority = defaults.priority;

    // Optional key=value options sit between the command and the tenant id.
    std::string tenant_tok;
    bool options_ok = true;
    while ((tokens >> tenant_tok) &&
           tenant_tok.find('=') != std::string::npos) {
      const std::size_t eq = tenant_tok.find('=');
      const std::string_view key = std::string_view(tenant_tok).substr(0, eq);
      const std::string_view val =
          std::string_view(tenant_tok).substr(eq + 1);
      std::uint64_t n = 0;
      if (key == "deadline" && parse_uint(val, n)) {
        req.deadline_insts = n;
      } else if (key == "priority" && parse_priority(val, req.priority)) {
        // parsed in place
      } else {
        options_ok = false;
        break;
      }
    }
    std::uint64_t tenant = 0;
    if (!options_ok || !parse_uint(tenant_tok, tenant)) {
      out << "err code=malformed detail=bad option or missing tenant id\n";
      continue;
    }
    req.tenant = tenant;

    if (cmd == "scan") {
      req.kind = Kind::kScan;
      parsed = read_rest(tokens, req.data);
    } else if (cmd == "scan_exclusive") {
      req.kind = Kind::kScanExclusive;
      parsed = read_rest(tokens, req.data);
    } else if (cmd == "reduce") {
      req.kind = Kind::kReduce;
      parsed = read_rest(tokens, req.data);
    } else if (cmd == "sort") {
      req.kind = Kind::kSort;
      parsed = read_rest(tokens, req.data);
    } else if (cmd == "compress") {
      req.kind = Kind::kCompress;
      std::uint64_t n = 0;
      std::string n_tok;
      parsed = (tokens >> n_tok) && parse_uint(n_tok, n) &&
               read_values(tokens, req.data, n) &&
               read_values(tokens, req.flags, n);
    } else if (cmd == "histogram") {
      req.kind = Kind::kHistogram;
      std::uint64_t bins = 0;
      std::string bins_tok;
      parsed = (tokens >> bins_tok) && parse_uint(bins_tok, bins) &&
               read_rest(tokens, req.data);
      req.bins = bins;
    } else {
      out << "err code=malformed detail=unknown command " << cmd << "\n";
      continue;
    }
    if (!parsed) {
      out << "err code=malformed detail=bad operand list\n";
      continue;
    }

    const Kind kind = req.kind;
    print_response(out, kind, svc.call(std::move(req)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ScanService::Config cfg;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> budgets;
  std::string snapshot_path;
  SessionDefaults defaults;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        std::cerr << "svm_serve: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--harts") {
      if (!parse_uint(value(), v) || v == 0) return 2;
      cfg.harts = static_cast<unsigned>(v);
    } else if (arg == "--vlen") {
      if (!parse_uint(value(), v) || v == 0) return 2;
      cfg.machine.vlen_bits = static_cast<unsigned>(v);
    } else if (arg == "--queue") {
      if (!parse_uint(value(), v) || v == 0) return 2;
      cfg.queue_capacity = v;
    } else if (arg == "--threshold") {
      if (!parse_uint(value(), v) || v == 0) return 2;
      cfg.coalesce_threshold = v;
    } else if (arg == "--budget") {
      const std::string_view spec = value();
      const std::size_t colon = spec.find(':');
      std::uint64_t tenant = 0;
      std::uint64_t max = 0;
      if (colon == std::string_view::npos ||
          !parse_uint(spec.substr(0, colon), tenant) ||
          !parse_uint(spec.substr(colon + 1), max)) {
        std::cerr << "svm_serve: bad --budget, want TENANT:MAX\n";
        return 2;
      }
      budgets.emplace_back(tenant, max);
    } else if (arg == "--restore") {
      cfg.restore_snapshot = std::string(value());
    } else if (arg == "--snapshot") {
      snapshot_path = std::string(value());
    } else if (arg == "--checkpoint-every") {
      if (!parse_uint(value(), v) || v == 0) return 2;
      cfg.checkpoint_every_waves = v;
    } else if (arg == "--deadline") {
      if (!parse_uint(value(), defaults.deadline_insts)) return 2;
    } else if (arg == "--priority") {
      if (!parse_priority(value(), defaults.priority)) {
        std::cerr << "svm_serve: bad --priority, want "
                     "background|batch|interactive\n";
        return 2;
      }
    } else if (arg == "--breaker") {
      const std::string_view spec = value();
      const std::size_t colon = spec.find(':');
      std::uint64_t threshold = 0;
      std::uint64_t cooldown = 0;
      if (colon == std::string_view::npos ||
          !parse_uint(spec.substr(0, colon), threshold) || threshold == 0 ||
          !parse_uint(spec.substr(colon + 1), cooldown)) {
        std::cerr << "svm_serve: bad --breaker, want THRESHOLD:COOLDOWN\n";
        return 2;
      }
      cfg.breaker.threshold = static_cast<unsigned>(threshold);
      cfg.breaker.cooldown_vt = cooldown;
    } else if (arg == "--foreground") {
      cfg.background = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "svm_serve: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (cfg.checkpoint_every_waves != 0) {
    if (snapshot_path.empty()) {
      std::cerr << "svm_serve: --checkpoint-every needs --snapshot FILE\n";
      return 2;
    }
    cfg.checkpoint_path = snapshot_path;
  }

  try {
    ScanService svc(cfg);
    for (const auto& [tenant, max] : budgets) svc.set_budget(tenant, max);
    if (!quiet) {
      std::cout << "svm_serve: " << cfg.harts << " harts, vlen "
                << cfg.machine.vlen_bits << ", queue " << cfg.queue_capacity
                << (cfg.background ? ", background scheduler" : ", foreground")
                << (cfg.restore_snapshot.empty() ? ""
                                                 : ", warm-started from snapshot")
                << " — `quit` or EOF to stop\n";
    }
    const int rc = run_session(std::cin, std::cout, svc, defaults);
    svc.stop();
    if (!snapshot_path.empty()) svc.checkpoint_to(snapshot_path);
    return rc;
  } catch (const rvvsvm::SnapshotTrap& trap) {
    std::cerr << "svm_serve: " << trap.message() << "\n";
    return 1;
  }
}
