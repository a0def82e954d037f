// Trace-layer differential properties: the two-level execution cache
// (decoded-op dispatch + fused trace replay, rvv/decode.hpp) must be
// invisible — bit-identical data AND per-class dynamic instruction counts —
// relative to a cache-disabled machine, across every lifecycle phase:
// record (pass 1), verify (pass 2), stable replay (pass 3+), invalidation
// under reconfiguration, a trap unwinding a half-consumed replay, a fused
// body's guard sending a trapping block to the interpreter (permute's
// index check, pack's capacity check), an instruction deadline landing
// inside a steady-state fused run, a written operand partly overlapping
// a read one, and the call-level replays of split and of the radix sort's
// passes, with their fallbacks.
//
// Counts are the paper's currency, so these properties compare per-pass
// CountSnapshot deltas class by class, plus the register-file model's
// spill/reload stats (which replay maintains via bulk mirroring).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "svm/svm.hpp"

namespace rvvsvm::check {

namespace {

using detail::norm_vlen;
using detail::to_bits;
using detail::to_elems;

constexpr std::size_t kMaxN = 1024;

[[nodiscard]] std::string diff_counts(const char* name, int pass,
                                      const sim::CountSnapshot& cached,
                                      const sim::CountSnapshot& plain) {
  for (std::size_t k = 0; k < sim::kNumInstClasses; ++k) {
    const auto cls = static_cast<sim::InstClass>(k);
    if (cached.count(cls) != plain.count(cls)) {
      std::ostringstream msg;
      msg << name << ": cached run charges a different " << sim::to_string(cls)
          << " count than the interpreted run (" << cached.count(cls) << " vs "
          << plain.count(cls) << ", pass " << pass << ")";
      return msg.str();
    }
  }
  return "";
}

/// Run `run` `passes` times on a cache-on and a cache-off machine of the
/// same configuration, requiring bit-identical data and per-pass count
/// deltas.  `invalidate_before_pass` (or -1) drops the cached machine's
/// execution caches before that pass — the reconfiguration case.
template <class T, class Run>
[[nodiscard]] std::string differential(const char* name, unsigned vlen,
                                       bool pressure, int passes,
                                       int invalidate_before_pass, Run&& run) {
  rvv::Machine cached({.vlen_bits = vlen,
                       .model_register_pressure = pressure,
                       .use_exec_cache = true});
  rvv::Machine plain({.vlen_bits = vlen,
                      .model_register_pressure = pressure,
                      .use_exec_cache = false});
  for (int pass = 0; pass < passes; ++pass) {
    if (pass == invalidate_before_pass) cached.invalidate_exec_caches();
    const sim::CountSnapshot c0 = cached.counter().snapshot();
    const sim::CountSnapshot p0 = plain.counter().snapshot();
    std::vector<T> got, want;
    {
      rvv::MachineScope scope(cached);
      run(got);
    }
    {
      rvv::MachineScope scope(plain);
      run(want);
    }
    if (got != want) {
      return std::string(name) +
             ": cached data diverges from interpreted data (pass " +
             std::to_string(pass) + ")";
    }
    if (std::string e = diff_counts(name, pass, cached.counter().snapshot() - c0,
                                    plain.counter().snapshot() - p0);
        !e.empty()) {
      return e;
    }
  }
  if (pressure &&
      (cached.regfile()->spill_count() != plain.regfile()->spill_count() ||
       cached.regfile()->reload_count() != plain.regfile()->reload_count())) {
    return std::string(name) +
           ": register-file spill/reload stats diverge between cached and "
           "interpreted runs";
  }
  if (invalidate_before_pass >= 0) {
    const auto& st = cached.exec_cache().stats();
    if (st.invalidations != 1) {
      return std::string(name) + ": expected exactly one cache invalidation, saw " +
             std::to_string(st.invalidations);
    }
  }
  return "";
}

Case gen_trace(Rng& rng) {
  Case c;
  detail::gen_shape(rng, c);
  const std::size_t vlmax = rvv::vlmax_for(c.vlen, c.sew, c.lmul);
  c.vl = detail::gen_size(rng, vlmax, kMaxN);
  detail::gen_values(rng, c.a, c.vl);
  detail::gen_mask(rng, c.b, c.vl);
  detail::gen_mask(rng, c.m, c.vl);
  c.scalar = rng.next();
  c.offset = rng.below(64);
  return c;
}

// --- properties -------------------------------------------------------------

/// Unsegmented scans across the whole trace lifecycle, both pressure modes.
/// Pass 1 records, pass 2 verifies, passes 3-4 replay; with n > 0 the
/// stable traces must actually be hit (the speedup is not optional).
std::string check_scan_lifecycle(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> a = to_elems<T>(c.a, n);
    for (const bool pressure : {true, false}) {
      rvv::Machine cached({.vlen_bits = vlen,
                           .model_register_pressure = pressure,
                           .use_exec_cache = true});
      rvv::Machine plain({.vlen_bits = vlen,
                          .model_register_pressure = pressure,
                          .use_exec_cache = false});
      for (int pass = 0; pass < 4; ++pass) {
        const sim::CountSnapshot c0 = cached.counter().snapshot();
        const sim::CountSnapshot p0 = plain.counter().snapshot();
        std::vector<T> got(a), want(a);
        {
          rvv::MachineScope scope(cached);
          svm::plus_scan<T, L>(std::span<T>(got));
          svm::plus_scan_exclusive<T, L>(std::span<T>(got));
          svm::max_scan<T, L>(std::span<T>(got));
        }
        {
          rvv::MachineScope scope(plain);
          svm::plus_scan<T, L>(std::span<T>(want));
          svm::plus_scan_exclusive<T, L>(std::span<T>(want));
          svm::max_scan<T, L>(std::span<T>(want));
        }
        if (got != want) {
          return std::string("trace.scan: cached data diverges (pass ") +
                 std::to_string(pass) + ")";
        }
        if (std::string e =
                diff_counts("trace.scan", pass, cached.counter().snapshot() - c0,
                            plain.counter().snapshot() - p0);
            !e.empty()) {
          return e;
        }
      }
      const auto& st = cached.exec_cache().stats();
      if (n > 0 && st.trace_replays == 0) {
        return "trace.scan: four passes over stable shapes produced zero "
               "trace replays";
      }
      if (n > 0 && st.decode_hits == 0) {
        return "trace.scan: decoded-op cache saw no hits across four passes";
      }
    }
    return "";
  });
}

/// Segmented scan: at high LMUL its blocks spill inside the traced window,
/// so replay's bulk spill/reload accounting is on the line here.
std::string check_seg_scan(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> a = to_elems<T>(c.a, n);
    const auto hb = to_bits(c.m, n);
    std::vector<T> hflags(n);
    for (std::size_t i = 0; i < n; ++i) hflags[i] = static_cast<T>(hb[i]);
    for (const bool pressure : {true, false}) {
      if (std::string e = differential<T>(
              "trace.seg_scan", vlen, pressure, 3, -1,
              [&](std::vector<T>& out) {
                out = a;
                svm::seg_plus_scan<T, L>(std::span<T>(out),
                                         std::span<const T>(hflags));
              });
          !e.empty()) {
        return e;
      }
    }
    return "";
  });
}

/// Cache invalidation under reconfiguration: dropping the caches between
/// passes must change nothing but the stats.
std::string check_invalidate(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> a = to_elems<T>(c.a, n);
    return differential<T>("trace.invalidate", vlen, true, 4, 2,
                           [&](std::vector<T>& out) {
                             out = a;
                             svm::plus_scan<T, L>(std::span<T>(out));
                             svm::p_add<T, L>(std::span<T>(out), T{1});
                           });
  });
}

/// Composite apps run many distinct strip-mine sites back to back through
/// the shared cache: the radix sort (get_flags and split, which is
/// enumerate, p-add, p-select and permute) and a histogram (the same passes
/// over the odd key width its seeded bin count needs, then run flags, a
/// segmented reduce, pack and permute).  The passes also run at that width
/// over the raw values, whose higher bits must keep the order the low bits
/// give.  Four passes: a sort stores its call record on its second call
/// (third, for an odd width with a block shape that runs once a call), so
/// the last passes replay the sorts at the call level.
std::string check_apps(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> a = to_elems<T>(c.a, n);
    // An odd width of at most 11 bits keeps the bins few.
    const unsigned widths = (std::min(rvv::kSewBits<T>, 11u) + 1) / 2;
    const unsigned key_bits = 1 + 2 * static_cast<unsigned>(c.offset % widths);
    const std::size_t half = std::size_t{1} << (key_bits - 1);
    const std::size_t bins = half + 1 + static_cast<std::size_t>(c.scalar % half);
    std::vector<T> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<T>(a[i] % bins);
    // split's destination indices must fit T.
    const bool passes_fit =
        n == 0 || n - 1 <= static_cast<std::size_t>(std::numeric_limits<T>::max());
    return differential<T>(
        "trace.apps", vlen, true, 4, -1, [&](std::vector<T>& out) {
          out = a;
          apps::split_radix_sort<T, L>(std::span<T>(out));
          std::vector<T> counts(bins, T{0});
          apps::histogram<T, L>(std::span<const T>(keys), std::span<T>(counts));
          out.insert(out.end(), counts.begin(), counts.end());
          if (passes_fit) {
            std::vector<T> low = a;
            apps::detail::radix_sort_passes<T, L>(std::span<T>(low), key_bits);
            out.insert(out.end(), low.begin(), low.end());
          }
        });
  });
}

/// A memory trap mid-iteration after the trace went stable: the unwinding
/// replay must charge exactly its consumed prefix, leaving data, counts and
/// the later recovery run identical to the interpreted machine's.
std::string check_trap_mid_replay(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    if (n == 0) return "";
    const std::vector<T> a = to_elems<T>(c.a, n);
    // d[i] = a[i] + 1 through an explicit strip-mine whose store span can be
    // truncated: the last block's vse then traps after the block's loads and
    // adds already retired.
    auto kernel = [&](std::span<const T> src, T* out, std::size_t out_len) {
      svm::detail::stripmine<T, L>(
          src.size(), 2, [&](std::size_t pos, std::size_t vl) {
            auto x = rvv::vle<T, L>(src.subspan(pos), vl);
            x = rvv::vadd(x, T{1}, vl);
            const std::size_t avail =
                pos < out_len ? std::min(out_len - pos, vl) : 0;
            rvv::vse(std::span<T>(out + pos, avail), x, vl);
          });
    };
    auto script = [&](rvv::Machine& m, std::string& trap, std::vector<T>& data) {
      rvv::MachineScope scope(m);
      std::vector<T> out(n, T{0});
      // Two full passes warm the cached machine through record + verify, so
      // the truncated pass below replays stable traces.
      kernel(std::span<const T>(a), out.data(), n);
      kernel(std::span<const T>(a), out.data(), n);
      std::fill(out.begin(), out.end(), T{0});
      try {
        kernel(std::span<const T>(a), out.data(), n - 1);
        trap = "none";
      } catch (const MemoryAccessTrap&) {
        trap = "memory";
      } catch (const std::exception& e) {
        trap = std::string("other: ") + e.what();
      }
      data = out;
      // Recovery: the machine (and its poise-unharmed caches) must still run
      // the untruncated kernel correctly after the unwound replay.
      kernel(std::span<const T>(a), out.data(), n);
      data.insert(data.end(), out.begin(), out.end());
    };
    rvv::Machine cached({.vlen_bits = vlen});
    rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
    std::string trap_cached, trap_plain;
    std::vector<T> data_cached, data_plain;
    script(cached, trap_cached, data_cached);
    script(plain, trap_plain, data_plain);
    if (trap_cached != trap_plain) {
      return "trace.trap_mid_replay: trap shape diverges (cached: " +
             trap_cached + ", interpreted: " + trap_plain + ")";
    }
    if (n > 1 && trap_cached != "memory") {
      return "trace.trap_mid_replay: truncated store never trapped (" +
             trap_cached + ")";
    }
    if (data_cached != data_plain) {
      return "trace.trap_mid_replay: data diverges across the trap";
    }
    return diff_counts("trace.trap_mid_replay", -1, cached.counter().snapshot(),
                       plain.counter().snapshot());
  });
}

/// The script of a fused body's guard property, on a cache-on and a
/// cache-off machine: four passes of `pass(p, log, data)`, which appends the
/// pass's outcome (its result or trap) to `log` and what it wrote to `data`.
/// Passes 0-2 are clean and take the cached machine through record, verify
/// and fused replay; pass 3 plants the input its guard must reject.  The
/// machines must agree on every outcome, on the data, on each pass's
/// per-class counts and on the register-file stats; the interpreted log
/// must show every `planted` trap; with `must_fuse` the cached machine must
/// have run a fused body; and no trace may be poisoned.
template <class T, class Pass>
[[nodiscard]] std::string guard_differential(
    const char* name, unsigned vlen, const std::vector<std::string>& planted,
    bool must_fuse, Pass&& pass) {
  struct Run {
    std::string log;
    std::vector<T> data;
    std::vector<sim::CountSnapshot> deltas;
  };
  auto script = [&](rvv::Machine& m) {
    Run r;
    rvv::MachineScope scope(m);
    for (int p = 0; p < 4; ++p) {
      const sim::CountSnapshot c0 = m.counter().snapshot();
      r.log += "pass " + std::to_string(p) + ": ";
      pass(p, r.log, r.data);
      r.deltas.push_back(m.counter().snapshot() - c0);
    }
    return r;
  };
  rvv::Machine cached({.vlen_bits = vlen});
  rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
  const Run got = script(cached);
  const Run want = script(plain);
  const std::string who(name);
  if (got.log != want.log) {
    return who + ": outcome diverges (cached: " + got.log +
           "interpreted: " + want.log + ")";
  }
  for (const std::string& trap : planted) {
    if (want.log.find(trap) == std::string::npos) {
      return who + ": planted input never trapped (" + want.log + ")";
    }
  }
  if (got.data != want.data) {
    return who + ": cached data diverges from interpreted data";
  }
  for (int p = 0; p < 4; ++p) {
    const auto k = static_cast<std::size_t>(p);
    if (std::string e = diff_counts(name, p, got.deltas[k], want.deltas[k]);
        !e.empty()) {
      return e;
    }
  }
  if (cached.regfile()->spill_count() != plain.regfile()->spill_count() ||
      cached.regfile()->reload_count() != plain.regfile()->reload_count()) {
    return who + ": register-file spill/reload stats diverge";
  }
  const auto& st = cached.exec_cache().stats();
  if (must_fuse && st.trace_fused == 0) {
    return who + ": three clean passes never ran a fused body";
  }
  if (st.trace_poisons != 0) {
    return who + ": the planted input poisoned a trace";
  }
  return "";
}

/// Permute's fused scatter behind its index guard, over a seeded random
/// permutation; pass 3 plants one out-of-range index at a seeded position.
/// The guard must send that block to the interpreter, where it traps exactly
/// as on a cache-off machine — same faulting element and instruction number,
/// same partial scatter, same counts — and the stable trace must survive
/// the trap.
std::string check_permute_guard(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    using UI = std::make_unsigned_t<T>;
    constexpr UI kBadIndex = std::numeric_limits<UI>::max();
    // Indices are read as unsigned T; below 2^SEW - 1 elements every index
    // of the permutation fits and kBadIndex stays out of range.
    const std::size_t n = std::min<std::size_t>(c.vl % (kMaxN + 1), kBadIndex);
    if (n == 0) return "";
    const std::vector<T> src = to_elems<T>(c.a, n);
    Rng rng(c.scalar);
    std::vector<T> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<T>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.below(i))]);
    }
    std::vector<T> bad = perm;
    bad[static_cast<std::size_t>(rng.below(n))] = static_cast<T>(kBadIndex);
    constexpr T kSentinel = static_cast<T>(0x5A);

    return guard_differential<T>(
        "trace.permute", norm_vlen(c.vlen), {"pass 3: memory"}, true,
        [&](int pass, std::string& log, std::vector<T>& data) {
          std::vector<T> dst(n, kSentinel);
          try {
            svm::permute<T, L>(std::span<const T>(src), std::span<T>(dst),
                               std::span<const T>(pass < 3 ? perm : bad));
            log += "none; ";
          } catch (const MemoryAccessTrap& e) {
            log += "memory element " + std::to_string(e.element()) + " inst " +
                   std::to_string(e.context().inst_number) + "; ";
          } catch (const std::exception& e) {
            log += std::string("other: ") + e.what() + "; ";
          }
          data.insert(data.end(), dst.begin(), dst.end());
        });
  });
}

/// Pack's fused compress behind its capacity guard.  Seeded keep flags (all
/// zero and all one included); pass 3 plants a dst one element short of the
/// kept count.  The guard is decided once per call, so that pass interprets
/// every block and traps exactly as on a cache-off machine — same
/// instruction number, same partial output, same counts — and the stable
/// traces stay stable: a per-op replay would diverge at the first block
/// storing a different count than the recording.
std::string check_pack(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const std::vector<T> src = to_elems<T>(c.a, n);
    const auto kb = to_bits(c.m, n);
    const std::vector<T> keep(kb.begin(), kb.end());
    const auto kept = static_cast<std::size_t>(
        std::ranges::count_if(keep, [](T f) { return f != T{0}; }));
    constexpr T kSentinel = static_cast<T>(0x5A);
    // Verification ignores each op's vl, so every shape promotes at its
    // second execution whatever counts its blocks keep, and pass 2 fuses.
    const bool must_fuse = n > 0;
    // With nothing kept no dst can be short: pass 3 is one more clean pass.
    std::vector<std::string> planted;
    if (kept > 0) planted.emplace_back("pass 3: capacity");
    return guard_differential<T>(
        "trace.pack", vlen, planted, must_fuse,
        [&](int pass, std::string& log, std::vector<T>& data) {
          std::vector<T> dst(pass < 3 || kept == 0 ? kept : kept - 1, kSentinel);
          try {
            log += "kept " +
                   std::to_string(svm::pack<T, L>(std::span<const T>(src),
                                                  std::span<T>(dst),
                                                  std::span<const T>(keep))) +
                   "; ";
          } catch (const OperandTrap& e) {
            log += "capacity inst " + std::to_string(e.context().inst_number) + "; ";
          } catch (const std::exception& e) {
            log += std::string("other: ") + e.what() + "; ";
          }
          data.insert(data.end(), dst.begin(), dst.end());
        });
  });
}

/// Passive fault hook: records where each vsetvl polls the deadline, as the
/// counter total before its charge.  Installing it also stands the tracer
/// down, so it only ever rides on an interpreting machine.
class VsetvlProbe final : public FaultHook {
 public:
  void on_instruction(sim::InstClass cls, const TrapContext& ctx) override {
    if (cls == sim::InstClass::kVectorConfig) polls.push_back(ctx.inst_number);
  }
  std::vector<std::uint64_t> polls;
};

/// One call of a fused kernel family (or the radix sort, whose strip-mine
/// loops all fuse) over the case's operands; the whole result lands in `out`.
template <class T, unsigned L>
void run_fused_kernel(unsigned which, const std::vector<T>& a,
                      const std::vector<T>& b, const std::vector<T>& flags,
                      const std::vector<T>& perm, unsigned bit,
                      std::vector<T>& out) {
  const std::span<const T> ca(a), cb(b), cf(flags);
  switch (which) {
    case 0:
      out = a;
      return svm::p_add<T, L>(std::span<T>(out), cb);
    case 1:
      out = a;
      return svm::p_add<T, L>(std::span<T>(out), static_cast<T>(bit + 1));
    case 2:
      out = a;
      return svm::p_select<T, L>(cf, cb, std::span<T>(out));
    case 3:
      out.assign(a.size(), T{0});
      return svm::p_copy<T, L>(ca, std::span<T>(out));
    case 4:
      out.assign(a.size(), T{0});
      return svm::p_flag_lt<T, L>(ca, cb, std::span<T>(out));
    case 5:
      out.assign(a.size(), T{0});
      return svm::get_flags<T, L>(ca, std::span<T>(out), bit);
    case 6:
      out.assign(a.size(), T{0});
      out.push_back(static_cast<T>(svm::enumerate<T, L>(
          cf, std::span<T>(out).first(a.size()), true)));
      return;
    case 7:
      out.assign(a.size(), T{0});
      return svm::permute<T, L>(ca, std::span<T>(out),
                                std::span<const T>(perm));
    case 8:
      out = a;
      return svm::plus_scan<T, L>(std::span<T>(out));
    case 9:
      out = a;
      return svm::plus_scan_exclusive<T, L>(std::span<T>(out));
    case 10:
      out = {svm::reduce<svm::PlusOp, T, L>(ca)};
      return;
    case 11:
      out = a;
      return svm::seg_plus_scan<T, L>(std::span<T>(out), cf);
    case 12:
      out = a;
      return svm::seg_scan_exclusive<svm::PlusOp, T, L>(std::span<T>(out), cf);
    case 13: {
      out.assign(a.size(), T{0});
      const std::size_t kept = svm::pack<T, L>(ca, std::span<T>(out), cf);
      out.push_back(static_cast<T>(kept));
      return;
    }
    case 14: {
      // One total per segment: exactly the pack's destination capacity.
      const auto heads = std::ranges::count_if(flags, [](T f) { return f != T{0}; });
      const std::size_t segments =
          a.empty() ? 0 : static_cast<std::size_t>(heads) + (flags[0] == T{0} ? 1 : 0);
      out.assign(segments, T{0});
      static_cast<void>(svm::seg_reduce<svm::PlusOp, T, L>(ca, cf, std::span<T>(out)));
      return;
    }
    case 15: {
      // Warm, split replays at the call level; a deadline inside the call
      // sends it back to its five loops.
      out.assign(a.size(), T{0});
      const std::size_t zeros = svm::split<T, L>(ca, std::span<T>(out), cf);
      out.push_back(static_cast<T>(zeros));
      return;
    }
    default:
      out = a;
      return apps::split_radix_sort<T, L>(std::span<T>(out));
  }
}

constexpr unsigned kFusedKernelCount = 17;

/// An instruction deadline inside a warm fused strip-mine loop.  Seeded:
/// the kernel, 0-3 warm-up calls (so the deadline call records, verifies or
/// replays), and the deadline offset — three times in four on a vsetvl's
/// poll point of the call, or one off it, where a steady-state run's
/// admission must stop exactly as the interpreter's polls do; for the
/// radix sort, a third of the offsets then move to the call's last
/// instruction or one past it, where a sort warmed twice replays.  Cache
/// on and off must agree on whether and where the call traps, on
/// per-class counts, on data and on the register-file stats.
std::string check_deadline(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    using UI = std::make_unsigned_t<T>;
    const unsigned vlen = norm_vlen(c.vlen);
    Rng rng(c.scalar);
    const auto which = static_cast<unsigned>(rng.below(kFusedKernelCount));
    const auto warm = static_cast<int>(rng.below(4));
    std::size_t n = c.vl % (kMaxN + 1);
    // A permutation's (and split's) indices must fit T; the radix sort is
    // capped to keep the interpreted side cheap.
    constexpr auto kMaxIndex = static_cast<std::size_t>(std::numeric_limits<UI>::max());
    if ((which == 7 || which == 15) && n > 0 && n - 1 > kMaxIndex) n = kMaxIndex + 1;
    if (which == kFusedKernelCount - 1) n = std::min<std::size_t>(n, 512);
    const std::vector<T> a = to_elems<T>(c.a, n);
    const std::vector<T> b = to_elems<T>(c.b, n);
    const auto fb = to_bits(c.m, n);
    const std::vector<T> flags(fb.begin(), fb.end());
    std::vector<T> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<T>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.below(i))]);
    }
    const auto bit = static_cast<unsigned>(c.offset % rvv::kSewBits<T>);
    auto run = [&](std::vector<T>& out) {
      run_fused_kernel<T, L>(which, a, b, flags, perm, bit, out);
    };

    // Where this call's vsetvls poll, relative to the call's first
    // instruction, from an interpreting probe.
    std::uint64_t call_insts = 0;
    std::vector<std::uint64_t> polls;
    {
      rvv::Machine probe({.vlen_bits = vlen, .use_exec_cache = false});
      VsetvlProbe hook;
      probe.set_fault_hook(&hook);
      rvv::MachineScope scope(probe);
      std::vector<T> out;
      run(out);
      call_insts = probe.counter().total();
      polls = std::move(hook.polls);
    }
    std::uint64_t d = rng.below(call_insts + 2);
    if (!polls.empty() && rng.below(4) != 0) {
      d = polls[static_cast<std::size_t>(rng.below(polls.size()))] + rng.below(3);
      d = d == 0 ? 0 : d - 1;
    }
    if (which == kFusedKernelCount - 1 && rng.below(3) == 0) {
      // A warm sort replays at the call level only past its last
      // instruction: land on either side of that edge.
      d = call_insts + rng.below(2);
    }

    struct Outcome {
      std::string trap;
      std::vector<T> data;
      sim::CountSnapshot counts;
    };
    auto script = [&](rvv::Machine& m) {
      rvv::MachineScope scope(m);
      Outcome o;
      for (int pass = 0; pass < warm; ++pass) run(o.data);
      m.set_instruction_deadline(m.counter().total() + d);
      try {
        run(o.data);
        o.trap = "none";
      } catch (const DeadlineTrap& e) {
        o.trap = "deadline at inst " + std::to_string(e.context().inst_number);
      } catch (const std::exception& e) {
        o.trap = std::string("other: ") + e.what();
      }
      m.clear_instruction_deadline();
      o.counts = m.counter().snapshot();
      return o;
    };
    rvv::Machine cached({.vlen_bits = vlen});
    rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
    const Outcome got = script(cached);
    const Outcome want = script(plain);
    const std::string at = " (kernel " + std::to_string(which) + ", " +
                           std::to_string(warm) + " warm-up calls, offset " +
                           std::to_string(d) + ")";
    if (got.trap != want.trap) {
      return "trace.deadline: trap diverges (cached: " + got.trap +
             ", interpreted: " + want.trap + ")" + at;
    }
    if (got.data != want.data) {
      return "trace.deadline: cached data diverges from interpreted data" + at;
    }
    if (std::string e = diff_counts("trace.deadline", warm, got.counts, want.counts);
        !e.empty()) {
      return e + at;
    }
    if (cached.regfile()->spill_count() != plain.regfile()->spill_count() ||
        cached.regfile()->reload_count() != plain.regfile()->reload_count()) {
      return "trace.deadline: register-file spill/reload stats diverge" + at;
    }
    return "";
  });
}

/// split's call-level replay.  Seeded: n, element type and LMUL (the
/// case's), a destination disjoint from the operands or overlapping src or
/// the flags (the same span, or one element off), a non-binary flag in one
/// of the calls, and a deadline on the last call.  The script makes six
/// calls: with a disjoint destination the third stores a call record (the
/// fourth, when the third has the non-binary flag), and a later call
/// without the bad flag or the deadline replays it.  Cache on and off must agree on every
/// call's result or trap point, on the data, on each call's per-class
/// counts and on the register-file stats; a disjoint destination must
/// replay at least one call, and an overlapping one none.
std::string check_split(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    using UI = std::make_unsigned_t<T>;
    const unsigned vlen = norm_vlen(c.vlen);
    Rng rng(c.scalar);
    constexpr auto kMaxIndex = static_cast<std::size_t>(std::numeric_limits<UI>::max());
    std::size_t n = c.vl % (kMaxN + 1);
    if (n > 0 && n - 1 > kMaxIndex) n = kMaxIndex + 1;  // indices must fit T
    constexpr int kCalls = 6;
    // Layouts 0-3: dst apart.  4/5: dst is src, or one element below it.
    // 6/7: the same against the flags.
    const auto layout = static_cast<unsigned>(rng.below(8));
    const bool apart = layout < 4;
    const bool over_flags = layout >= 6;
    const std::size_t dst_at = layout % 2 == 0 ? 1 : 0;
    const int bad_call = rng.below(3) == 0 ? static_cast<int>(rng.below(kCalls)) : -1;
    const std::size_t bad_at = static_cast<std::size_t>(rng.below(n));
    const auto bad_value = static_cast<T>(2 + rng.below(254));
    const bool deadline = rng.below(3) == 0;
    const std::vector<T> src = to_elems<T>(c.a, n);
    const auto fb = to_bits(c.m, n);
    const std::vector<T> flags(fb.begin(), fb.end());

    // One call: a buffer of n + 1 elements holds src (or the flags) from
    // element 1, and dst from dst_at when it overlaps them; an apart dst
    // is its own buffer.  Returns split's result or trap, and appends what
    // the buffers hold afterwards to `data`.
    const auto call = [&](int k, std::vector<T>& data) -> std::string {
      std::vector<T> call_flags = flags;
      if (k == bad_call && n > 0) call_flags[bad_at] = bad_value;
      std::vector<T> shared(n + 1, static_cast<T>(0x5A));
      std::copy(over_flags ? call_flags.begin() : src.begin(),
                over_flags ? call_flags.end() : src.end(), shared.begin() + 1);
      std::vector<T> own(n, static_cast<T>(0x5A));
      const std::span<const T> in = std::span<const T>(shared).subspan(1, n);
      const std::span<T> dst =
          apart ? std::span<T>(own) : std::span<T>(shared).subspan(dst_at, n);
      std::string result;
      try {
        result = "zeros " + std::to_string(
                                over_flags
                                    ? svm::split<T, L>(std::span<const T>(src), dst, in)
                                    : svm::split<T, L>(in, dst, std::span<const T>(call_flags)));
      } catch (const DeadlineTrap& e) {
        result = "deadline at inst " + std::to_string(e.context().inst_number);
      } catch (const std::exception& e) {
        result = std::string("other: ") + e.what();
      }
      data.insert(data.end(), shared.begin(), shared.end());
      data.insert(data.end(), own.begin(), own.end());
      return result;
    };

    // The deadline lands anywhere from the call's first instruction to one
    // past its last, where the call replays; a third of them on either edge.
    std::uint64_t d = 0;
    if (deadline) {
      rvv::Machine probe({.vlen_bits = vlen, .use_exec_cache = false});
      rvv::MachineScope scope(probe);
      std::vector<T> scratch;
      static_cast<void>(call(0, scratch));
      const std::uint64_t call_insts = probe.counter().total();
      d = rng.below(3) == 0 ? call_insts + rng.below(2) : 1 + rng.below(call_insts + 1);
    }

    struct Run {
      std::string log;
      std::vector<T> data;
      std::vector<sim::CountSnapshot> deltas;
    };
    const auto script = [&](rvv::Machine& m) {
      Run r;
      rvv::MachineScope scope(m);
      for (int k = 0; k < kCalls; ++k) {
        const sim::CountSnapshot c0 = m.counter().snapshot();
        if (deadline && k == kCalls - 1) {
          m.set_instruction_deadline(m.counter().total() + d);
        }
        r.log += "call " + std::to_string(k) + ": " + call(k, r.data) + "; ";
        m.clear_instruction_deadline();
        r.deltas.push_back(m.counter().snapshot() - c0);
      }
      return r;
    };
    rvv::Machine cached({.vlen_bits = vlen});
    rvv::Machine plain({.vlen_bits = vlen, .use_exec_cache = false});
    const Run got = script(cached);
    const Run want = script(plain);
    const std::string at = " (n " + std::to_string(n) + ", layout " +
                           std::to_string(layout) + ", bad flag in call " +
                           std::to_string(bad_call) + ", deadline offset " +
                           std::to_string(d) + ")";
    if (got.log != want.log) {
      return "trace.split: outcome diverges (cached: " + got.log +
             "interpreted: " + want.log + ")" + at;
    }
    if (got.data != want.data) {
      return "trace.split: cached data diverges from interpreted data" + at;
    }
    for (int k = 0; k < kCalls; ++k) {
      if (std::string e = diff_counts("trace.split", k, got.deltas[static_cast<std::size_t>(k)],
                                      want.deltas[static_cast<std::size_t>(k)]);
          !e.empty()) {
        return e + at;
      }
    }
    const auto* cf = cached.regfile();
    const auto* pf = plain.regfile();
    if (cf->spill_count() != pf->spill_count() || cf->reload_count() != pf->reload_count() ||
        cf->peak_registers() != pf->peak_registers()) {
      return "trace.split: register-file stats diverge" + at;
    }
    const std::uint64_t replays = cached.exec_cache().stats().call_replays;
    if (apart && replays == 0) {
      return "trace.split: six calls with dst apart never replayed a call" + at;
    }
    // The same span overlaps once it is non-empty, a one-off span once it
    // holds two elements.
    const bool overlaps = !apart && n > 1 - dst_at;
    if (overlaps && replays != 0) {
      return "trace.split: a call with an overlapping dst replayed" + at;
    }
    return "";
  });
}

/// A kernel that writes a span `d` elements away from a span it reads,
/// inside one array, with d seeded in [-VLMAX, VLMAX].  An emulated block
/// loads all its operands before its store commits; the fused bodies run
/// element by element (or a host vector at a time) across a whole run, so a
/// partial overlap must interpret while d = 0 (the same span) may fuse.
/// Three passes from the same input: record, verify, replay.
std::string check_overlap(const Case& c) {
  return detail::dispatch_sew_lmul(c, [&]<class T, unsigned L>() -> std::string {
    const unsigned vlen = norm_vlen(c.vlen);
    const std::size_t n = c.vl % (kMaxN + 1);
    const auto vlmax = static_cast<long long>(rvv::vlmax_for(vlen, rvv::kSewBits<T>, L));
    Rng rng(c.scalar);
    constexpr unsigned kKernels = 11;
    const auto which = static_cast<unsigned>(rng.below(kKernels));
    const long long d = static_cast<long long>(rng.below(
                            static_cast<std::uint64_t>(2 * vlmax + 1))) - vlmax;
    const auto shift = static_cast<std::size_t>(d < 0 ? -d : d);
    const std::size_t w0 = d > 0 ? shift : 0;
    const std::size_t r0 = d < 0 ? shift : 0;
    // Kernels whose shared read operand is a flag vector see 0/1 values.
    const bool flag_read = which == 5 || which >= 8;
    std::vector<T> init;
    if (flag_read) {
      const auto bits = to_bits(c.m, n + shift);
      init.assign(bits.begin(), bits.end());
    } else {
      init = to_elems<T>(c.a, n + shift);
    }
    std::vector<T> other = to_elems<T>(c.b, n);
    for (T& x : other) x = static_cast<T>(x & T{1});
    const auto bit = static_cast<unsigned>(c.offset % rvv::kSewBits<T>);
    const std::string name = "trace.overlap (kernel " + std::to_string(which) +
                             ", offset " + std::to_string(d) + ")";
    return differential<T>(
        name.c_str(), vlen, true, 3, -1, [&](std::vector<T>& out) {
          out = init;
          const std::span<T> w = std::span<T>(out).subspan(w0, n);
          const std::span<const T> r = std::span<const T>(out).subspan(r0, n);
          const std::span<const T> o(other);
          switch (which) {
            case 0:
              return svm::p_add<T, L>(w, r);
            case 1:
              return svm::p_max<T, L>(w, r);
            case 2:
              return svm::p_copy<T, L>(r, w);
            case 3:
              return svm::get_flags<T, L>(r, w, bit);
            case 4:
              return svm::p_select<T, L>(o, r, w);
            case 5:
              return svm::p_select<T, L>(r, o, w);
            case 6:
              return svm::p_flag_lt<T, L>(r, o, w);
            case 7:
              return svm::p_flag_eq<T, L>(r, T{1}, w);
            case 8:
              static_cast<void>(svm::enumerate<T, L>(r, w, true));
              return;
            case 9:
              return svm::seg_plus_scan<T, L>(w, r);
            default:
              return svm::seg_scan_exclusive<svm::PlusOp, T, L>(w, r);
          }
        });
  });
}

}  // namespace

std::vector<Property> make_trace_properties() {
  std::vector<Property> props;
  auto add = [&](const char* name, std::function<std::string(const Case&)> check) {
    props.push_back(Property{name, "trace", gen_trace, std::move(check)});
  };
  add("trace.scan", check_scan_lifecycle);
  add("trace.seg_scan", check_seg_scan);
  add("trace.invalidate", check_invalidate);
  add("trace.apps", check_apps);
  add("trace.trap_mid_replay", check_trap_mid_replay);
  add("trace.permute", check_permute_guard);
  add("trace.pack", check_pack);
  add("trace.deadline", check_deadline);
  add("trace.overlap", check_overlap);
  add("trace.split", check_split);
  return props;
}

}  // namespace rvvsvm::check
