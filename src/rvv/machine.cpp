#include "rvv/machine.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <mutex>

#include "rvv/reconfigure.hpp"

namespace rvvsvm::rvv {

namespace {

thread_local Machine* g_active_machine = nullptr;

// Reconfiguration fan-out: an append-only fixed table keeps notification
// lock-free and noexcept (it runs inside invalidate_exec_caches()).  The
// count is released after the slot write so a concurrent notifier never
// reads a half-registered entry.
constexpr std::size_t kMaxReconfigureHooks = 8;
std::array<std::atomic<ReconfigureHook>, kMaxReconfigureHooks> g_hooks{};
std::atomic<std::size_t> g_hook_count{0};
std::atomic<std::uint64_t> g_reconfigure_epoch{1};

}  // namespace

void add_reconfigure_hook(ReconfigureHook hook) {
  if (hook == nullptr) {
    throw std::logic_error("add_reconfigure_hook: null hook");
  }
  static std::mutex register_mutex;
  const std::lock_guard<std::mutex> lock(register_mutex);
  const std::size_t slot = g_hook_count.load(std::memory_order_relaxed);
  if (slot >= kMaxReconfigureHooks) {
    throw std::logic_error("add_reconfigure_hook: hook table full");
  }
  g_hooks[slot].store(hook, std::memory_order_relaxed);
  g_hook_count.store(slot + 1, std::memory_order_release);
}

std::uint64_t reconfigure_epoch() noexcept {
  return g_reconfigure_epoch.load(std::memory_order_acquire);
}

void notify_reconfigure() noexcept {
  g_reconfigure_epoch.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t count = g_hook_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    if (ReconfigureHook hook = g_hooks[i].load(std::memory_order_relaxed)) {
      hook();
    }
  }
}

Machine::Machine(Config cfg)
    : cfg_(cfg),
      counter_(),
      scalar_(counter_) {
  if (cfg_.vlen_bits < 64 || !std::has_single_bit(cfg_.vlen_bits)) {
    // No machine exists yet, so the context carries only the requested VLEN.
    TrapContext ctx;
    ctx.op = "Machine";
    ctx.vlen_bits = cfg_.vlen_bits;
    ctx.hart = current_hart();
    throw IllegalConfigTrap("Machine: vlen_bits must be a power of two >= 64",
                            ctx);
  }
  if (cfg_.model_register_pressure) {
    regfile_ = std::make_unique<sim::VRegFileModel>(counter_);
  }
}

Machine::~Machine() = default;

void Machine::record_call(const TraceSite& site, std::size_t n,
                          unsigned sew_bits, unsigned lmul, const CallMark& mark,
                          std::uint64_t iterations) {
  const ExecCacheStats& st = exec_cache_.stats();
  if (st.trace_fused - mark.stats.trace_fused != iterations ||
      st.trace_records != mark.stats.trace_records ||
      st.trace_aborts != mark.stats.trace_aborts ||
      st.trace_poisons != mark.stats.trace_poisons) {
    return;
  }
  CallRecord r;
  r.delta = counter_.snapshot() - mark.counts;
  if (regfile_ != nullptr) {
    r.spill_events = regfile_->spill_count() - mark.spills;
    r.reload_events = regfile_->reload_count() - mark.reloads;
  }
  r.trace_replays = st.trace_replays - mark.stats.trace_replays;
  r.trace_fused = st.trace_fused - mark.stats.trace_fused;
  r.ops_replayed = st.ops_replayed - mark.stats.ops_replayed;
  exec_cache_.store_call_record(&site, n, sew_bits, lmul, r);
}

Machine& Machine::active() {
  if (g_active_machine == nullptr) {
    throw std::logic_error(
        "rvv::Machine::active(): no MachineScope is active on this thread");
  }
  return *g_active_machine;
}

Machine* Machine::active_or_null() noexcept { return g_active_machine; }

MachineScope::MachineScope(Machine& machine) noexcept
    : previous_(g_active_machine) {
  g_active_machine = &machine;
}

MachineScope::~MachineScope() { g_active_machine = previous_; }

}  // namespace rvvsvm::rvv
