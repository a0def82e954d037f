// Cold paths of the trace engine: the iteration brackets and the
// record-store/verify/promote state machine.  The per-op hooks stay inline
// in decode.hpp.
#include "rvv/decode.hpp"

#include <algorithm>

namespace rvvsvm::rvv {

bool ExecTracer::begin_iteration(ExecCache& cache, const TraceSite& site,
                                 std::size_t vl, unsigned sew_bits,
                                 unsigned lmul, unsigned vlen_bits,
                                 sim::InstCounter& counter,
                                 sim::VRegFileModel* regfile) {
  if (mode_ != Mode::kIdle) return false;
  if (regfile != nullptr && regfile->live_values() != 0) {
    // Vector values are live across the iteration boundary, so the
    // allocator's spill/reload decisions depend on state the trace cannot
    // reproduce.  Interpret this iteration.
    return false;
  }
  Trace* t = cache.trace(&site, vl, sew_bits, lmul);
  if (t == nullptr || t->state == TraceState::kPoisoned) return false;
  cache_ = &cache;
  trace_ = t;
  counter_ = &counter;
  regfile_ = regfile;
  vlen_bits_ = vlen_bits;
  cursor_ = 0;
  scratch_.clear();
  if (t->state == TraceState::kStable) {
    mode_ = Mode::kReplay;
  } else {
    mode_ = Mode::kRecord;
    iter_snap_ = counter.snapshot();
  }
  return true;
}

Trace* ExecTracer::take_bulk_replay() {
  if (mode_ != Mode::kReplay) return nullptr;
  Trace* t = trace_;
  charge_fused_run(*t, 1);
  mode_ = Mode::kIdle;
  trace_ = nullptr;
  return t;
}

void ExecTracer::charge_fused_run(Trace& t, std::uint64_t blocks) {
  counter_->add_all(t.iter_total, blocks);
  if (regfile_ != nullptr) {
    regfile_->add_replayed_traffic(t.bulk_spills * blocks,
                                   t.bulk_reloads * blocks);
  }
  ExecCacheStats& st = cache_->stats();
  st.trace_replays += blocks;
  st.trace_fused += blocks;
  st.ops_replayed += t.entries.size() * blocks;
}

bool ExecTracer::record_begin(const char* name, sim::InstClass cls,
                              std::size_t vl, unsigned lmul,
                              unsigned sew_bits, bool masked) {
  if (scratch_.size() >= ExecCache::kMaxTraceOps) {
    poison();
    return false;
  }
  const std::size_t vlmax =
      sew_bits != 0 ? vlmax_for(vlen_bits_, sew_bits, lmul) : 0;
  const DecodedOp* op =
      cache_->decode(name, cls, sew_bits, lmul, masked, vlmax);
  scratch_.push_back(
      TraceEntry{op, name, pack_meta(cls, lmul, sew_bits, masked), vl, {}});
  op_snap_ = counter_->snapshot();
  if (regfile_ != nullptr) {
    rf_spill_snap_ = regfile_->spill_count();
    rf_reload_snap_ = regfile_->reload_count();
  }
  return true;
}

void ExecTracer::end_iteration() {
  switch (mode_) {
    case Mode::kIdle:
      return;  // disengaged mid-iteration (divergence, oversized body)
    case Mode::kReplay:
      if (cursor_ == trace_->entries.size()) {
        counter_->add_all(trace_->bulk);
        if (regfile_ != nullptr) {
          regfile_->add_replayed_traffic(trace_->bulk_spills,
                                         trace_->bulk_reloads);
        }
        ++cache_->stats().trace_replays;
        cache_->stats().ops_replayed += cursor_;
        mode_ = Mode::kIdle;
        trace_ = nullptr;
      } else {
        // The body retired fewer ops than the recording: divergence.
        diverge();
      }
      return;
    case Mode::kRecord:
      finish_record();
      mode_ = Mode::kIdle;
      trace_ = nullptr;
      return;
  }
}

void ExecTracer::abort_iteration() {
  switch (mode_) {
    case Mode::kIdle:
      return;
    case Mode::kReplay:
      charge_prefix();
      break;
    case Mode::kRecord:
      scratch_.clear();
      break;
  }
  mode_ = Mode::kIdle;
  trace_ = nullptr;
}

void ExecTracer::finish_record() {
  Trace& t = *trace_;
  if (regfile_ != nullptr && regfile_->live_values() != 0) {
    // The body leaked vector values past the iteration boundary: replay
    // could never reproduce their allocator events.  Never trace this site.
    t.state = TraceState::kPoisoned;
    ++cache_->stats().trace_poisons;
    scratch_.clear();
    return;
  }
  const sim::CountSnapshot iter_delta = counter_->snapshot() - iter_snap_;
  if (t.state == TraceState::kVerifying && iter_delta == t.iter_total &&
      std::ranges::equal(scratch_, t.entries, [](const TraceEntry& a,
                                                 const TraceEntry& b) {
        return a.charges_like(b);
      })) {
    // Two consecutive executions of this shape retired the same op
    // sequence with identical per-op count deltas — and identical
    // whole-iteration totals, so the inter-op scalar bookkeeping is
    // reproducible too: promote.  The bulk charges are the recording's
    // exact totals, so both replay flavors are count-exact (the entries
    // keep the first recording's vls, which per-op replay matches).
    t.state = TraceState::kStable;
    t.bulk = sim::CountSnapshot{};
    t.bulk_spills = 0;
    t.bulk_reloads = 0;
    for (const TraceEntry& e : t.entries) {
      t.bulk += e.delta;
      t.bulk_spills += e.spill_events;
      t.bulk_reloads += e.reload_events;
    }
    ++cache_->stats().trace_promotions;
  } else {
    // First recording for this shape, or the verify pass differed
    // (data-dependent body): store it and verify against the next one.
    t.entries = scratch_;
    t.iter_total = iter_delta;
    t.state = TraceState::kVerifying;
    ++cache_->stats().trace_records;
  }
  scratch_.clear();
}

std::uint64_t ExecTracer::uncharged_prefix() const noexcept {
  if (mode_ != Mode::kReplay) return 0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < cursor_; ++i) n += trace_->entries[i].delta.total();
  return n;
}

void ExecTracer::charge_prefix() {
  sim::CountSnapshot prefix;
  std::uint64_t spill_events = 0;
  std::uint64_t reload_events = 0;
  for (std::size_t i = 0; i < cursor_; ++i) {
    const TraceEntry& e = trace_->entries[i];
    prefix += e.delta;
    spill_events += e.spill_events;
    reload_events += e.reload_events;
  }
  counter_->add_all(prefix);
  if (regfile_ != nullptr) {
    regfile_->add_replayed_traffic(spill_events, reload_events);
  }
  cache_->stats().ops_replayed += cursor_;
}

void ExecTracer::diverge() {
  charge_prefix();
  trace_->state = TraceState::kPoisoned;
  ++cache_->stats().trace_aborts;
  ++cache_->stats().trace_poisons;
  mode_ = Mode::kIdle;
  trace_ = nullptr;
}

void ExecTracer::poison() {
  trace_->state = TraceState::kPoisoned;
  ++cache_->stats().trace_poisons;
  scratch_.clear();
  mode_ = Mode::kIdle;
  trace_ = nullptr;
}

}  // namespace rvvsvm::rvv
