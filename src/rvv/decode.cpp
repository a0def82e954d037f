// Cold paths of the trace engine: the iteration brackets, the
// record-store/verify/promote state machine, and the snapshot import/export
// of both cache levels.  The per-op hooks stay inline in decode.hpp.
#include "rvv/decode.hpp"

#include <cstring>
#include <utility>

namespace rvvsvm::rvv {

std::vector<PortableDecodedOp> ExecCache::export_decoded() const {
  std::vector<PortableDecodedOp> out;
  out.reserve(decoded_.size() + pending_decoded_.size());
  for (const auto& [key, op] : decoded_) {
    out.push_back(PortableDecodedOp{op.name != nullptr ? op.name : "", op.cls,
                                    op.sew_bits, op.lmul, op.masked, op.vlmax,
                                    op.executions});
  }
  for (const PortableDecodedOp& p : pending_decoded_) out.push_back(p);
  return out;
}

std::vector<PortableTrace> ExecCache::export_traces() const {
  std::vector<PortableTrace> out;
  for (const auto& [key, t] : traces_) {
    if (t.state != TraceState::kStable) continue;
    PortableTrace p;
    // The key's opaque site pointer is always &site of the TraceSite the
    // strip-mine loop passed in, so its label is recoverable here.
    p.label = static_cast<const TraceSite*>(key.site)->label;
    p.vl = key.vl;
    p.sew_bits = key.sew_bits;
    p.lmul = key.lmul;
    p.iter_total = t.iter_total;
    p.replays = t.replays;
    p.entries.reserve(t.entries.size());
    for (const TraceEntry& e : t.entries) {
      p.entries.push_back(PortableTraceEntry{e.name != nullptr ? e.name : "",
                                             e.meta, e.vl, e.delta,
                                             e.spill_events, e.reload_events});
    }
    out.push_back(std::move(p));
  }
  for (const PortableTrace& p : pending_traces_) out.push_back(p);
  return out;
}

void ExecCache::install_pending(std::vector<PortableDecodedOp> decoded,
                                std::vector<PortableTrace> traces,
                                const ExecCacheStats& stats) {
  pending_decoded_ = std::move(decoded);
  pending_traces_ = std::move(traces);
  // The stat image travels with the content — except `invalidations`, which
  // counts invalidate() calls on THIS cache object (the restore itself was
  // one); importing the source machine's tally would hide that the restore
  // went through the single invalidation path.
  const std::uint64_t local_invalidations = stats_.invalidations;
  stats_ = stats;
  stats_.invalidations = local_invalidations;
}

void ExecCache::adopt_pending_decoded(DecodedOp& op) {
  for (std::size_t i = 0; i < pending_decoded_.size(); ++i) {
    const PortableDecodedOp& p = pending_decoded_[i];
    if (p.cls != op.cls || p.sew_bits != op.sew_bits || p.lmul != op.lmul ||
        p.masked != op.masked || p.vlmax != op.vlmax) {
      continue;
    }
    if (op.name == nullptr || p.name != op.name) continue;
    op.executions = p.executions;
    pending_decoded_[i] = std::move(pending_decoded_.back());
    pending_decoded_.pop_back();
    return;
  }
}

bool ExecCache::adopt_pending_trace(Trace& t, const char* label, std::size_t vl,
                                    unsigned sew_bits, unsigned lmul,
                                    const std::vector<TraceEntry>& live,
                                    const sim::CountSnapshot& iter_delta) {
  if (label == nullptr) return false;
  for (std::size_t i = 0; i < pending_traces_.size(); ++i) {
    const PortableTrace& p = pending_traces_[i];
    if (p.vl != vl || p.sew_bits != sew_bits || p.lmul != lmul ||
        p.label != label) {
      continue;
    }
    if (!(p.iter_total == iter_delta)) continue;
    if (p.entries.size() != live.size()) continue;
    bool same = true;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const PortableTraceEntry& pe = p.entries[j];
      const TraceEntry& le = live[j];
      if (pe.meta != le.meta || pe.vl != le.vl || !(pe.delta == le.delta) ||
          pe.spill_events != le.spill_events ||
          pe.reload_events != le.reload_events || le.name == nullptr ||
          pe.name != le.name) {
        same = false;
        break;
      }
    }
    if (!same) continue;
    t.entries = live;
    t.iter_total = iter_delta;
    t.state = TraceState::kStable;
    t.bulk = sim::CountSnapshot{};
    t.bulk_spills = 0;
    t.bulk_reloads = 0;
    for (const TraceEntry& e : t.entries) {
      t.bulk += e.delta;
      t.bulk_spills += e.spill_events;
      t.bulk_reloads += e.reload_events;
    }
    t.replays = p.replays;
    pending_traces_[i] = std::move(pending_traces_.back());
    pending_traces_.pop_back();
    ++stats_.trace_adoptions;
    ++stats_.trace_promotions;
    return true;
  }
  return false;
}

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
  site_label_ = site.label;
  iter_vl_ = vl;
  iter_sew_bits_ = sew_bits;
  iter_lmul_ = lmul;
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
  t.replays += blocks;
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
      TraceEntry{op, name, pack_meta(cls, vl, lmul, sew_bits, masked), vl, {}});
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
        ++trace_->replays;
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
  if (t.state == TraceState::kVerifying && scratch_ == t.entries &&
      iter_delta == t.iter_total) {
    // Two consecutive executions of this shape retired identical op
    // sequences with identical per-op count deltas — and identical
    // whole-iteration totals, so the inter-op scalar bookkeeping is
    // reproducible too: promote.  The bulk charges are the recording's
    // exact totals, so both replay flavors are count-exact.
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
  } else if (cache_->pending_trace_count() != 0 &&
             cache_->adopt_pending_trace(t, site_label_, iter_vl_,
                                         iter_sew_bits_, iter_lmul_, scratch_,
                                         iter_delta)) {
    // A restored snapshot recording matched this pass bit-for-bit.  The
    // snapshot's recording was itself verified by two agreeing executions
    // in the source process, and this live pass agreed again, so the trace
    // is stable one iteration after restore instead of two.
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
