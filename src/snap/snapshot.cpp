// Snapshot container implementation: CRC32, bounds-checked readers/writers,
// the machine/pool/tuner section codecs, and the validate-then-apply restore
// sequence.  See snapshot.hpp for the format and the restore discipline.
#include "snap/snapshot.hpp"

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <new>
#include <utility>

#include "sim/trap.hpp"
#include "tune/shape.hpp"

namespace rvvsvm::snap {
namespace {

constexpr std::array<std::uint8_t, 8> kMagic{'R', 'V', 'V', 'S',
                                             'N', 'A', 'P', '\0'};
constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 4 + 4 + 4;
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4;

/// Largest ledger total the loader accepts.  The service arms deadlines as
/// counter().total() + remaining; a ledger past 2^63 could wrap that sum.
constexpr std::uint64_t kMaxLedgerTotal = std::uint64_t{1} << 63;

[[noreturn]] void fail(const std::string& detail) {
  TrapContext ctx;
  ctx.op = "snapshot";
  ctx.hart = current_hart();
  throw SnapshotTrap("snapshot: " + detail, ctx);
}

// --- CRC32 (IEEE 802.3, the polynomial every zip/png reader uses) ---------

[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Little-endian writer --------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void counts(const sim::CountSnapshot& c) {
    u32(static_cast<std::uint32_t>(sim::kNumInstClasses));
    for (std::size_t i = 0; i < sim::kNumInstClasses; ++i) {
      u64(c.count(static_cast<sim::InstClass>(i)));
    }
  }

  [[nodiscard]] Blob take() { return std::move(out_); }
  [[nodiscard]] const Blob& bytes() const noexcept { return out_; }

 private:
  Blob out_;
};

// --- Bounds-checked little-endian reader -----------------------------------
//
// Every read validates against the remaining payload before touching a
// byte, so truncation at ANY boundary surfaces as a SnapshotTrap, never as
// out-of-bounds access or a partially applied image.

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean field out of range");
    return v != 0;
  }
  [[nodiscard]] sim::CountSnapshot counts() {
    if (u32() != sim::kNumInstClasses) {
      fail("instruction-class count mismatch");
    }
    sim::InstCounter scratch;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sim::kNumInstClasses; ++i) {
      const std::uint64_t n = u64();
      if (n > kMaxLedgerTotal - total) fail("ledger total exceeds 2^63");
      total += n;
      scratch.add(static_cast<sim::InstClass>(i), n);
    }
    return scratch.snapshot();
  }
  /// Element count of a variable-length table: bounded by the bytes that
  /// are actually left, so a corrupt count cannot drive a huge reserve().
  [[nodiscard]] std::size_t vec_count(std::size_t min_entry_bytes) {
    const std::uint32_t n = u32();
    if (min_entry_bytes != 0 && n > remaining() / min_entry_bytes) {
      fail("table count exceeds payload");
    }
    return n;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  void expect_end() const {
    if (pos_ != size_) fail("trailing bytes in section");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) fail("truncated payload");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- Container -------------------------------------------------------------

struct Section {
  std::uint32_t id = 0;
  Blob payload;
};

[[nodiscard]] Blob pack_container(const std::vector<Section>& sections) {
  Writer w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kFormatVersion);
  w.u32(0);  // flags, reserved
  w.u32(static_cast<std::uint32_t>(sections.size()));
  const std::uint32_t header_crc =
      crc32(w.bytes().data(), w.bytes().size());
  w.u32(header_crc);
  for (const Section& s : sections) {
    w.u32(s.id);
    w.u64(s.payload.size());
    w.u32(crc32(s.payload.data(), s.payload.size()));
    for (const std::uint8_t b : s.payload) w.u8(b);
  }
  return w.take();
}

/// Validate the container shell — magic, version, flags, header CRC, every
/// section header and payload CRC, exact total size — and return the
/// sections as (id, payload view) pairs into `blob`.
struct SectionView {
  std::uint32_t id = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

[[nodiscard]] std::vector<SectionView> unpack_container(const Blob& blob) {
  if (blob.size() < kHeaderBytes) fail("truncated header");
  if (std::memcmp(blob.data(), kMagic.data(), kMagic.size()) != 0) {
    fail("bad magic");
  }
  Reader header(blob.data() + kMagic.size(), kHeaderBytes - kMagic.size());
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    fail("unsupported version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  if (header.u32() != 0) fail("reserved flags set");
  const std::uint32_t section_count = header.u32();
  const std::uint32_t stored_header_crc = header.u32();
  if (crc32(blob.data(), kHeaderBytes - 4) != stored_header_crc) {
    fail("header checksum mismatch");
  }
  std::vector<SectionView> sections;
  std::size_t pos = kHeaderBytes;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    if (blob.size() - pos < kSectionHeaderBytes) fail("truncated section header");
    Reader sh(blob.data() + pos, kSectionHeaderBytes);
    SectionView view;
    view.id = sh.u32();
    const std::uint64_t payload_size = sh.u64();
    const std::uint32_t stored_crc = sh.u32();
    pos += kSectionHeaderBytes;
    if (payload_size > blob.size() - pos) fail("truncated section payload");
    view.data = blob.data() + pos;
    view.size = static_cast<std::size_t>(payload_size);
    if (crc32(view.data, view.size) != stored_crc) {
      fail("section checksum mismatch");
    }
    pos += view.size;
    if (view.id != kSectionPool && view.id != kSectionMachine &&
        view.id != kSectionTuner) {
      fail("unknown section id");
    }
    sections.push_back(view);
  }
  if (pos != blob.size()) fail("trailing bytes after last section");
  return sections;
}

// --- Machine section codec -------------------------------------------------

/// Fully parsed, fully validated machine state, staged before any mutation.
struct MachineImage {
  rvv::Machine::Config config;
  sim::CountSnapshot counter;
  /// Present iff config.model_register_pressure.
  sim::VRegFileModel::Telemetry regfile;
};

[[nodiscard]] Blob encode_machine(rvv::Machine& m) {
  const sim::BufferPool::Stats& ps = m.pool_stats();
  if (ps.bytes_in_use != 0 || ps.cells_in_use != 0) {
    fail("machine has buffers in flight; snapshot only a quiescent machine");
  }
  if (m.regfile() != nullptr && m.regfile()->live_values() != 0) {
    fail("machine has live vector values; snapshot only between kernels");
  }

  Writer w;
  const rvv::Machine::Config& cfg = m.config();
  w.u32(cfg.vlen_bits);
  w.u8(cfg.model_register_pressure ? 1 : 0);
  w.u8(cfg.use_exec_cache ? 1 : 0);
  w.counts(m.counter().snapshot());
  if (m.regfile() != nullptr) {
    const sim::VRegFileModel::Telemetry t = m.regfile()->telemetry();
    w.u64(t.spills);
    w.u64(t.reloads);
    w.u32(t.peak_regs);
  }
  return w.take();
}

[[nodiscard]] MachineImage decode_machine(const SectionView& section) {
  Reader r(section.data, section.size);
  MachineImage img;

  img.config.vlen_bits = r.u32();
  if (img.config.vlen_bits < 64 ||
      (img.config.vlen_bits & (img.config.vlen_bits - 1)) != 0) {
    fail("VLEN out of range");
  }
  img.config.model_register_pressure = r.boolean();
  img.config.use_exec_cache = r.boolean();
  img.counter = r.counts();
  if (img.config.model_register_pressure) {
    img.regfile.spills = r.u64();
    img.regfile.reloads = r.u64();
    img.regfile.peak_regs = r.u32();
    if (img.regfile.peak_regs > sim::VRegFileModel::kNumRegs) {
      fail("register high-water out of range");
    }
  }
  r.expect_end();
  return img;
}

/// Validate `img` against restore target `m` without mutating anything.
void validate_target(const rvv::Machine& m, const MachineImage& img) {
  const rvv::Machine::Config& cfg = m.config();
  if (img.config.vlen_bits != cfg.vlen_bits) {
    fail("VLEN mismatch: snapshot " + std::to_string(img.config.vlen_bits) +
         ", machine " + std::to_string(cfg.vlen_bits));
  }
  if (img.config.model_register_pressure != cfg.model_register_pressure) {
    fail("register-pressure mode mismatch");
  }
  if (img.config.use_exec_cache != cfg.use_exec_cache) {
    fail("exec-cache mode mismatch");
  }
}

void validate_quiescent(rvv::Machine& m) {
  if (m.pool_stats().bytes_in_use != 0 || m.pool_stats().cells_in_use != 0) {
    fail("restore target has buffers in flight");
  }
  if (m.regfile() != nullptr && m.regfile()->live_values() != 0) {
    fail("restore target has live vector values");
  }
}

/// The mutation half of a restore.  Everything was validated before this
/// runs, and it allocates nothing, so nothing here can throw.  Routes
/// through invalidate_exec_caches() first — the single invalidation path —
/// so the reconfigure epoch bumps and every derived cache (vsetvl memo,
/// decoded ops, traces, tuned configs via the reconfigure hook) drops
/// before the restored state lands.
void apply_machine(rvv::Machine& m, const MachineImage& img) noexcept {
  m.invalidate_exec_caches();
  m.counter().restore(img.counter);
  if (m.regfile() != nullptr) m.regfile()->restore_telemetry(img.regfile);
}

// --- Tuner section codec ---------------------------------------------------

[[nodiscard]] Blob encode_tuner(const tune::AutoTuner& tuner) {
  Writer w;
  const std::vector<tune::Winner> winners = tuner.winners();
  w.u32(static_cast<std::uint32_t>(winners.size()));
  for (const tune::Winner& win : winners) {
    w.u32(static_cast<std::uint32_t>(win.key.shape));
    w.u32(win.key.bucket);
    w.u32(win.key.sew);
    w.u32(win.key.vlen);
    w.u32(win.key.harts);
    w.u32(win.lmul);
    w.u64(win.measured_counts);
  }
  return w.take();
}

[[nodiscard]] std::vector<tune::Winner> decode_tuner(const SectionView& section) {
  Reader r(section.data, section.size);
  const std::size_t count = r.vec_count(6 * 4 + 8);
  std::vector<tune::Winner> winners;
  winners.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tune::Winner win;
    const std::uint32_t shape = r.u32();
    if (shape >= static_cast<std::uint32_t>(tune::Shape::kCount)) {
      fail("tuner shape out of range");
    }
    win.key.shape = static_cast<tune::Shape>(shape);
    win.key.bucket = r.u32();
    win.key.sew = r.u32();
    win.key.vlen = r.u32();
    win.key.harts = r.u32();
    win.lmul = r.u32();
    if (win.lmul != 1 && win.lmul != 2 && win.lmul != 4 && win.lmul != 8) {
      fail("tuner LMUL out of range");
    }
    win.measured_counts = r.u64();
    winners.push_back(win);
  }
  r.expect_end();
  return winners;
}

// --- Pool section codec ----------------------------------------------------

struct PoolImage {
  std::uint32_t harts = 0;
  std::uint64_t shard_size = 0;
  bool has_rescue = false;
  sim::CountSnapshot abandoned;
};

[[nodiscard]] Blob encode_pool_info(par::HartPool& pool) {
  Writer w;
  w.u32(pool.harts());
  w.u64(pool.shard_size());
  w.u8(pool.rescue_machine() != nullptr ? 1 : 0);
  w.counts(pool.abandoned_counts());
  return w.take();
}

[[nodiscard]] PoolImage decode_pool_info(const SectionView& section) {
  Reader r(section.data, section.size);
  PoolImage img;
  img.harts = r.u32();
  if (img.harts == 0 || img.harts > 4096) fail("pool hart count out of range");
  img.shard_size = r.u64();
  img.has_rescue = r.boolean();
  img.abandoned = r.counts();
  r.expect_end();
  return img;
}

}  // namespace

// --- Public API ------------------------------------------------------------

Blob save_machine(rvv::Machine& m, const tune::AutoTuner* tuner) {
  std::vector<Section> sections;
  sections.push_back(Section{kSectionMachine, encode_machine(m)});
  if (tuner != nullptr) {
    sections.push_back(Section{kSectionTuner, encode_tuner(*tuner)});
  }
  return pack_container(sections);
}

void restore_machine(rvv::Machine& m, const Blob& blob, tune::AutoTuner* tuner) {
  const std::vector<SectionView> sections = unpack_container(blob);
  MachineImage img;
  bool have_machine = false;
  std::vector<tune::Winner> winners;
  bool have_tuner = false;
  for (const SectionView& s : sections) {
    if (s.id == kSectionMachine) {
      if (have_machine) fail("multiple machine sections in a machine snapshot");
      img = decode_machine(s);
      have_machine = true;
    } else if (s.id == kSectionTuner) {
      if (have_tuner) fail("multiple tuner sections");
      winners = decode_tuner(s);
      have_tuner = true;
    } else {
      fail("pool snapshot restored into a single machine");
    }
  }
  if (!have_machine) fail("no machine section");
  validate_target(m, img);
  validate_quiescent(m);
  // Validation complete; apply cannot throw.  The epoch bump happens inside
  // apply_machine, so the tuner import below lands on the new epoch.
  apply_machine(m, img);
  if (tuner != nullptr && have_tuner) tuner->import_winners(winners);
}

Blob save_pool(par::HartPool& pool, const tune::AutoTuner* tuner) {
  std::vector<Section> sections;
  sections.push_back(Section{kSectionPool, encode_pool_info(pool)});
  for (unsigned h = 0; h < pool.harts(); ++h) {
    sections.push_back(Section{kSectionMachine, encode_machine(pool.machine(h))});
  }
  if (rvv::Machine* rescue = pool.rescue_machine()) {
    sections.push_back(Section{kSectionMachine, encode_machine(*rescue)});
  }
  if (tuner != nullptr) {
    sections.push_back(Section{kSectionTuner, encode_tuner(*tuner)});
  }
  return pack_container(sections);
}

void restore_pool(par::HartPool& pool, const Blob& blob, tune::AutoTuner* tuner) {
  const std::vector<SectionView> sections = unpack_container(blob);
  if (sections.empty() || sections.front().id != kSectionPool) {
    fail("not a pool snapshot");
  }
  const PoolImage info = decode_pool_info(sections.front());
  if (info.harts != pool.harts()) {
    fail("hart count mismatch: snapshot " + std::to_string(info.harts) +
         ", pool " + std::to_string(pool.harts()));
  }
  if (info.shard_size != pool.shard_size()) fail("shard-size mismatch");

  std::vector<MachineImage> machines;
  std::vector<tune::Winner> winners;
  bool have_tuner = false;
  for (std::size_t i = 1; i < sections.size(); ++i) {
    const SectionView& s = sections[i];
    if (s.id == kSectionMachine) {
      machines.push_back(decode_machine(s));
    } else if (s.id == kSectionTuner) {
      if (have_tuner) fail("multiple tuner sections");
      winners = decode_tuner(s);
      have_tuner = true;
    } else {
      fail("unexpected second pool section");
    }
  }
  const std::size_t expected = info.harts + (info.has_rescue ? 1u : 0u);
  if (machines.size() != expected) fail("machine section count mismatch");

  // Validate every target before mutating any of them.  A live rescue
  // machine is checked here too — whether the snapshot restores into it or
  // it is about to be reset below — so a non-quiescent rescue traps with
  // the whole pool untouched instead of surfacing mid-apply.
  for (unsigned h = 0; h < info.harts; ++h) {
    validate_target(pool.machine(h), machines[h]);
    validate_quiescent(pool.machine(h));
  }
  if (rvv::Machine* rescue = pool.rescue_machine()) {
    validate_quiescent(*rescue);
  }
  if (info.has_rescue) {
    // The rescue machine shares the harts' configuration by construction,
    // so validating the image against hart 0's config suffices even before
    // the rescue machine itself exists.
    validate_target(pool.machine(0), machines.back());
  }

  // Staging: the one allocation the apply loop needs happens here, before
  // any machine mutates.  Materializing a missing rescue machine is the
  // last step that can fail; a fresh rescue is quiescent and zero-count,
  // so the pool is observationally unchanged if nothing else has run.
  rvv::Machine* rescue_target = nullptr;
  if (info.has_rescue) {
    try {
      rescue_target = &pool.ensure_rescue_machine();
    } catch (const std::bad_alloc&) {
      fail("out of memory materializing rescue machine");
    }
  }

  for (unsigned h = 0; h < info.harts; ++h) {
    apply_machine(pool.machine(h), machines[h]);
  }
  if (rescue_target != nullptr) {
    apply_machine(*rescue_target, machines.back());
  } else if (rvv::Machine* rescue = pool.rescue_machine()) {
    // The live pool grew a rescue machine the snapshot never saw: zero it
    // so merged_counts() matches the snapshotted pool exactly.
    rescue->reset_counts();
    rescue->invalidate_exec_caches();
  }
  pool.restore_abandoned_counts(info.abandoned);
  if (tuner != nullptr && have_tuner) tuner->import_winners(winners);
}

// Crash-safe: the blob is written to a temp file in the same directory and
// renamed over the target only after a checked fwrite + fclose, so a crash
// (or ENOSPC) mid-checkpoint can never leave a torn file at the path a
// service cold-starts from — the old snapshot survives until the new one is
// durable.  Same-directory keeps the rename atomic (no cross-device moves).
void write_file(const std::string& path, const Blob& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail("cannot open " + tmp + " for writing");
  const std::size_t written =
      blob.empty() ? 0 : std::fwrite(blob.data(), 1, blob.size(), f);
  const bool ok = std::fclose(f) == 0 && written == blob.size();
  if (!ok) {
    std::remove(tmp.c_str());
    fail("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename " + tmp + " over " + path);
  }
}

Blob read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("cannot open " + path);
  Blob blob;
  std::array<std::uint8_t, 65536> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    blob.insert(blob.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) fail("read error on " + path);
  return blob;
}

Info inspect(const Blob& blob) {
  Info info;
  info.version = kFormatVersion;  // unpack rejects every other version
  for (const SectionView& s : unpack_container(blob)) {
    info.sections.push_back(SectionInfo{s.id, s.size});
  }
  return info;
}

}  // namespace rvvsvm::snap
