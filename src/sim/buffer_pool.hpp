// Machine-owned storage recycling for the emulator's hot path.
//
// Every emulated RVV instruction produces a fresh result value, and before
// this subsystem existed each result heap-allocated a std::vector for its
// elements plus a shared_ptr control block for its register-allocator token.
// At millions of emulated instructions per sweep cell the allocator — not the
// modeled work — dominated emulator wall-clock.  BufferPool removes both
// allocations from the steady state:
//
//   * Element/mask storage is handed out as refcounted blocks bucketed by
//     power-of-two byte size class.  When the last vreg/vmask copy holding a
//     block dies, the block returns to its class freelist and the next
//     instruction of similar shape reuses it without touching malloc.
//   * ValueToken refcount cells (one per SSA value when the register-pressure
//     model is on) come from a dedicated cell freelist instead of a
//     shared_ptr control-block allocation.
//
// The pool is owned by one rvv::Machine and inherits the machine's threading
// contract: a machine is a single hart driven from one thread at a time, so
// refcounts and freelists are deliberately non-atomic.  Parallel sweeps and
// the par:: sharded engine run one machine (and therefore one pool) per
// thread.  Debug builds enforce the contract: the pool binds to the first
// thread that acquires from it and asserts if another thread acquires or
// releases while buffers are still in flight (a cross-thread release would
// silently corrupt the non-atomic freelists).  A fully drained pool may be
// re-bound, so serially handing a machine from one thread to another —
// the fork-join pattern — stays legal.
//
// Recycling is host-side only and must never change modeled behavior:
// dynamic instruction counts, spill/reload traffic and element values do not
// depend on which blocks a result happens to reuse.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rvvsvm::sim {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t block_acquires = 0;  ///< element/mask blocks handed out
    std::uint64_t block_reuses = 0;    ///< ... of which came from a freelist
    std::uint64_t cell_acquires = 0;   ///< token refcount cells handed out
    std::uint64_t cell_reuses = 0;     ///< ... of which came from the freelist
    std::uint64_t cells_in_use = 0;    ///< token cells currently live
    std::size_t bytes_in_use = 0;      ///< block bytes currently owned by values
    std::size_t peak_bytes_in_use = 0; ///< high-water mark of bytes_in_use
    std::size_t bytes_cached = 0;      ///< block bytes parked on freelists
  };

  /// Header preceding every block's payload.  16 bytes, so payloads keep
  /// malloc's max_align_t alignment for every element type we emulate.
  struct BlockHeader {
    BufferPool* pool;
    std::uint32_t refcount;
    std::uint32_t class_idx;
  };
  static_assert(sizeof(BlockHeader) <= 16);

  /// Power-of-two size classes the freelists are bucketed by; public with
  /// kMinClass so the snapshot loader can range-check serialized class
  /// indices at both ends.
  static constexpr unsigned kNumClasses = 48;
  /// Smallest block (header + payload) in bytes; everything rounds up to a
  /// power of two, so freelists stay dense: one per set bit position.
  static constexpr std::size_t kMinBlockBytes = 64;
  /// Index of the smallest real size class: class_bytes(kMinClass) ==
  /// kMinBlockBytes.  Classes below this are smaller than a BlockHeader, so
  /// a serialized class index under kMinClass must be rejected before any
  /// block of that class is primed and given a header.
  static constexpr unsigned kMinClass =
      static_cast<unsigned>(std::countr_zero(kMinBlockBytes));

  /// Shape of the parked freelists for snapshot/restore (src/snap): how many
  /// recycled blocks each size class is caching, plus the parked token-cell
  /// count.  Only meaningful while nothing is in flight.
  struct FreelistShape {
    std::vector<std::pair<unsigned, std::uint32_t>> blocks;  ///< (class, count)
    std::uint64_t cells = 0;
  };

  /// Intrusive refcount cell backing rvv::detail::ValueToken: releases the
  /// register-allocator value `id` on `owner` when the count hits zero.
  struct RefCell {
    std::uint32_t refcount;
    std::uint64_t id;
    void* owner;
    BufferPool* pool;
    RefCell* next;  // freelist link while parked
  };

  /// Freelist storage pre-allocated during a restore's staging phase,
  /// before any pool mutates.  Building one performs every allocation the
  /// matching restore_freelists() call will need — the only step of a
  /// restore that can throw — so adopting it is allocation-free and the
  /// snapshot layer's apply phase stays genuinely no-throw.  Move-only;
  /// storage never adopted is freed on destruction.
  class PrimedFreelists {
   public:
    PrimedFreelists() = default;
    /// Allocate every block and cell `shape` calls for.  Each (class,
    /// count) pair must satisfy kMinClass <= class < kNumClasses (asserted
    /// here; the snapshot decoder range-checks untrusted input first).
    explicit PrimedFreelists(const FreelistShape& shape);
    ~PrimedFreelists() { release(); }

    PrimedFreelists(const PrimedFreelists&) = delete;
    PrimedFreelists& operator=(const PrimedFreelists&) = delete;
    PrimedFreelists(PrimedFreelists&& other) noexcept { swap(other); }
    PrimedFreelists& operator=(PrimedFreelists&& other) noexcept {
      PrimedFreelists tmp(std::move(other));
      swap(tmp);
      return *this;
    }
    void swap(PrimedFreelists& other) noexcept {
      blocks_.swap(other.blocks_);
      std::swap(cells_, other.cells_);
    }

   private:
    friend class BufferPool;
    void release() noexcept;

    std::array<std::vector<void*>, kNumClasses> blocks_{};
    RefCell* cells_ = nullptr;
  };

  BufferPool() = default;
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Hand out a block whose payload holds at least `payload_bytes`, with
  /// refcount 1.  Payload contents are indeterminate (callers poison-fill).
  [[nodiscard]] BlockHeader* acquire_block(std::size_t payload_bytes);

  /// Hand out a token cell (fields uninitialized except pool).
  [[nodiscard]] RefCell* acquire_cell();
  void release_cell(RefCell* cell);

  [[nodiscard]] static void* payload(BlockHeader* h) noexcept {
    return reinterpret_cast<std::byte*>(h) + kHeaderBytes;
  }
  [[nodiscard]] static const void* payload(const BlockHeader* h) noexcept {
    return reinterpret_cast<const std::byte*>(h) + kHeaderBytes;
  }

  static void retain(BlockHeader* h) noexcept { ++h->refcount; }
  static void release(BlockHeader* h) {
    if (--h->refcount == 0) h->pool->recycle_block(h);
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Fault injection (chaos testing): arm a one-shot countdown so the n-th
  /// subsequent acquire (block or cell, n >= 1) throws rvvsvm::PoolAllocTrap
  /// instead of handing out storage.  The trap fires before any stats or
  /// freelist mutation, so pool occupancy accounting stays exact; the
  /// countdown disarms when it fires so recovery retries succeed.  n == 0
  /// disarms.  Production machines never arm this and pay one branch.
  void trap_allocation_after(std::uint64_t n) noexcept { alloc_trap_in_ = n; }
  [[nodiscard]] bool alloc_trap_armed() const noexcept {
    return alloc_trap_in_ != 0;
  }

  /// Snapshot view of the freelists (see FreelistShape).
  [[nodiscard]] FreelistShape freelist_shape() const;

  /// Restore `stats` and re-warm the freelists by adopting `primed`'s
  /// pre-allocated storage (existing parked storage is released first, so
  /// repeated restores don't accumulate).  Allocation-free and no-throw:
  /// the caller builds the PrimedFreelists during its staging phase, where
  /// bad_alloc can still surface with the pool untouched.  Requires an idle
  /// pool: bytes_in_use and cells_in_use must be zero both live and in
  /// `stats` — the snapshot layer validates and traps before calling.
  /// bytes_cached is recomputed from the blocks actually adopted.  Clears
  /// the debug thread binding, so the restored pool re-binds to whichever
  /// hart touches it next (the same drained-pool handoff rule as fork-join).
  void restore_freelists(const Stats& stats, PrimedFreelists&& primed) noexcept;

 private:
  static constexpr std::size_t kHeaderBytes = 16;
  // Every class from kMinClass up can hold a header; the snapshot loader
  // relies on this when it rejects smaller serialized class indices.
  static_assert(kMinBlockBytes >= kHeaderBytes);

  [[nodiscard]] static unsigned class_for(std::size_t payload_bytes) noexcept {
    const std::size_t total =
        std::bit_ceil(payload_bytes + kHeaderBytes < kMinBlockBytes
                          ? kMinBlockBytes
                          : payload_bytes + kHeaderBytes);
    return static_cast<unsigned>(std::countr_zero(total));
  }
  [[nodiscard]] static std::size_t class_bytes(unsigned class_idx) noexcept {
    return std::size_t{1} << class_idx;
  }

  void recycle_block(BlockHeader* h);

  /// Decrement the armed countdown; throws PoolAllocTrap when it reaches 0.
  void maybe_trap_alloc(const char* kind);

  /// Debug-only single-hart enforcement: binds the pool to the first thread
  /// that touches it, allows re-binding once every block and cell has been
  /// returned, and asserts on any cross-thread touch while storage is live.
  void debug_check_owner() noexcept {
#ifndef NDEBUG
    const std::thread::id me = std::this_thread::get_id();
    if (owner_ == me) return;
    assert((owner_ == std::thread::id{} ||
            (stats_.bytes_in_use == 0 && stats_.cells_in_use == 0)) &&
           "BufferPool: cross-thread acquire/release while buffers are in "
           "flight — a Machine is a single hart; give each thread its own");
    owner_ = me;
#endif
  }

  Stats stats_;
  std::uint64_t alloc_trap_in_ = 0;  ///< 0 = disarmed; see trap_allocation_after
  std::vector<void*> free_blocks_[kNumClasses];
  RefCell* free_cells_ = nullptr;
  /// Bound lazily; see debug_check_owner.  Declared in every build (only the
  /// check is debug-only) so the pool's and Machine's layout does not depend
  /// on NDEBUG.
  std::thread::id owner_{};
};

/// A refcount-shared, pool-backed array of T — the storage behind vreg and
/// vmask.  Copies share the block (emulated results are immutable once
/// constructed, so sharing is observationally identical to the deep copy
/// std::vector used to make, minus the allocation and memcpy).  The last
/// copy's destruction returns the block to the owning pool, which must
/// outlive every buffer acquired from it (the vreg/Machine lifetime
/// contract).
template <class T>
class PooledBuffer {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  PooledBuffer() = default;

  /// Acquire storage for `count` elements; contents are indeterminate.
  PooledBuffer(BufferPool& pool, std::size_t count)
      : hdr_(pool.acquire_block(count * sizeof(T))), size_(count) {}

  PooledBuffer(const PooledBuffer& other) noexcept
      : hdr_(other.hdr_), size_(other.size_) {
    if (hdr_ != nullptr) BufferPool::retain(hdr_);
  }
  PooledBuffer(PooledBuffer&& other) noexcept
      : hdr_(std::exchange(other.hdr_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  PooledBuffer& operator=(const PooledBuffer& other) {
    PooledBuffer tmp(other);
    swap(tmp);
    return *this;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    PooledBuffer tmp(std::move(other));
    swap(tmp);
    return *this;
  }

  ~PooledBuffer() {
    if (hdr_ != nullptr) BufferPool::release(hdr_);
  }

  void swap(PooledBuffer& other) noexcept {
    std::swap(hdr_, other.hdr_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* data() noexcept {
    return hdr_ != nullptr ? static_cast<T*>(BufferPool::payload(hdr_)) : nullptr;
  }
  [[nodiscard]] const T* data() const noexcept {
    return hdr_ != nullptr ? static_cast<const T*>(BufferPool::payload(hdr_))
                           : nullptr;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data()[i];
  }

 private:
  BufferPool::BlockHeader* hdr_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rvvsvm::sim
