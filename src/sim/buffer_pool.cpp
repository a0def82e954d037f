#include "sim/buffer_pool.hpp"

#include <new>

#include "sim/trap.hpp"

namespace rvvsvm::sim {

void BufferPool::maybe_trap_alloc(const char* kind) {
  if (alloc_trap_in_ == 0) return;
  if (--alloc_trap_in_ != 0) return;
  TrapContext ctx;
  ctx.op = kind;
  ctx.hart = current_hart();
  throw PoolAllocTrap("buffer-pool: injected allocation failure", ctx);
}

BufferPool::~BufferPool() {
  for (auto& list : free_blocks_) {
    for (void* p : list) ::operator delete(p);
    list.clear();
  }
  while (free_cells_ != nullptr) {
    RefCell* next = free_cells_->next;
    delete free_cells_;
    free_cells_ = next;
  }
}

BufferPool::BlockHeader* BufferPool::acquire_block(std::size_t payload_bytes) {
  debug_check_owner();
  maybe_trap_alloc("pool.block");
  const unsigned cls = class_for(payload_bytes);
  assert(cls < kNumClasses);
  ++stats_.block_acquires;
  stats_.bytes_in_use += class_bytes(cls);
  if (stats_.bytes_in_use > stats_.peak_bytes_in_use) {
    stats_.peak_bytes_in_use = stats_.bytes_in_use;
  }

  void* raw = nullptr;
  if (!free_blocks_[cls].empty()) {
    raw = free_blocks_[cls].back();
    free_blocks_[cls].pop_back();
    ++stats_.block_reuses;
    stats_.bytes_cached -= class_bytes(cls);
  } else {
    raw = ::operator new(class_bytes(cls));
  }

  auto* h = static_cast<BlockHeader*>(raw);
  h->pool = this;
  h->refcount = 1;
  h->class_idx = cls;
  return h;
}

void BufferPool::recycle_block(BlockHeader* h) {
  debug_check_owner();
  const unsigned cls = h->class_idx;
  stats_.bytes_in_use -= class_bytes(cls);
  free_blocks_[cls].push_back(h);
  stats_.bytes_cached += class_bytes(cls);
}

BufferPool::FreelistShape BufferPool::freelist_shape() const {
  FreelistShape shape;
  for (unsigned cls = 0; cls < kNumClasses; ++cls) {
    if (free_blocks_[cls].empty()) continue;
    shape.blocks.emplace_back(cls,
                              static_cast<std::uint32_t>(free_blocks_[cls].size()));
  }
  for (const RefCell* cell = free_cells_; cell != nullptr; cell = cell->next) {
    ++shape.cells;
  }
  return shape;
}

BufferPool::PrimedFreelists::PrimedFreelists(const FreelistShape& shape) {
  // Not a constructor function-try-block: the members must still be alive
  // in the handler so release() can free what was already allocated.
  try {
    for (const auto& [cls, count] : shape.blocks) {
      assert(cls >= kMinClass && cls < kNumClasses);
      blocks_[cls].reserve(blocks_[cls].size() + count);
      for (std::uint32_t i = 0; i < count; ++i) {
        blocks_[cls].push_back(::operator new(class_bytes(cls)));
      }
    }
    for (std::uint64_t i = 0; i < shape.cells; ++i) {
      auto* cell = new RefCell;
      cell->refcount = 0;
      cell->id = 0;
      cell->owner = nullptr;
      cell->pool = nullptr;
      cell->next = cells_;
      cells_ = cell;
    }
  } catch (...) {
    release();
    throw;
  }
}

void BufferPool::PrimedFreelists::release() noexcept {
  for (auto& list : blocks_) {
    for (void* p : list) ::operator delete(p);
    list.clear();
  }
  while (cells_ != nullptr) {
    RefCell* next = cells_->next;
    delete cells_;
    cells_ = next;
  }
}

void BufferPool::restore_freelists(const Stats& stats,
                                   PrimedFreelists&& primed) noexcept {
  assert(stats_.bytes_in_use == 0 && stats_.cells_in_use == 0 &&
         "BufferPool::restore_freelists while buffers are in flight");
  assert(stats.bytes_in_use == 0 && stats.cells_in_use == 0);
  for (auto& list : free_blocks_) {
    for (void* p : list) ::operator delete(p);
    list.clear();
  }
  while (free_cells_ != nullptr) {
    RefCell* next = free_cells_->next;
    delete free_cells_;
    free_cells_ = next;
  }
  stats_ = stats;
  stats_.bytes_cached = 0;
  for (unsigned cls = 0; cls < kNumClasses; ++cls) {
    free_blocks_[cls] = std::move(primed.blocks_[cls]);
    primed.blocks_[cls].clear();
    for (void* raw : free_blocks_[cls]) {
      auto* h = static_cast<BlockHeader*>(raw);
      h->pool = this;
      h->refcount = 0;
      h->class_idx = cls;
      stats_.bytes_cached += class_bytes(cls);
    }
  }
  while (primed.cells_ != nullptr) {
    RefCell* cell = primed.cells_;
    primed.cells_ = cell->next;
    cell->pool = this;
    cell->next = free_cells_;
    free_cells_ = cell;
  }
  owner_ = std::thread::id{};
}

BufferPool::RefCell* BufferPool::acquire_cell() {
  debug_check_owner();
  maybe_trap_alloc("pool.cell");
  ++stats_.cell_acquires;
  ++stats_.cells_in_use;
  RefCell* cell = nullptr;
  if (free_cells_ != nullptr) {
    cell = free_cells_;
    free_cells_ = cell->next;
    ++stats_.cell_reuses;
  } else {
    cell = new RefCell;
  }
  cell->pool = this;
  cell->next = nullptr;
  return cell;
}

void BufferPool::release_cell(RefCell* cell) {
  debug_check_owner();
  assert(stats_.cells_in_use > 0);
  --stats_.cells_in_use;
  cell->next = free_cells_;
  free_cells_ = cell;
}

}  // namespace rvvsvm::sim
