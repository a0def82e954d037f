// Object sizes seen by a translation unit, for the NDEBUG layout test.
#pragma once

#include <cstddef>

namespace rvvsvm::layout_probe {

struct Sizes {
  std::size_t machine;  ///< sizeof(rvv::Machine)
  std::size_t pool;     ///< sizeof(sim::BufferPool)
};

/// Defined in layout_probe_ndebug.cpp (NDEBUG set).
Sizes ndebug_sizes();
/// Defined in layout_probe_debug.cpp (NDEBUG cleared).
Sizes debug_sizes();

}  // namespace rvvsvm::layout_probe
