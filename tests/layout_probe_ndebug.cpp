// Layout probe compiled as a release (NDEBUG) translation unit; see
// test_layout.cpp.  NDEBUG must be set before the first include.
#ifndef NDEBUG
#define NDEBUG
#endif

#include "layout_probe.hpp"
#include "rvv/machine.hpp"

namespace rvvsvm::layout_probe {

Sizes ndebug_sizes() { return Sizes{sizeof(rvv::Machine), sizeof(sim::BufferPool)}; }

}  // namespace rvvsvm::layout_probe
