// Layout probe compiled as a debug (assert-enabled) translation unit; see
// test_layout.cpp.  NDEBUG must be cleared before the first include.
#undef NDEBUG

#include "layout_probe.hpp"
#include "rvv/machine.hpp"

namespace rvvsvm::layout_probe {

Sizes debug_sizes() { return Sizes{sizeof(rvv::Machine), sizeof(sim::BufferPool)}; }

}  // namespace rvvsvm::layout_probe
