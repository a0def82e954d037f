// A Machine's layout must not depend on NDEBUG: the libraries are built one
// way and a client may compile its own translation units the other way, and
// the two must agree on every object they share.  Two probe translation
// units, one with NDEBUG set and one with it cleared, report the sizes they
// see.
#include <gtest/gtest.h>

#include "layout_probe.hpp"

namespace rvvsvm {
namespace {

TEST(Layout, MachineAndPoolSizesIndependentOfNdebug) {
  const layout_probe::Sizes release = layout_probe::ndebug_sizes();
  const layout_probe::Sizes debug = layout_probe::debug_sizes();
  EXPECT_EQ(release.machine, debug.machine) << "sizeof(rvv::Machine)";
  EXPECT_EQ(release.pool, debug.pool) << "sizeof(sim::BufferPool)";
}

}  // namespace
}  // namespace rvvsvm
