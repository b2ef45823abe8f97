#include "net/collective.hpp"

#include <gtest/gtest.h>

#include <array>

namespace bgp::net {
namespace {

TEST(Collective, DepthIsCeilLog2) {
  EXPECT_EQ(CollectiveNet(1).depth(), 0u);
  EXPECT_EQ(CollectiveNet(2).depth(), 1u);
  EXPECT_EQ(CollectiveNet(3).depth(), 2u);
  EXPECT_EQ(CollectiveNet(32).depth(), 5u);
  EXPECT_EQ(CollectiveNet(128).depth(), 7u);
}

TEST(Collective, LatencyGrowsWithNodesAndBytes) {
  CollectiveNet small(8), large(128);
  EXPECT_LT(small.op_cycles(8), large.op_cycles(8));
  EXPECT_LT(small.op_cycles(8), small.op_cycles(64 * 1024));
}

TEST(Collective, RecordsOnAllNodes) {
  CollectiveNet net(4);
  std::array<upc::UpcUnit, 4> upcs;
  for (unsigned i = 0; i < 4; ++i) net.attach_upc(i, &upcs[i]);
  net.record_operation(64, 1234);
  namespace ev = isa::ev;
  using isa::CollectiveEvent;
  for (const auto& r : upcs) {
    EXPECT_EQ(r.line_count(ev::collective(CollectiveEvent::kOperations)), 1u);
    EXPECT_EQ(r.line_count(ev::collective(CollectiveEvent::kBytes32B)), 2u);
    EXPECT_EQ(r.line_count(ev::collective(CollectiveEvent::kLatencyCycles)),
              1234u);
  }
}

TEST(Barrier, LatencyGrowsSlowlyWithNodes) {
  BarrierNet small(2), large(1024);
  EXPECT_LT(small.barrier_cycles(), large.barrier_cycles());
  // Even at 1024 nodes the barrier is ~1 us (under 1000 cycles).
  EXPECT_LT(large.barrier_cycles(), 1000u);
}

TEST(Barrier, RecordsEntries) {
  BarrierNet net(2);
  upc::UpcUnit a, b;
  net.attach_upc(0, &a);
  net.attach_upc(1, &b);
  net.record_barrier(100);
  namespace ev = isa::ev;
  EXPECT_EQ(a.line_count(ev::barrier(isa::BarrierEvent::kEntries)), 1u);
  EXPECT_EQ(b.line_count(ev::barrier(isa::BarrierEvent::kWaitCycles)), 50u);
}

}  // namespace
}  // namespace bgp::net
