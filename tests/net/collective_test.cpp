#include "net/collective.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>

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
  class Recorder final : public mem::EventSink {
   public:
    void events(const isa::EventCount* b, std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) counts[b[i].id] += b[i].count;
    }
    std::map<isa::EventId, u64> counts;
  };
  CollectiveNet net(4);
  std::array<Recorder, 4> recs;
  for (unsigned i = 0; i < 4; ++i) net.attach_sink(i, &recs[i]);
  net.record_operation(64, 1234);
  namespace ev = isa::ev;
  for (auto& r : recs) {
    EXPECT_EQ(r.counts[ev::collective(isa::CollectiveEvent::kOperations)], 1u);
    EXPECT_EQ(r.counts[ev::collective(isa::CollectiveEvent::kBytes32B)], 2u);
    EXPECT_EQ(r.counts[ev::collective(isa::CollectiveEvent::kLatencyCycles)],
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
  class Recorder final : public mem::EventSink {
   public:
    void events(const isa::EventCount* b, std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) counts[b[i].id] += b[i].count;
    }
    std::map<isa::EventId, u64> counts;
  };
  BarrierNet net(2);
  Recorder a, b;
  net.attach_sink(0, &a);
  net.attach_sink(1, &b);
  net.record_barrier(100);
  namespace ev = isa::ev;
  EXPECT_EQ(a.counts[ev::barrier(isa::BarrierEvent::kEntries)], 1u);
  EXPECT_EQ(b.counts[ev::barrier(isa::BarrierEvent::kWaitCycles)], 50u);
}

}  // namespace
}  // namespace bgp::net
