#include "isa/events.hpp"

#include <gtest/gtest.h>

#include <set>

namespace bgp::isa {
namespace {

TEST(Events, ModeAndCounterDecomposition) {
  EXPECT_EQ(event_mode(0), 0);
  EXPECT_EQ(event_counter(0), 0);
  EXPECT_EQ(event_mode(255), 0);
  EXPECT_EQ(event_counter(255), 255);
  EXPECT_EQ(event_mode(256), 1);
  EXPECT_EQ(event_counter(256), 0);
  EXPECT_EQ(event_mode(1023), 3);
  EXPECT_EQ(event_counter(1023), 255);
}

TEST(Events, TableHas1024Entries) {
  EXPECT_EQ(event_table().size(), 1024u);
}

TEST(Events, PerCoreEventsAreInMode0) {
  for (unsigned core = 0; core < kCoresPerNode; ++core) {
    EXPECT_EQ(event_mode(ev::fpu_op(core, FpOp::kSimdFma)), 0) << core;
    EXPECT_EQ(event_mode(ev::cycle_count(core)), 0) << core;
    EXPECT_EQ(event_mode(ev::l2(core, L2Event::kStreamDetected)), 0) << core;
  }
}

TEST(Events, MemoryEventsAreInMode1) {
  EXPECT_EQ(event_mode(ev::l3(L3Event::kReadMiss)), 1);
  EXPECT_EQ(event_mode(ev::ddr(0, DdrEvent::kBytesRead16B)), 1);
  EXPECT_EQ(event_mode(ev::ddr(1, DdrEvent::kQueueStallCycles)), 1);
  EXPECT_EQ(event_mode(ev::snoop(SnoopEvent::kRequests)), 1);
}

TEST(Events, NetworkEventsAreInMode2) {
  EXPECT_EQ(event_mode(ev::torus(TorusEvent::kHopsTotal)), 2);
  EXPECT_EQ(event_mode(ev::collective(CollectiveEvent::kBytes32B)), 2);
  EXPECT_EQ(event_mode(ev::barrier(BarrierEvent::kWaitCycles)), 2);
}

TEST(Events, SystemEventsAreInMode3PerSlot) {
  for (unsigned slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(event_mode(ev::system(SysEvent::kUpcOverheadCycles, slot)), 3);
  }
  EXPECT_NE(ev::system(SysEvent::kMpiSends, 0), ev::system(SysEvent::kMpiSends, 1));
}

TEST(Events, NoCollisionsAmongNamedEvents) {
  // Every non-reserved event id must be unique (the builders must not
  // overlap within a mode's 256 slots).
  std::set<EventId> seen;
  unsigned named = 0;
  for (const auto& info : event_table()) {
    if (info.unit == Unit::kReserved) continue;
    ++named;
    EXPECT_TRUE(seen.insert(info.id).second) << "dup id " << info.id;
    EXPECT_NE(info.name, "RESERVED");
  }
  // 4 cores * (8 fp + 6 ls + 4 int + 2 + 7 L1D + 2 L1I + 8 L2) = 148
  // + 9 L3 + 12 DDR + 4 snoop + 11 torus + 3 coll + 2 barrier + 44 sys
  EXPECT_EQ(named, 4 * 37 + 9 + 12 + 4 + 11 + 3 + 2 + 4 * 11);
}

TEST(Events, InfoNamesAreDescriptive) {
  EXPECT_EQ(event_info(ev::fpu_op(0, FpOp::kSimdFma)).name,
            "CORE0_fp_simd_fma");
  EXPECT_EQ(event_info(ev::l3(L3Event::kWritebackToDdr)).name,
            "L3_WRITEBACK_TO_DDR");
  EXPECT_EQ(event_info(ev::ddr(1, DdrEvent::kBusyCycles)).name,
            "DDR1_BUSY_CYCLES");
  EXPECT_EQ(event_info(ev::cycle_count(2)).name, "CORE2_CYCLE_COUNT");
}

TEST(Events, OutOfRangeInfoThrows) {
  EXPECT_THROW((void)event_info(1024), std::out_of_range);
}

TEST(Events, CoreSlicesDoNotOverlap) {
  // The last event of core c's slice must precede the first of core c+1.
  for (unsigned core = 0; core + 1 < kCoresPerNode; ++core) {
    EXPECT_LT(ev::l2(core, L2Event::kStreamDetected),
              ev::fpu_op(core + 1, FpOp::kAddSub));
  }
}

}  // namespace
}  // namespace bgp::isa
