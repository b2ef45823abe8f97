#include "mem/ddr.hpp"

#include <gtest/gtest.h>

namespace bgp::mem {
namespace {

TEST(Ddr, UncontendedReadLatency) {
  DdrParams p;  // base 104, 8 B/cycle, 128 B lines -> service 16
  DdrController ctrl(p);
  const auto r = ctrl.access(0, AccessType::kRead, 0, 1000);
  EXPECT_EQ(r.latency, 104u + 16u);
  EXPECT_EQ(r.serviced_by, 4);
}

TEST(Ddr, BackToBackRequestsQueue) {
  DdrParams p;
  DdrController ctrl(p);
  ctrl.access(0, AccessType::kRead, 0, 1000);
  // Second request at the same instant waits for the first to drain.
  const auto r2 = ctrl.access(128, AccessType::kRead, 1, 1000);
  EXPECT_EQ(r2.latency, 16u + 104u + 16u);
  EXPECT_EQ(ctrl.stats().queue_stall_cycles, 16u);
}

TEST(Ddr, IdleGapDrainsQueue) {
  DdrParams p;
  DdrController ctrl(p);
  ctrl.access(0, AccessType::kRead, 0, 0);
  const auto r2 = ctrl.access(128, AccessType::kRead, 0, 10000);
  EXPECT_EQ(r2.latency, 104u + 16u);  // no queueing after the gap
}

TEST(Ddr, TrafficAccounting) {
  DdrParams p;
  DdrController ctrl(p);
  for (int i = 0; i < 10; ++i) ctrl.access(i * 128, AccessType::kRead, 0, 0);
  for (int i = 0; i < 4; ++i) ctrl.access(i * 128, AccessType::kWrite, 0, 0);
  EXPECT_EQ(ctrl.stats().read_reqs, 10u);
  EXPECT_EQ(ctrl.stats().write_reqs, 4u);
  EXPECT_EQ(ctrl.stats().bytes_read, 1280u);
  EXPECT_EQ(ctrl.stats().bytes_written, 512u);
  EXPECT_EQ(ctrl.stats().busy_cycles, 14u * 16u);
}

TEST(Ddr, QueueDelayIsCapped) {
  DdrParams p;
  p.max_queue_services = 4;
  DdrController ctrl(p);
  for (int i = 0; i < 100; ++i) ctrl.access(0, AccessType::kRead, 0, 0);
  // Worst observed queue wait must be bounded by 4 services.
  const auto r = ctrl.access(0, AccessType::kRead, 0, 0);
  EXPECT_LE(r.latency, 104u + 16u + 4u * 16u);
}

TEST(Ddr, PostedWritesAreCheapForRequester) {
  DdrParams p;
  DdrController ctrl(p);
  const auto w = ctrl.access(0, AccessType::kWrite, 0, 0);
  EXPECT_LE(w.latency, 16u);
}

TEST(DdrSystem, InterleavesAcrossControllers) {
  DdrParams p;
  DdrSystem sys(p);
  // Consecutive lines alternate controllers.
  for (int i = 0; i < 8; ++i) sys.access(i * 128, AccessType::kRead, 0, 0);
  EXPECT_EQ(sys.controller(0).stats().read_reqs, 4u);
  EXPECT_EQ(sys.controller(1).stats().read_reqs, 4u);
  EXPECT_EQ(sys.total().read_reqs, 8u);
  EXPECT_EQ(sys.total().bytes_read, 8u * 128u);
}

TEST(DdrSystem, InterleavingHalvesQueueing) {
  DdrParams p;
  DdrSystem single_stream(p);
  cycles_t same_ctrl = 0, alternating = 0;
  for (int i = 0; i < 16; ++i) {
    // Same controller: lines 0, 2, 4... (even line index -> controller 0).
    same_ctrl += single_stream.access(i * 256, AccessType::kRead, 0, 0).latency;
  }
  DdrSystem both(p);
  for (int i = 0; i < 16; ++i) {
    alternating += both.access(i * 128, AccessType::kRead, 0, 0).latency;
  }
  EXPECT_LT(alternating, same_ctrl);
}

TEST(DdrSystem, EmitsUpcEventsWhenWired) {
  upc::UpcUnit upc;
  DdrParams p;
  DdrSystem sys(p, &upc);
  sys.access(0, AccessType::kRead, 0, 0);    // controller 0
  sys.access(128, AccessType::kWrite, 0, 0); // controller 1
  using isa::DdrEvent;
  EXPECT_EQ(upc.line_count(isa::ev::ddr(0, DdrEvent::kReadReq)), 1u);
  EXPECT_EQ(upc.line_count(isa::ev::ddr(0, DdrEvent::kBytesRead16B)), 8u);
  EXPECT_EQ(upc.line_count(isa::ev::ddr(1, DdrEvent::kWriteReq)), 1u);
  EXPECT_EQ(upc.line_count(isa::ev::ddr(1, DdrEvent::kBytesWritten16B)), 8u);
}

}  // namespace
}  // namespace bgp::mem
