#include "mem/ddr.hpp"

#include <gtest/gtest.h>

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::DdrEvent;

/// A controller that counts into controller 0's event lines of its own
/// UPC unit; n(e) is the count it reported on event `e`.
struct Counted {
  explicit Counted(const DdrParams& p)
      : ctrl(p, upc,
             DdrController::EventIds{
                 .read_req = ev::ddr(0, DdrEvent::kReadReq),
                 .write_req = ev::ddr(0, DdrEvent::kWriteReq),
                 .bytes_read_16b = ev::ddr(0, DdrEvent::kBytesRead16B),
                 .bytes_written_16b = ev::ddr(0, DdrEvent::kBytesWritten16B),
                 .busy_cycles = ev::ddr(0, DdrEvent::kBusyCycles),
                 .queue_stall_cycles = ev::ddr(0, DdrEvent::kQueueStallCycles),
             }) {}
  [[nodiscard]] u64 n(DdrEvent e) const {
    return upc.line_count(ev::ddr(0, e));
  }

  upc::UpcUnit upc;
  DdrController ctrl;
};

TEST(Ddr, UncontendedReadLatency) {
  DdrParams p;  // base 104, 8 B/cycle, 128 B lines -> service 16
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  const auto r = ctrl.access(0, AccessType::kRead, 0, 1000);
  EXPECT_EQ(r.latency, 104u + 16u);
  EXPECT_EQ(r.serviced_by, 4);
}

TEST(Ddr, BackToBackRequestsQueue) {
  DdrParams p;
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  ctrl.access(0, AccessType::kRead, 0, 1000);
  // Second request at the same instant waits for the first to drain.
  const auto r2 = ctrl.access(128, AccessType::kRead, 1, 1000);
  EXPECT_EQ(r2.latency, 16u + 104u + 16u);
  EXPECT_EQ(t.n(DdrEvent::kQueueStallCycles), 16u);
}

TEST(Ddr, IdleGapDrainsQueue) {
  DdrParams p;
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  ctrl.access(0, AccessType::kRead, 0, 0);
  const auto r2 = ctrl.access(128, AccessType::kRead, 0, 10000);
  EXPECT_EQ(r2.latency, 104u + 16u);  // no queueing after the gap
}

TEST(Ddr, TrafficAccounting) {
  DdrParams p;
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  for (int i = 0; i < 10; ++i) ctrl.access(i * 128, AccessType::kRead, 0, 0);
  for (int i = 0; i < 4; ++i) ctrl.access(i * 128, AccessType::kWrite, 0, 0);
  EXPECT_EQ(t.n(DdrEvent::kReadReq), 10u);
  EXPECT_EQ(t.n(DdrEvent::kWriteReq), 4u);
  // The byte lines tick once per 16 B.
  EXPECT_EQ(t.n(DdrEvent::kBytesRead16B) * 16, 1280u);
  EXPECT_EQ(t.n(DdrEvent::kBytesWritten16B) * 16, 512u);
  EXPECT_EQ(t.n(DdrEvent::kBusyCycles), 14u * 16u);
}

TEST(Ddr, QueueDelayIsCapped) {
  DdrParams p;
  p.max_queue_services = 4;
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  for (int i = 0; i < 100; ++i) ctrl.access(0, AccessType::kRead, 0, 0);
  // Worst observed queue wait must be bounded by 4 services.
  const auto r = ctrl.access(0, AccessType::kRead, 0, 0);
  EXPECT_LE(r.latency, 104u + 16u + 4u * 16u);
}

TEST(Ddr, PostedWritesAreCheapForRequester) {
  DdrParams p;
  Counted t(p);
  DdrController& ctrl = t.ctrl;
  const auto w = ctrl.access(0, AccessType::kWrite, 0, 0);
  EXPECT_LE(w.latency, 16u);
}

TEST(DdrSystem, InterleavesAcrossControllers) {
  DdrParams p;
  upc::UpcUnit upc;
  DdrSystem sys(p, upc);
  // Consecutive lines alternate controllers.
  for (int i = 0; i < 8; ++i) sys.access(i * 128, AccessType::kRead, 0, 0);
  const auto both = [&upc](DdrEvent e) {
    return upc.line_count(ev::ddr(0, e)) + upc.line_count(ev::ddr(1, e));
  };
  EXPECT_EQ(upc.line_count(ev::ddr(0, DdrEvent::kReadReq)), 4u);
  EXPECT_EQ(upc.line_count(ev::ddr(1, DdrEvent::kReadReq)), 4u);
  EXPECT_EQ(both(DdrEvent::kReadReq), 8u);
  EXPECT_EQ(both(DdrEvent::kBytesRead16B) * 16, 8u * 128u);
}

TEST(DdrSystem, InterleavingHalvesQueueing) {
  DdrParams p;
  upc::UpcUnit upc;
  DdrSystem single_stream(p, upc);
  cycles_t same_ctrl = 0, alternating = 0;
  for (int i = 0; i < 16; ++i) {
    // Same controller: lines 0, 2, 4... (even line index -> controller 0).
    same_ctrl += single_stream.access(i * 256, AccessType::kRead, 0, 0).latency;
  }
  DdrSystem both(p, upc);
  for (int i = 0; i < 16; ++i) {
    alternating += both.access(i * 128, AccessType::kRead, 0, 0).latency;
  }
  EXPECT_LT(alternating, same_ctrl);
}

TEST(DdrSystem, EmitsUpcEventsWhenWired) {
  upc::UpcUnit upc;
  DdrParams p;
  DdrSystem sys(p, upc);
  sys.access(0, AccessType::kRead, 0, 0);    // controller 0
  sys.access(128, AccessType::kWrite, 0, 0); // controller 1
  EXPECT_EQ(upc.line_count(ev::ddr(0, DdrEvent::kReadReq)), 1u);
  EXPECT_EQ(upc.line_count(ev::ddr(0, DdrEvent::kBytesRead16B)), 8u);
  EXPECT_EQ(upc.line_count(ev::ddr(1, DdrEvent::kWriteReq)), 1u);
  EXPECT_EQ(upc.line_count(ev::ddr(1, DdrEvent::kBytesWritten16B)), 8u);
}

}  // namespace
}  // namespace bgp::mem
