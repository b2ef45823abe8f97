#include "upc/upc_unit.hpp"

#include <gtest/gtest.h>

namespace bgp::upc {
namespace {

using isa::EventId;
namespace ev = isa::ev;

TEST(UpcUnit, CountsOnlyWhileRunning) {
  UpcUnit u;
  const EventId e = ev::fpu_op(0, isa::FpOp::kFma);
  u.signal(e, 5);
  EXPECT_EQ(u.read(isa::event_counter(e)), 0u);
  u.start();
  u.signal(e, 5);
  EXPECT_EQ(u.read(isa::event_counter(e)), 5u);
  u.stop();
  u.signal(e, 5);
  EXPECT_EQ(u.read(isa::event_counter(e)), 5u);
}

TEST(UpcUnit, OnlyActiveModeCounts) {
  UpcUnit u;
  u.start();
  const EventId mode0_event = ev::fpu_op(1, isa::FpOp::kMult);
  const EventId mode1_event = ev::l3(isa::L3Event::kReadMiss);
  // Same physical counter indices in different modes must not alias.
  u.set_mode(0);
  u.signal(mode0_event, 3);
  u.signal(mode1_event, 7);  // ignored: unit is in mode 0
  EXPECT_EQ(u.read(isa::event_counter(mode0_event)), 3u);

  u.set_mode(1);
  u.reset_counters();
  u.signal(mode0_event, 3);  // ignored now
  u.signal(mode1_event, 7);
  EXPECT_EQ(u.read(isa::event_counter(mode1_event)), 7u);
}

TEST(UpcUnit, InvalidModeThrows) {
  UpcUnit u;
  EXPECT_THROW(u.set_mode(4), UpcError);
  EXPECT_NO_THROW(u.set_mode(3));
}

TEST(UpcUnit, DisabledCounterIgnoresSignals) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kAddSub);
  CounterConfig cfg;
  cfg.enabled = false;
  u.configure(isa::event_counter(e), cfg);
  u.signal(e, 10);
  EXPECT_EQ(u.read(isa::event_counter(e)), 0u);
}

TEST(UpcUnit, ResetCountersPreservesConfig) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kAddSub);
  CounterConfig cfg;
  cfg.threshold = 99;
  u.configure(isa::event_counter(e), cfg);
  u.signal(e, 4);
  u.reset_counters();
  EXPECT_EQ(u.read(isa::event_counter(e)), 0u);
  EXPECT_EQ(u.config(isa::event_counter(e)).threshold, 99u);
}

TEST(UpcUnit, LevelSemantics) {
  UpcUnit u;
  u.start();
  const EventId e = ev::ddr(0, isa::DdrEvent::kBusyCycles);
  u.set_mode(1);
  const u8 c = isa::event_counter(e);

  CounterConfig high;
  high.signal = SignalMode::kLevelHigh;
  u.configure(c, high);
  u.signal_level(e, 30, 100);
  EXPECT_EQ(u.read(c), 30u);

  CounterConfig low;
  low.signal = SignalMode::kLevelLow;
  u.configure(c, low);
  u.reset_counters();
  u.signal_level(e, 30, 100);
  EXPECT_EQ(u.read(c), 70u);
}

TEST(UpcUnit, EdgeConfigIgnoresLevelAccumulationButCountsTransition) {
  UpcUnit u;
  u.start();
  u.set_mode(1);
  const EventId e = ev::ddr(0, isa::DdrEvent::kBusyCycles);
  const u8 c = isa::event_counter(e);
  CounterConfig edge;
  edge.signal = SignalMode::kEdgeRise;
  u.configure(c, edge);
  u.signal_level(e, 30, 100);  // one observation window with activity
  EXPECT_EQ(u.read(c), 1u);
  u.signal_level(e, 0, 100);  // idle window: no transition
  EXPECT_EQ(u.read(c), 1u);
}

TEST(UpcUnit, LevelConfigIgnoresEdgeSignals) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kMult);
  const u8 c = isa::event_counter(e);
  CounterConfig level;
  level.signal = SignalMode::kLevelHigh;
  u.configure(c, level);
  u.signal(e, 10);
  EXPECT_EQ(u.read(c), 0u);
}

TEST(UpcUnit, ThresholdInterruptFiresOnceOnCrossing) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kFma);
  const u8 c = isa::event_counter(e);
  CounterConfig cfg;
  cfg.interrupt_enable = true;
  cfg.threshold = 100;
  u.configure(c, cfg);

  int fires = 0;
  u64 fired_value = 0;
  u.add_threshold_listener([&](u8 counter, u64 value) {
    ++fires;
    fired_value = value;
    EXPECT_EQ(counter, c);
  });

  u.signal(e, 60);
  EXPECT_EQ(fires, 0);
  u.signal(e, 60);  // crosses 100
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_value, 120u);
  u.signal(e, 60);  // already above: no re-fire
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcUnit, ThresholdRequiresInterruptEnable) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kFma);
  const u8 c = isa::event_counter(e);
  CounterConfig cfg;
  cfg.interrupt_enable = false;
  cfg.threshold = 10;
  u.configure(c, cfg);
  int fires = 0;
  u.add_threshold_listener([&](u8, u64) { ++fires; });
  u.signal(e, 100);
  EXPECT_EQ(fires, 0);
}

TEST(UpcUnit, CountersAre64Bit) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kAddSub);
  const u8 c = isa::event_counter(e);
  u.write(c, 0xFFFFFFFFull);  // would overflow a 32-bit counter
  u.signal(e, 1);
  EXPECT_EQ(u.read(c), 0x100000000ull);
}

TEST(CounterConfig, EncodeDecodeRoundTrip) {
  for (u32 word = 0; word < 16; ++word) {
    const CounterConfig cfg = CounterConfig::decode(word);
    EXPECT_EQ(cfg.encode(), word);
  }
  CounterConfig cfg;
  cfg.signal = SignalMode::kLevelLow;
  cfg.interrupt_enable = true;
  cfg.enabled = true;
  EXPECT_EQ(cfg.encode(), 0b1111u);
  EXPECT_EQ(CounterConfig::decode(cfg.encode()), cfg);
}

TEST(CounterConfig, PaperSignalEncodings) {
  // §III-A: 00 LEVEL_HIGH, 01 EDGE_RISE, 10 EDGE_FALL, 11 LEVEL_LOW.
  EXPECT_EQ(static_cast<u8>(SignalMode::kLevelHigh), 0b00);
  EXPECT_EQ(static_cast<u8>(SignalMode::kEdgeRise), 0b01);
  EXPECT_EQ(static_cast<u8>(SignalMode::kEdgeFall), 0b10);
  EXPECT_EQ(static_cast<u8>(SignalMode::kLevelLow), 0b11);
}

TEST(UpcUnit, NarrowedCounterWrapsAtItsWidth) {
  UpcUnit u;
  u.start();
  const EventId e = ev::fpu_op(0, isa::FpOp::kFma);
  const u8 c = isa::event_counter(e);
  u.set_counter_width(c, 32);
  EXPECT_EQ(u.counter_mask(c), 0xFFFF'FFFFull);

  // Preload just below the boundary; the next signals wrap around zero —
  // the fault-injection model for a defective 32-bit counter.
  u.write(c, (u64{1} << 32) - 3);
  u.signal(e, 10);
  EXPECT_EQ(u.read(c), 7u);

  // The snapshot-delta arithmetic the monitor uses then yields a value in
  // the top half of u64 — the wraparound signature sanity looks for.
  const u64 delta = u.read(c) - ((u64{1} << 32) - 3);
  EXPECT_GE(delta, u64{1} << 63);
}

TEST(UpcUnit, CounterWidthValidatesArguments) {
  UpcUnit u;
  EXPECT_THROW(u.set_counter_width(0, 0), UpcError);
  EXPECT_THROW(u.set_counter_width(0, 65), UpcError);
  EXPECT_NO_THROW(u.set_counter_width(0, 64));
  EXPECT_EQ(u.counter_mask(0), ~u64{0});
}

TEST(UpcUnit, WriteIsMaskedOnNarrowCounter) {
  UpcUnit u;
  u.set_counter_width(5, 16);
  u.write(5, 0x1'2345);
  EXPECT_EQ(u.read(5), 0x2345u);
}

}  // namespace
}  // namespace bgp::upc
