// Threshold-interrupt edge cases (ISSUE 2 satellite): re-arm from inside
// the handler, thresholds rewritten while armed, and counter wrap racing a
// threshold crossing. The sampling layer depends on every one of these
// behaviours — a spurious or missed interrupt there becomes a duplicated or
// lost trace interval.
#include <gtest/gtest.h>

#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::upc {
namespace {

constexpr isa::EventId kEvent = isa::ev::cycle_count(0);
constexpr u8 kCounter = isa::event_counter(kEvent);

UpcUnit armed_unit(u64 threshold) {
  UpcUnit u;
  u.start();
  CounterConfig cfg;
  cfg.interrupt_enable = true;
  cfg.threshold = threshold;
  u.configure(kCounter, cfg);
  return u;
}

TEST(UpcThreshold, FiresExactlyOncePerCrossing) {
  UpcUnit u = armed_unit(100);
  u.signal(kEvent, 99);
  EXPECT_EQ(u.threshold_interrupts(), 0u);
  u.signal(kEvent, 1);  // lands exactly on the threshold
  EXPECT_EQ(u.threshold_interrupts(), 1u);
  u.signal(kEvent, 500);  // already past: no re-fire
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, HandlerRearmsFromInsideTheInterrupt) {
  UpcUnit u = armed_unit(100);
  std::vector<u64> fired_at;
  u.add_threshold_listener([&](u8 counter, u64 value) {
    ASSERT_EQ(counter, kCounter);
    fired_at.push_back(value);
    // Interrupt-service-routine style re-arm: next boundary 100 further,
    // written over the MMIO threshold register like the sampler does.
    u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                   u.read(kCounter) + 100);
  });
  for (int i = 0; i < 10; ++i) u.signal(kEvent, 35);
  // 350 counted events, boundaries every 100 starting at the first arm.
  ASSERT_EQ(fired_at.size(), 3u);
  EXPECT_EQ(u.threshold_interrupts(), 3u);
  EXPECT_GE(fired_at[0], 100u);
  EXPECT_GE(fired_at[1], fired_at[0] + 100);
  EXPECT_GE(fired_at[2], fired_at[1] + 100);
}

TEST(UpcThreshold, RaisingTheThresholdWhileArmedDefersTheInterrupt) {
  UpcUnit u = armed_unit(100);
  u.signal(kEvent, 50);
  // Move the boundary out before it is reached: nothing fires at the old one.
  u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                 300);
  u.signal(kEvent, 100);  // would have crossed 100; must stay silent
  EXPECT_EQ(u.threshold_interrupts(), 0u);
  u.signal(kEvent, 150);  // crosses the rewritten boundary
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, LoweringTheThresholdBelowTheCountFiresImmediately) {
  UpcUnit u = armed_unit(1'000'000);
  u.signal(kEvent, 500);
  EXPECT_EQ(u.threshold_interrupts(), 0u);
  // The count already passed the new boundary: the write itself must raise
  // the interrupt (the crossing would otherwise be lost forever).
  u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                 200);
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, RewritingAnAlreadyObservedThresholdDoesNotRefire) {
  UpcUnit u = armed_unit(100);
  u.signal(kEvent, 150);
  ASSERT_EQ(u.threshold_interrupts(), 1u);
  // Writing the same registers again (config sweep, debugger poke) must not
  // repeat a crossing that was already delivered.
  u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                 100);
  CounterConfig cfg = u.config(kCounter);
  u.configure(kCounter, cfg);
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, WrapAcrossTheThresholdStillRaisesTheInterrupt) {
  UpcUnit u = armed_unit(200);
  u.set_counter_width(kCounter, 8);  // wraps at 256
  u.write(kCounter, 180);
  // One increment carries the counter across the threshold AND past the
  // wrap point; the stored value ends up tiny but the crossing happened.
  u.signal(kEvent, 100);
  EXPECT_EQ(u.read(kCounter), (180u + 100u) % 256u);
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, WrapStartingAboveTheThresholdDoesNotRefire) {
  UpcUnit u = armed_unit(200);
  u.set_counter_width(kCounter, 8);
  u.write(kCounter, 250);  // already past the threshold
  u.signal(kEvent, 50);    // wraps to 44 — below the threshold again
  EXPECT_EQ(u.read(kCounter), 44u);
  // The wrap must not be mistaken for a fresh approach to the boundary.
  EXPECT_EQ(u.threshold_interrupts(), 0u);
  // ...but a genuine second crossing after the wrap does fire.
  u.signal(kEvent, 200);
  EXPECT_EQ(u.threshold_interrupts(), 1u);
}

TEST(UpcThreshold, ListenersFireInRegistrationOrderAndPersist) {
  UpcUnit u = armed_unit(10);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    u.add_threshold_listener([&order, i](u8, u64) { order.push_back(i); });
  }
  u.signal(kEvent, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Re-arm and cross again: every listener is still subscribed.
  u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                 20);
  u.signal(kEvent, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(UpcThreshold, ListenerRegisteredMidDeliveryIsSkippedForThatInterrupt) {
  UpcUnit u = armed_unit(10);
  int late_calls = 0;
  u.add_threshold_listener([&](u8, u64) {
    u.add_threshold_listener([&](u8, u64) { ++late_calls; });
  });
  u.signal(kEvent, 10);
  EXPECT_EQ(late_calls, 0);  // not called for the interrupt that added it
  // Re-arm and cross again: now the late listener participates.
  u.mmio_write64(u.mmio_base() + UpcUnit::kThresholdOffset + 8ull * kCounter,
                 20);
  u.signal(kEvent, 10);
  EXPECT_EQ(late_calls, 1);
}

TEST(UpcThreshold, DisabledCounterOrInterruptStaysSilent) {
  UpcUnit u;
  u.start();
  CounterConfig cfg;
  cfg.interrupt_enable = false;
  cfg.threshold = 10;
  u.configure(kCounter, cfg);
  u.signal(kEvent, 100);
  EXPECT_EQ(u.threshold_interrupts(), 0u);  // interrupts off

  cfg.interrupt_enable = true;
  cfg.enabled = false;
  u.write(kCounter, 0);
  u.configure(kCounter, cfg);
  u.signal(kEvent, 100);
  EXPECT_EQ(u.read(kCounter), 0u);  // disabled counters do not count
  EXPECT_EQ(u.threshold_interrupts(), 0u);
}

}  // namespace
}  // namespace bgp::upc
