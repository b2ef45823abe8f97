// The threshold-driven sampler (tracing tentpole): interrupt pacing on the
// cycle counter, coalescing of multi-boundary increments, the Time-Base
// polled fallback for modes without a cycle counter, and the modeled
// per-sample overhead hand-off to the runtime.
#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/sampler.hpp"

namespace bgp::trace {
namespace {

constexpr isa::EventId kCycle = isa::ev::cycle_count(0);
constexpr isa::EventId kFma = isa::ev::fpu_op(0, isa::FpOp::kFma);
constexpr cycles_t kInterval = 1'000;

SamplerConfig config_for(std::vector<isa::EventId> events) {
  SamplerConfig cfg;
  cfg.interval_cycles = kInterval;
  cfg.events = std::move(events);
  return cfg;
}

TEST(Sampler, RejectsDegenerateConfigs) {
  sys::Node node(0);
  TraceBuffer buf(16);
  SamplerConfig no_events = config_for({});
  EXPECT_THROW(Sampler(node, no_events, buf), std::invalid_argument);
  SamplerConfig zero = config_for({kCycle});
  zero.interval_cycles = 0;
  EXPECT_THROW(Sampler(node, zero, buf), std::invalid_argument);
}

TEST(Sampler, InterruptDrivenSamplesAtEachBoundary) {
  sys::Node node(0);  // mode 0: the cycle counter is in the programmed set
  node.upc().start();
  TraceBuffer buf(16);
  Sampler s(node, config_for({kCycle, kFma}), buf);
  s.arm();
  ASSERT_TRUE(s.armed());
  ASSERT_TRUE(s.interrupt_driven());

  node.upc().signal(kFma, 10);
  node.upc().signal(kCycle, 999);
  EXPECT_TRUE(buf.empty());  // boundary not reached yet

  node.upc().signal(kFma, 5);
  node.upc().signal(kCycle, 501);  // crosses 1000: the interrupt samples
  ASSERT_EQ(buf.size(), 1u);
  const IntervalRecord& r = buf.front();
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.spanned, 1u);
  EXPECT_EQ(r.t_begin, 0u);
  EXPECT_EQ(r.t_end, kInterval);
  // Deltas cover everything counted up to the interrupt, including the
  // tail of the increment that crossed the boundary.
  EXPECT_EQ(r.values[0], 1500u);
  EXPECT_EQ(r.values[1], 15u);
  EXPECT_EQ(s.samples(), 1u);
  EXPECT_EQ(s.intervals_closed(), 1u);
}

TEST(Sampler, OneLongIncrementCoalescesIntoASpannedRecord) {
  sys::Node node(0);
  node.upc().start();
  TraceBuffer buf(16);
  Sampler s(node, config_for({kCycle, kFma}), buf);
  s.arm();

  node.upc().signal(kFma, 100);
  node.upc().signal(kCycle, 5'300);  // one bundle crosses five boundaries
  ASSERT_EQ(buf.size(), 1u);  // ONE interrupt, ONE coalesced record
  const IntervalRecord& r = buf.front();
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.spanned, 5u);
  EXPECT_EQ(r.t_begin, 0u);
  EXPECT_EQ(r.t_end, 5 * kInterval);
  EXPECT_EQ(r.values[0], 5'300u);
  EXPECT_EQ(r.values[1], 100u);
  EXPECT_EQ(s.samples(), 1u);
  EXPECT_EQ(s.intervals_closed(), 5u);

  // The threshold re-armed at the NEXT boundary, not the missed ones: the
  // next crossing yields index 5.
  node.upc().signal(kCycle, 700);  // 6000: crosses the re-armed threshold
  ASSERT_EQ(buf.size(), 2u);
  buf.pop_front();
  EXPECT_EQ(buf.front().index, 5u);
  EXPECT_EQ(buf.front().spanned, 1u);
}

TEST(Sampler, TimebasePolledFallbackForModesWithoutACycleCounter) {
  sys::Node node(0);
  node.upc().set_mode(1);  // memory events: no per-core cycle counter
  node.upc().start();
  TraceBuffer buf(16);
  constexpr isa::EventId kL3 = isa::ev::l3(isa::L3Event::kReadAccess);
  Sampler s(node, config_for({kL3}), buf);
  s.arm();
  ASSERT_FALSE(s.interrupt_driven());

  node.upc().signal(kL3, 40);
  EXPECT_EQ(s.poll(), 0u);  // Time Base has not moved: nothing due

  node.core(0).advance(2'500);  // Time Base = max core clock
  node.upc().signal(kL3, 2);
  ASSERT_EQ(s.poll(), 1u);
  ASSERT_EQ(buf.size(), 1u);
  const IntervalRecord& r = buf.front();
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.spanned, 2u);  // polling late coalesces, same as interrupts
  EXPECT_EQ(r.values[0], 42u);
}

TEST(Sampler, PollIsIdleWhileTheUnitIsStopped) {
  sys::Node node(0);
  node.upc().set_mode(1);
  TraceBuffer buf(16);
  Sampler s(node, config_for({isa::ev::l3(isa::L3Event::kReadAccess)}), buf);
  s.arm();
  node.core(0).advance(5'000);
  EXPECT_EQ(s.poll(), 0u);  // counters are not running: nothing to sample
  EXPECT_TRUE(buf.empty());
}

TEST(Sampler, DisarmTakesAFinalSampleAndDropsThePartialTail) {
  sys::Node node(0);
  node.upc().start();
  TraceBuffer buf(16);
  Sampler s(node, config_for({kCycle}), buf);
  s.arm();
  node.upc().signal(kCycle, 2'400);  // 2 boundaries + a 400-cycle tail
  ASSERT_EQ(buf.size(), 1u);
  s.disarm();
  EXPECT_FALSE(s.armed());
  // The tail past the last boundary is discarded, not emitted as a record.
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(s.intervals_closed(), 2u);
  // Disarm also disarms the hardware threshold: further counting is silent.
  node.upc().signal(kCycle, 10'000);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Sampler, ArmIsIdempotentAndOverheadIsHandedOffOnce) {
  sys::Node node(0);
  node.upc().start();
  TraceBuffer buf(16);
  Sampler s(node, config_for({kCycle}), buf);
  s.arm();
  s.arm();  // no double listener, no baseline reset

  node.upc().signal(kCycle, 1'000);
  EXPECT_EQ(s.samples(), 1u);
  EXPECT_EQ(s.overhead_cycles(), 64u);
  EXPECT_EQ(s.take_pending_overhead(), 64u);
  EXPECT_EQ(s.take_pending_overhead(), 0u);  // drained

  node.upc().signal(kCycle, 2'000);
  EXPECT_EQ(s.samples(), 2u);
  EXPECT_EQ(s.overhead_cycles(), 128u);  // lifetime total keeps growing
  EXPECT_EQ(s.take_pending_overhead(), 64u);
}

}  // namespace
}  // namespace bgp::trace
