// trace::NodeTracer on the node's pacer: interrupt pacing on the cycle
// counter, coalescing of multi-boundary increments, the Time-Base polled
// fallback for modes without a cycle counter, the modeled per-sample
// overhead handed to the runtime at the next pulse, and records reaching
// the trace file without waiting for a pulse.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "trace/tracer.hpp"

namespace bgp::trace {
namespace {

namespace fs = std::filesystem;

constexpr isa::EventId kCycle = isa::ev::cycle_count(0);
constexpr u8 kCycleCounter = isa::event_counter(kCycle);
constexpr isa::EventId kFma = isa::ev::fpu_op(0, isa::FpOp::kFma);
constexpr isa::EventId kL3 = isa::ev::l3(isa::L3Event::kReadAccess);
constexpr cycles_t kInterval = 1'000;

/// A scratch directory per test (ctest -j runs tests concurrently).
struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() / (std::string("bgpc_tracer_") +
                                        info->test_suite_name() + "_" +
                                        info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TraceConfig config_in(const fs::path& dir) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.interval_cycles = kInterval;
  cfg.trace_dir = dir;
  return cfg;
}

/// Position of `event` in the tracer's watched list (its record slot).
std::size_t slot(const NodeTracer& t, isa::EventId event) {
  const std::vector<isa::EventId>& events = t.writer().meta().events;
  const auto it = std::find(events.begin(), events.end(), event);
  EXPECT_NE(it, events.end()) << "event " << event << " is not traced";
  return static_cast<std::size_t>(it - events.begin());
}

std::vector<IntervalRecord> read_all(const fs::path& path) {
  TraceReader r(path);
  std::vector<IntervalRecord> out;
  while (auto rec = r.next()) out.push_back(std::move(*rec));
  return out;
}

TEST(Sampler, RejectsDegenerateConfigs) {
  TempDir dir;
  sys::Node node(0);
  TraceConfig zero = config_in(dir.path);
  zero.interval_cycles = 0;
  EXPECT_THROW(NodeTracer(node, zero, "t", 0), BinIoError);
  TraceConfig unknown = config_in(dir.path);
  unknown.preset = "nope";
  EXPECT_THROW(NodeTracer(node, unknown, "t", 0), std::invalid_argument);
  EXPECT_THROW(NodeTracer(node, config_in(dir.path), "t",
                          static_cast<u8>(isa::kNumCounterModes)),
               std::invalid_argument);
  // Rejected before a trace file is created.
  EXPECT_TRUE(fs::is_empty(dir.path));
}

TEST(Sampler, InterruptDrivenSamplesAtEachBoundary) {
  TempDir dir;
  sys::Node node(0);
  node.upc().start();
  // Mode 0: the core-0 cycle counter is in the programmed set.
  NodeTracer t(node, config_in(dir.path), "t", 0);
  ASSERT_EQ(t.writer().meta().pacer_event, kCycle);
  node.pacer().start();

  node.upc().signal(kFma, 10);
  node.upc().signal(kCycle, 999);
  EXPECT_EQ(t.samples(), 0u);  // boundary not reached yet

  node.upc().signal(kFma, 5);
  node.upc().signal(kCycle, 501);  // crosses 1000: the interrupt samples
  EXPECT_EQ(t.samples(), 1u);

  const std::vector<IntervalRecord> recs = read_all(t.seal());
  ASSERT_EQ(recs.size(), 1u);
  const IntervalRecord& r = recs[0];
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.spanned, 1u);
  EXPECT_EQ(r.t_begin, 0u);
  EXPECT_EQ(r.t_end, kInterval);
  // Deltas cover everything counted up to the interrupt, including the
  // tail of the increment that crossed the boundary.
  EXPECT_EQ(r.values[slot(t, kCycle)], 1500u);
  EXPECT_EQ(r.values[slot(t, kFma)], 15u);
}

TEST(Sampler, OneLongIncrementCoalescesIntoASpannedRecord) {
  TempDir dir;
  sys::Node node(0);
  node.upc().start();
  NodeTracer t(node, config_in(dir.path), "t", 0);
  node.pacer().start();

  node.upc().signal(kFma, 100);
  node.upc().signal(kCycle, 5'300);  // one bundle crosses five boundaries
  EXPECT_EQ(t.samples(), 1u);        // ONE interrupt, ONE coalesced record

  // The threshold re-armed at the NEXT boundary, not the missed ones: the
  // next crossing yields index 5.
  node.upc().signal(kCycle, 700);  // 6000: crosses the re-armed threshold
  EXPECT_EQ(t.samples(), 2u);

  const std::vector<IntervalRecord> recs = read_all(t.seal());
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].index, 0u);
  EXPECT_EQ(recs[0].spanned, 5u);
  EXPECT_EQ(recs[0].t_begin, 0u);
  EXPECT_EQ(recs[0].t_end, 5 * kInterval);
  EXPECT_EQ(recs[0].values[slot(t, kCycle)], 5'300u);
  EXPECT_EQ(recs[0].values[slot(t, kFma)], 100u);
  EXPECT_EQ(recs[1].index, 5u);
  EXPECT_EQ(recs[1].spanned, 1u);
}

TEST(Sampler, TimebasePolledFallbackForModesWithoutACycleCounter) {
  TempDir dir;
  sys::Node node(0);
  node.upc().set_mode(1);  // memory events: no per-core cycle counter
  node.upc().start();
  NodeTracer t(node, config_in(dir.path), "t", 1);
  ASSERT_EQ(t.writer().meta().pacer_event, kPacerTimebase);
  node.pacer().start();
  EXPECT_FALSE(node.upc().config(kCycleCounter).interrupt_enable);

  node.upc().signal(kL3, 40);
  EXPECT_EQ(node.pacer().pulse(), 0u);  // Time Base has not moved: nothing due

  node.core(0).advance(2'500);  // Time Base = max core clock
  node.upc().signal(kL3, 2);
  EXPECT_EQ(node.pacer().pulse(), 64u);  // one sample's bill
  EXPECT_EQ(t.samples(), 1u);

  const std::vector<IntervalRecord> recs = read_all(t.seal());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].index, 0u);
  EXPECT_EQ(recs[0].spanned, 2u);  // polling late coalesces, as interrupts do
  EXPECT_EQ(recs[0].values[slot(t, kL3)], 42u);
}

TEST(Sampler, PollIsIdleWhileTheUnitIsStopped) {
  TempDir dir;
  sys::Node node(0);
  node.upc().set_mode(1);
  NodeTracer t(node, config_in(dir.path), "t", 1);
  node.pacer().start();
  node.core(0).advance(5'000);
  // The counters are not running: nothing to sample.
  EXPECT_EQ(node.pacer().pulse(), 0u);
  EXPECT_EQ(t.samples(), 0u);
  EXPECT_TRUE(read_all(t.seal()).empty());
}

TEST(Sampler, DisarmTakesAFinalSampleAndDropsThePartialTail) {
  TempDir dir;
  sys::Node node(0);
  node.upc().start();
  NodeTracer t(node, config_in(dir.path), "t", 0);
  node.pacer().start();
  node.upc().signal(kCycle, 2'400);  // 2 boundaries + a 400-cycle tail
  EXPECT_EQ(t.samples(), 1u);
  const fs::path sealed = t.seal();
  EXPECT_TRUE(t.sealed());
  // The tail past the last boundary is discarded, not emitted as a record.
  const std::vector<IntervalRecord> recs = read_all(sealed);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].spanned, 2u);
  EXPECT_EQ(recs[0].t_end, 2 * kInterval);
  // Sealing also disarms the hardware threshold, and a sealed tracer does
  // not re-arm: further counting is silent.
  EXPECT_FALSE(node.upc().config(kCycleCounter).interrupt_enable);
  node.pacer().start();
  node.upc().signal(kCycle, 10'000);
  EXPECT_EQ(t.samples(), 1u);
  EXPECT_EQ(t.seal(), sealed);  // idempotent

  // A Time-Base-paced tracer takes its final sample when sealed: the
  // boundary passed since the last pulse still becomes a record.
  sys::Node polled(1);
  polled.upc().set_mode(1);
  polled.upc().start();
  NodeTracer tp(polled, config_in(dir.path), "t", 1);
  polled.pacer().start();
  polled.core(0).advance(1'500);
  const std::vector<IntervalRecord> last = read_all(tp.seal());
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].spanned, 1u);
  EXPECT_EQ(last[0].t_end, kInterval);
}

TEST(Sampler, ArmIsIdempotentAndOverheadIsHandedOffOnce) {
  TempDir dir;
  sys::Node node(0);
  node.upc().start();
  NodeTracer t(node, config_in(dir.path), "t", 0);
  node.pacer().start();
  node.pacer().start();  // no double listener, no baseline reset

  node.upc().signal(kCycle, 1'000);
  EXPECT_EQ(t.samples(), 1u);
  EXPECT_EQ(t.overhead_cycles(), 64u);
  EXPECT_EQ(node.pacer().pulse(), 64u);
  EXPECT_EQ(node.pacer().pulse(), 0u);  // handed off

  node.upc().signal(kCycle, 2'000);
  EXPECT_EQ(t.samples(), 2u);
  EXPECT_EQ(t.overhead_cycles(), 128u);  // lifetime total keeps growing
  EXPECT_EQ(node.pacer().pulse(), 64u);
}

// The writer's 64-record chunk is the only buffer between the interrupt
// and the file: without a single pulse, every full chunk is already
// committed to the .partial a dying node would leave behind.
TEST(NodeTracer, RecordsReachTheFileWithoutAPulse) {
  TempDir dir;
  sys::Node node(0);
  node.upc().start();
  NodeTracer t(node, config_in(dir.path), "t", 0);
  node.pacer().start();
  for (unsigned i = 0; i < 130; ++i) node.upc().signal(kCycle, kInterval);
  EXPECT_EQ(t.samples(), 130u);
  EXPECT_EQ(t.writer().intervals_written(), 128u);  // two chunks of 64

  TraceReader r(t.writer().partial_path());
  u64 n = 0;
  while (const auto rec = r.next()) {
    EXPECT_EQ(rec->index, n);
    EXPECT_EQ(rec->spanned, 1u);
    EXPECT_EQ(rec->values[slot(t, kCycle)], kInterval);
    ++n;
  }
  EXPECT_EQ(n, 128u);
  EXPECT_TRUE(r.truncated());  // no footer yet: the node is still running
  EXPECT_FALSE(r.sealed());
}

}  // namespace
}  // namespace bgp::trace
