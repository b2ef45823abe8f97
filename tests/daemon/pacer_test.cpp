// The node's one pacer with both of its consumers: a trace and a snapshot
// publisher share the clock, the grid origin and the pulse that bills them.
// On a cycle-counted node their boundaries come from the same threshold
// interrupts; on a Time-Base node one late pulse coalesces both. A golden
// digest pins a traced run with periodic snapshots end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "../integration/golden.hpp"
#include "daemon/publisher.hpp"
#include "nas/runner.hpp"

namespace bgp::daemon {
namespace {

namespace fs = std::filesystem;

constexpr cycles_t kBoth =
    trace::kSampleOverheadCycles + kSnapshotOverheadCycles;

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (std::string("bgpc_pacer_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

trace::TraceConfig trace_every(cycles_t interval, const fs::path& dir) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.interval_cycles = interval;
  cfg.trace_dir = dir;
  return cfg;
}

std::vector<trace::IntervalRecord> read_all(const fs::path& path) {
  trace::TraceReader r(path);
  std::vector<trace::IntervalRecord> out;
  while (auto rec = r.next()) out.push_back(std::move(*rec));
  return out;
}

/// One node, no ranks: the test drives core 0 and pulses the pacer itself.
struct OneNode {
  rt::Machine machine{[] {
    rt::MachineConfig mc;
    mc.num_nodes = 1;
    mc.mode = sys::OpMode::kSmp1;
    return mc;
  }()};
  pc::Session session{machine, [] {
                        pc::Options o;
                        o.write_dumps = false;
                        return o;
                      }()};
  sys::Node& node = machine.partition().node(0);
};

NodeSnapshot read_slot(const fs::path& snap) {
  NodeSnapshot s;
  EXPECT_TRUE(SnapshotReader::open_file(snap).read_node(0, s));
  return s;
}

// Mode 0: both consumers ride the core-0 cycle counter's threshold. Every
// third trace boundary is a snapshot boundary, and the pulse after it bills
// both consumers at once.
TEST(Pacer, TraceAndSnapshotShareTheCycleCounterBoundaries) {
  const fs::path dir = test_dir();
  OneNode n;
  PublisherConfig cfg;
  cfg.period_cycles = 30'000;
  SnapshotPublisher pub(n.session, dir / "counters.bgpsnap", "s", cfg);
  trace::NodeTracer tracer(n.node, trace_every(10'000, dir), "t", 0);
  ASSERT_EQ(tracer.writer().meta().pacer_event, sys::kPacerEvent);
  n.node.upc().start();
  n.node.pacer().start();

  for (u64 k = 1; k <= 6; ++k) {
    n.node.core(0).advance(10'000);  // the Time Base and the counter move
    EXPECT_EQ(tracer.samples(), k);
    EXPECT_EQ(pub.publishes(), k / 3);
    EXPECT_EQ(n.node.pacer().pulse(),
              k % 3 == 0 ? kBoth : trace::kSampleOverheadCycles)
        << "boundary " << k;
    EXPECT_EQ(n.node.pacer().pulse(), 0u);  // handed over once
    if (k % 3 == 0) {
      const NodeSnapshot s = read_slot(dir / "counters.bgpsnap");
      EXPECT_EQ(s.state, SnapState::kCounting);
      EXPECT_EQ(s.published_cycle, k * 10'000);  // the node Time Base
      EXPECT_EQ(s.counters[isa::event_counter(sys::kPacerEvent)],
                k * 10'000);
    }
  }
  const std::vector<trace::IntervalRecord> recs = read_all(tracer.seal());
  ASSERT_EQ(recs.size(), 6u);
  for (u64 k = 0; k < 6; ++k) {
    EXPECT_EQ(recs[k].index, k);
    EXPECT_EQ(recs[k].spanned, 1u);
    EXPECT_EQ(recs[k].t_end, (k + 1) * 10'000);
  }
  // Sealing the trace ends the node's counting: the pacer stops for both
  // consumers and disarms the threshold.
  EXPECT_FALSE(n.node.upc().config(isa::event_counter(sys::kPacerEvent))
                   .interrupt_enable);
  n.node.core(0).advance(30'000);
  EXPECT_EQ(pub.publishes(), 2u);
  EXPECT_EQ(n.node.pacer().pulse(), 0u);
  pub.publish_final();
  const NodeSnapshot last = read_slot(dir / "counters.bgpsnap");
  EXPECT_EQ(last.state, SnapState::kFinal);
  EXPECT_EQ(last.published_cycle, 90'000u);
  fs::remove_all(dir);
}

// Mode 1 has no cycle counter: the pacer polls the Time Base at a pulse,
// and one pulse past several boundaries gives each consumer one action.
TEST(Pacer, OneLateTimeBasePulseCoalescesBothConsumers) {
  const fs::path dir = test_dir();
  OneNode n;
  PublisherConfig cfg;
  cfg.period_cycles = 30'000;
  SnapshotPublisher pub(n.session, dir / "counters.bgpsnap", "s", cfg);
  n.node.upc().set_mode(1);
  trace::NodeTracer tracer(n.node, trace_every(10'000, dir), "t", 1);
  ASSERT_EQ(tracer.writer().meta().pacer_event, trace::kPacerTimebase);
  n.node.upc().start();
  n.node.pacer().start();

  n.node.core(0).advance(95'000);
  n.node.upc().signal(isa::ev::l3(isa::L3Event::kReadAccess), 7);
  EXPECT_EQ(tracer.samples(), 0u);  // nothing happens until a pulse
  EXPECT_EQ(pub.publishes(), 0u);
  EXPECT_EQ(n.node.pacer().pulse(), kBoth);
  EXPECT_EQ(tracer.samples(), 1u);
  EXPECT_EQ(pub.publishes(), 1u);
  EXPECT_EQ(read_slot(dir / "counters.bgpsnap").published_cycle, 95'000u);

  const std::vector<trace::IntervalRecord> recs = read_all(tracer.seal());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].index, 0u);
  EXPECT_EQ(recs[0].spanned, 9u);
  EXPECT_EQ(recs[0].t_end, 90'000u);
  pub.publish_final();
  fs::remove_all(dir);
}

// EP class S on two nodes, traced, with 85,000-cycle snapshots: the dumps,
// the traces, the final snapshot words and the simulated cycles.
TEST(PacerGolden, TracedRunWithPeriodicSnapshots) {
  const fs::path dir = test_dir();
  nas::RunSpec spec;
  spec.bench = nas::Benchmark::kEP;
  spec.cls = nas::ProblemClass::kS;
  spec.machine.num_nodes = 2;
  spec.trace.enabled = true;
  nas::Run run(spec, dir);
  PublisherConfig cfg;
  cfg.period_cycles = 85'000;
  SnapshotPublisher pub(run.session(), dir / "counters.bgpsnap", "golden",
                        cfg);
  ASSERT_TRUE(run.execute().ok());
  pub.publish_final();
  EXPECT_EQ(pub.publishes(), 12u);

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const fs::path ext = entry.path().extension();
    if (ext == ".bgpc" || ext == ".bgpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 4u);
  u64 h = golden::kSeed;
  for (const fs::path& f : files) {
    h = golden::add(h, f.filename().string());
    h = golden::add(h, read_file_bytes(f));
  }
  const SnapshotReader r = SnapshotReader::open_file(dir / "counters.bgpsnap");
  for (unsigned node = 0; node < r.num_nodes(); ++node) {
    NodeSnapshot s;
    ASSERT_TRUE(r.read_node(node, s));
    EXPECT_EQ(s.state, SnapState::kFinal);
    for (const u64 w : {u64{s.node_id}, u64{s.card_id}, u64{s.mode},
                        static_cast<u64>(s.state), s.published_cycle}) {
      h = golden::add(h, w);
    }
    for (const u64 c : s.counters) h = golden::add(h, c);
  }
  h = golden::add(h, run.machine().elapsed());
  EXPECT_EQ(run.machine().elapsed(), 621'388u);
  EXPECT_EQ(h, 0x7433fe6dad855f70ull) << "digest is " << golden::hex(h);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgp::daemon
