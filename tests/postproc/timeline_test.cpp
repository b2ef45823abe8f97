// Timeline mining over synthetic traces: the streaming merge (including
// the span-consumption cursor a coalesced record must not livelock),
// span proration, phase change-point detection, coverage/degraded-mode
// annotations and the CSV renderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "postproc/timeline.hpp"
#include "trace/tracer.hpp"

namespace bgp::post {
namespace {

namespace fs = std::filesystem;

constexpr cycles_t kInterval = 4'000;
constexpr isa::EventId kFma = isa::ev::fpu_op(0, isa::FpOp::kFma);
constexpr isa::EventId kInstr = isa::ev::instr_completed(0);

trace::TraceMeta meta_for(unsigned node, cycles_t interval = kInterval) {
  trace::TraceMeta m;
  m.node_id = node;
  m.card_id = node / 2;
  m.counter_mode = 0;
  m.app_name = "tl";
  m.interval_cycles = interval;
  m.pacer_event = isa::ev::cycle_count(0);
  m.events = {kFma, kInstr};
  return m;
}

trace::IntervalRecord rec(u64 index, u32 spanned, u64 fma, u64 instr) {
  trace::IntervalRecord r;
  r.index = index;
  r.spanned = spanned;
  r.t_begin = index * kInterval;
  r.t_end = (index + spanned) * kInterval;
  r.values = {fma, instr};
  return r;
}

/// Write a trace through the record codec alone, past the writer's checks:
/// the header, one sealed chunk per entry of `chunks`, then a footer. The
/// checksums are all valid.
void craft_trace(const fs::path& path, unsigned node, cycles_t interval,
                 const std::vector<std::vector<trace::IntervalRecord>>& chunks) {
  const trace::TraceMeta m = meta_for(node, interval);
  BinaryWriter w;
  w.put<u32>(trace::kTraceMagic);
  w.put<u32>(trace::kTraceVersion);
  w.begin_section();
  w.put<u32>(m.node_id);
  w.put<u32>(m.card_id);
  w.put<u32>(m.counter_mode);
  w.put_string(m.app_name);
  w.put<u64>(m.interval_cycles);
  w.put<u32>(m.pacer_event);
  w.put<u32>(static_cast<u32>(m.events.size()));
  w.put_array(std::span(m.events));
  w.seal();
  for (const auto& chunk : chunks) {
    w.put<u32>(static_cast<u32>(chunk.size()));
    for (const trace::IntervalRecord& r : chunk) {
      w.put<u64>(r.index);
      w.put<u32>(r.spanned);
      w.put<u64>(r.t_begin);
      w.put<u64>(r.t_end);
      w.put_array(std::span(r.values));
    }
    w.seal();
  }
  w.put<u32>(0);  // footer: the sentinel, then four zero totals
  for (int i = 0; i < 4; ++i) w.put<u64>(0);
  w.seal();
  w.write_file(path);
}

void expect_finite(const TimelineReport& rep) {
  for (const IntervalMetrics& m : rep.intervals) {
    for (const double v : {m.flops, m.instructions, m.mflops, m.ddr_read_mbs,
                           m.ddr_write_mbs, m.fp_fraction, m.ls_fraction,
                           m.simd_fraction}) {
      EXPECT_TRUE(std::isfinite(v)) << "interval " << m.index;
    }
  }
  for (const PhaseRecord& p : rep.phases) {
    for (const double v : {p.mflops, p.ddr_read_mbs, p.ddr_write_mbs,
                           p.fp_fraction, p.ls_fraction, p.simd_fraction}) {
      EXPECT_TRUE(std::isfinite(v)) << "phase " << p.id;
    }
  }
}

class Timeline : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs fixture tests concurrently.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("bgpc_timeline_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path base(unsigned node) const {
    return dir_ / strfmt("tl.node%04u", node);
  }

  /// Write one node's trace; seal == false leaves a dead-node .partial.
  void write_trace(unsigned node,
                   const std::vector<trace::IntervalRecord>& records,
                   bool seal = true, cycles_t interval = kInterval) {
    trace::TraceWriter w(base(node), meta_for(node, interval));
    for (const auto& r : records) w.append(r);
    if (seal) {
      trace::TraceTotals t;
      t.intervals = records.size();
      t.samples = records.size();
      t.overhead_cycles = records.size() * 64;
      w.finalize(t);
    }
  }

  fs::path dir_;
};

// Regression: a record spanning several intervals must advance the merge
// cursor through its span. An earlier version pinned the global minimum at
// the record's first index forever — any multi-span trace hung the miner.
TEST_F(Timeline, CoalescedRecordTerminatesAndProrates) {
  write_trace(0, {rec(0, 4, 400, 800)});
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.intervals.size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    const IntervalMetrics& m = rep.intervals[i];
    EXPECT_EQ(m.index, i);
    EXPECT_EQ(m.nodes, 1u);
    // 400 FMAs over 4 intervals → 100 per interval → 200 flops each.
    EXPECT_DOUBLE_EQ(m.flops, 200.0);
    EXPECT_DOUBLE_EQ(m.instructions, 200.0);
    EXPECT_DOUBLE_EQ(m.fp_fraction, 0.5);
    EXPECT_GT(m.mflops, 0.0);
  }
}

TEST_F(Timeline, MergesNodesWithDifferentRecordGranularity) {
  // Node 0 sampled every boundary; node 1 coalesced the same range into
  // one spanned record. Each interval must see BOTH nodes, with node 1's
  // deltas prorated to match.
  write_trace(0, {rec(0, 1, 100, 200), rec(1, 1, 100, 200),
                  rec(2, 1, 100, 200)});
  write_trace(1, {rec(0, 3, 300, 600)});
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.intervals.size(), 3u);
  for (const IntervalMetrics& m : rep.intervals) {
    EXPECT_EQ(m.nodes, 2u);
    EXPECT_DOUBLE_EQ(m.flops, 400.0);  // (100 + 100) FMAs × 2 flops
    EXPECT_DOUBLE_EQ(m.instructions, 400.0);
  }
}

TEST_F(Timeline, SparseTracesLeaveGapsNotLivelocks) {
  // A trace whose records skip indexes (idle node between bursts).
  write_trace(0, {rec(0, 1, 100, 200), rec(5, 1, 100, 200)});
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.intervals.size(), 2u);
  EXPECT_EQ(rep.intervals[0].index, 0u);
  EXPECT_EQ(rep.intervals[1].index, 5u);
}

TEST_F(Timeline, DetectsAPhaseChange) {
  // 6 hot intervals then 6 cold ones: one clean change point.
  std::vector<trace::IntervalRecord> rs;
  for (u64 i = 0; i < 6; ++i) rs.push_back(rec(i, 1, 900, 1'000));
  for (u64 i = 6; i < 12; ++i) rs.push_back(rec(i, 1, 10, 1'000));
  write_trace(0, rs);
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.phases.size(), 2u);
  EXPECT_EQ(rep.phases[0].first_interval, 0u);
  EXPECT_EQ(rep.phases[0].last_interval, 5u);
  EXPECT_EQ(rep.phases[1].first_interval, 6u);
  EXPECT_EQ(rep.phases[1].last_interval, 11u);
  EXPECT_GT(rep.phases[0].mflops, rep.phases[1].mflops);
  EXPECT_NEAR(rep.phases[0].fp_fraction, 0.9, 1e-9);
  EXPECT_NEAR(rep.phases[1].fp_fraction, 0.01, 1e-9);
}

TEST_F(Timeline, SingleIntervalSpikeIsFoldedIntoThePhase) {
  // A one-interval excursion shorter than min_phase_intervals must not
  // fragment the timeline, even though its distance from the running mean
  // is well above the change threshold when it happens.
  std::vector<trace::IntervalRecord> rs;
  for (u64 i = 0; i < 8; ++i) {
    rs.push_back(i == 2 ? rec(i, 1, 450, 1'000) : rec(i, 1, 900, 1'000));
  }
  write_trace(0, rs);
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.phases.size(), 1u);
}

TEST_F(Timeline, TruncatedPartialFromADeadNodeIsAnnotated) {
  write_trace(0, {rec(0, 1, 100, 200), rec(1, 1, 100, 200)});
  write_trace(1, {rec(0, 1, 100, 200)}, /*seal=*/false);
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.coverage.loaded, 2u);
  EXPECT_EQ(rep.coverage.mined, 2u);
  ASSERT_EQ(rep.truncated_nodes.size(), 1u);
  EXPECT_EQ(rep.truncated_nodes[0], 1u);
  // Footer-derived totals come only from the sealed trace.
  EXPECT_EQ(rep.overhead_cycles, 2u * 64u);
  // Excluding partials drops the dead node entirely.
  TimelineOptions no_partial;
  no_partial.include_partial = false;
  const TimelineReport strict = mine_timeline(dir_, "tl", no_partial);
  EXPECT_EQ(strict.coverage.loaded, 1u);
  EXPECT_TRUE(strict.truncated_nodes.empty());
}

TEST_F(Timeline, ExpectedNodesDrivesCoverage) {
  write_trace(0, {rec(0, 1, 100, 200)});
  write_trace(1, {rec(0, 1, 100, 200)});
  TimelineOptions opts;
  opts.expected_nodes = 4;
  const TimelineReport rep = mine_timeline(dir_, "tl", opts);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.coverage.expected, 4u);
  EXPECT_EQ(rep.coverage.loaded, 2u);
  // Without an explicit expectation it is inferred from the node ids seen.
  const TimelineReport inferred = mine_timeline(dir_, "tl");
  EXPECT_EQ(inferred.coverage.expected, 2u);
}

TEST_F(Timeline, GeometryMismatchSkipsTheOddTraceOut) {
  write_trace(0, {rec(0, 1, 100, 200)});
  trace::IntervalRecord odd = rec(0, 1, 100, 200);
  odd.t_end = 8'000;  // one interval on node 1's own grid
  write_trace(1, {odd}, /*seal=*/true, /*interval=*/8'000);
  const TimelineReport rep = mine_timeline(dir_, "tl");
  EXPECT_TRUE(rep.ok);  // the batch survives without the misfit
  EXPECT_EQ(rep.coverage.loaded, 1u);
  ASSERT_EQ(rep.problems.size(), 1u);
  EXPECT_NE(rep.problems[0].find("interval geometry mismatch"),
            std::string::npos);
}

TEST_F(Timeline, UnreadableTraceIsReportedNotFatal) {
  write_trace(0, {rec(0, 1, 100, 200)});
  std::ofstream(dir_ / "tl.node0001.bgpt") << "garbage";
  const TimelineReport rep = mine_timeline(dir_, "tl");
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.coverage.loaded, 1u);
  ASSERT_EQ(rep.problems.size(), 1u);
}

TEST_F(Timeline, EmptyDirectoryIsNotOk) {
  const TimelineReport rep = mine_timeline(dir_, "tl");
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.intervals.empty());
}

TEST_F(Timeline, ListTraceFilesFiltersByAppAndPartial) {
  write_trace(0, {rec(0, 1, 1, 2)});
  write_trace(1, {rec(0, 1, 1, 2)}, /*seal=*/false);
  std::ofstream(dir_ / "other.node0000.bgpt") << "x";
  std::ofstream(dir_ / "unrelated.txt") << "x";
  EXPECT_EQ(list_trace_files(dir_, "tl").size(), 2u);
  EXPECT_EQ(list_trace_files(dir_, "tl", /*include_partial=*/false).size(),
            1u);
  EXPECT_EQ(list_trace_files(dir_, "").size(), 3u);  // any app, any state
  EXPECT_THROW(list_trace_files(dir_ / "missing", "tl"), BinIoError);
}

TEST_F(Timeline, CsvAndRenderCarryTheTimeline) {
  write_trace(0, {rec(0, 1, 100, 200), rec(1, 1, 100, 200),
                  rec(2, 1, 100, 200), rec(3, 1, 100, 200)});
  const TimelineReport rep = mine_timeline(dir_, "tl");
  ASSERT_TRUE(rep.ok);
  const std::string iv = interval_csv(rep);
  EXPECT_NE(iv.find("interval,t_begin_cycles"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(iv.begin(), iv.end(), '\n')),
            1 + rep.intervals.size());
  const std::string ph = phase_csv(rep);
  EXPECT_NE(ph.find("phase,first_interval"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(ph.begin(), ph.end(), '\n')),
            1 + rep.phases.size());
  const std::string text = render_timeline(rep);
  EXPECT_NE(text.find("coverage:"), std::string::npos);
  EXPECT_NE(text.find("phase  0"), std::string::npos);
}

// A record that spans no interval, a record whose span disagrees with its
// cycle stamps, or a header whose interval is zero, has valid checksums but
// no meaning: the reader rejects all three, so the miner reports a problem
// instead of dividing by zero or emitting an interval for every index the
// record claims.
TEST_F(Timeline, ZeroSpanOrZeroIntervalIsAProblemNotANaN) {
  // Node 0's second chunk holds a zero-span record; node 1 is sound.
  craft_trace(dir_ / "zs.node0000.bgpt", 0, kInterval,
              {{rec(0, 1, 100, 200)}, {rec(1, 0, 100, 200)}});
  {
    trace::TraceWriter w(dir_ / "zs.node0001", meta_for(1));
    w.append(rec(0, 1, 100, 200));
    w.append(rec(1, 1, 100, 200));
    w.finalize({});
  }
  trace::TraceReader r(dir_ / "zs.node0000.bgpt");
  ASSERT_TRUE(r.next().has_value());
  EXPECT_THROW((void)r.next(), BinIoError);

  const TimelineReport zs = mine_timeline(dir_, "zs");
  expect_finite(zs);
  ASSERT_EQ(zs.problems.size(), 1u);
  EXPECT_NE(zs.problems[0].find("spans no interval"), std::string::npos)
      << zs.problems[0];
  ASSERT_EQ(zs.intervals.size(), 2u);
  EXPECT_EQ(zs.intervals[0].nodes, 2u);  // node 0's sound first chunk
  EXPECT_EQ(zs.intervals[1].nodes, 1u);
  EXPECT_DOUBLE_EQ(zs.intervals[1].flops, 200.0);

  // A zero interval in the first trace would otherwise set the batch's
  // geometry and push every sound trace out as a mismatch.
  craft_trace(dir_ / "zi.node0000.bgpt", 0, 0, {{rec(0, 1, 100, 200)}});
  {
    trace::TraceWriter w(dir_ / "zi.node0001", meta_for(1));
    w.append(rec(0, 1, 100, 200));
    w.finalize({});
  }
  EXPECT_THROW(trace::TraceReader{dir_ / "zi.node0000.bgpt"}, BinIoError);
  const TimelineReport zi = mine_timeline(dir_, "zi");
  expect_finite(zi);
  EXPECT_TRUE(zi.ok);
  EXPECT_EQ(zi.interval_cycles, kInterval);
  EXPECT_EQ(zi.coverage.loaded, 1u);
  ASSERT_EQ(zi.problems.size(), 1u);
  EXPECT_NE(zi.problems[0].find("zero interval"), std::string::npos)
      << zi.problems[0];
  ASSERT_EQ(zi.intervals.size(), 1u);
  EXPECT_GT(zi.intervals[0].mflops, 0.0);

  // One record claiming 2,000,000 intervals over one interval's cycles.
  trace::IntervalRecord wide = rec(0, 1, 100, 200);
  wide.spanned = 2'000'000;
  craft_trace(dir_ / "ws.node0000.bgpt", 0, kInterval, {{wide}});
  {
    trace::TraceWriter w(dir_ / "ws.node0001", meta_for(1));
    w.append(rec(0, 1, 100, 200));
    w.finalize({});
  }
  trace::TraceReader wr(dir_ / "ws.node0000.bgpt");
  EXPECT_THROW((void)wr.next(), BinIoError);
  const TimelineReport ws = mine_timeline(dir_, "ws");
  expect_finite(ws);
  EXPECT_TRUE(ws.ok);
  ASSERT_EQ(ws.problems.size(), 1u);
  EXPECT_NE(ws.problems[0].find("claims 2000000 interval(s)"),
            std::string::npos)
      << ws.problems[0];
  ASSERT_EQ(ws.intervals.size(), 1u);
  EXPECT_EQ(ws.intervals[0].nodes, 1u);
}

/// Counts for the closed-form weight check: every FP class 10 and every
/// load/store class 5 on each core, 1,000 completed instructions per core,
/// 3 read and 2 written 16-byte units per DDR controller, and 7 for every
/// other event, which must weigh nothing.
u64 known_count(isa::EventId e) {
  for (unsigned core = 0; core < isa::kCoresPerNode; ++core) {
    for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
      if (e == isa::ev::fpu_op(core, static_cast<isa::FpOp>(i))) return 10;
    }
    for (std::size_t i = 0; i < isa::kNumLsOps; ++i) {
      if (e == isa::ev::ls_op(core, static_cast<isa::LsOp>(i))) return 5;
    }
    if (e == isa::ev::instr_completed(core)) return 1'000;
  }
  for (unsigned ctrl = 0; ctrl < isa::kNumDdrControllers; ++ctrl) {
    if (e == isa::ev::ddr(ctrl, isa::DdrEvent::kBytesRead16B)) return 3;
    if (e == isa::ev::ddr(ctrl, isa::DdrEvent::kBytesWritten16B)) return 2;
  }
  return 7;
}

// One record of known counts for every preset in every counter mode, over
// one 8,500-cycle interval (10 us at 850 MHz), mined to closed-form values.
// Mode 0 watches all four cores' FP classes in every preset: per core
// 10 x (1+1+1+2 + 2+2+2+4) = 150 flops from 80 FP instructions, 40 of them
// SIMD, out of 1,000 instructions; all presets but `fp` add the 6
// load/store classes, 30 instructions per core. Mode 1 watches both DDR
// controllers: 2 x 3 x 16 = 96 bytes read and 2 x 2 x 16 = 64 written.
// Modes 2 and 3 watch nothing the timeline weighs.
TEST_F(Timeline, WeightsFollowTheEventMapForEveryPresetAndMode) {
  constexpr cycles_t kTenMicroseconds = 8'500;
  for (const std::string& preset : trace::trace_preset_names()) {
    for (u8 mode = 0; mode < isa::kNumCounterModes; ++mode) {
      SCOPED_TRACE(preset + " mode " + std::to_string(mode));
      trace::TraceMeta meta = meta_for(0, kTenMicroseconds);
      meta.counter_mode = mode;
      meta.events = trace::preset_trace_events(preset, mode);
      trace::IntervalRecord r;
      r.t_end = kTenMicroseconds;
      for (const isa::EventId e : meta.events) {
        r.values.push_back(known_count(e));
      }
      const fs::path base =
          dir_ / strfmt("w%s%u.node0000", preset.c_str(), unsigned{mode});
      {
        trace::TraceWriter w(base, meta);
        w.append(r);
        w.finalize({});
      }
      const TimelineReport rep =
          mine_timeline({fs::path(base.string() + trace::kTraceSuffix)});
      ASSERT_TRUE(rep.ok);
      ASSERT_EQ(rep.intervals.size(), 1u);
      const IntervalMetrics& m = rep.intervals[0];
      const bool cores = mode == 0;
      const bool ls = cores && preset != "fp";
      EXPECT_NEAR(m.flops, cores ? 600.0 : 0.0, 1e-9);
      EXPECT_NEAR(m.instructions, cores ? 4'000.0 : 0.0, 1e-9);
      EXPECT_NEAR(m.mflops, cores ? 60.0 : 0.0, 1e-9);
      EXPECT_NEAR(m.fp_fraction, cores ? 0.08 : 0.0, 1e-12);
      EXPECT_NEAR(m.simd_fraction, cores ? 0.5 : 0.0, 1e-12);
      EXPECT_NEAR(m.ls_fraction, ls ? 0.03 : 0.0, 1e-12);
      EXPECT_NEAR(m.ddr_read_mbs, mode == 1 ? 9.6 : 0.0, 1e-9);
      EXPECT_NEAR(m.ddr_write_mbs, mode == 1 ? 6.4 : 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace bgp::post
