#include "core/session.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>

#include "common/binio.hpp"
#include "core/capi.hpp"

namespace bgp::pc {
namespace {

rt::MachineConfig cfg(unsigned nodes = 4,
                      sys::OpMode mode = sys::OpMode::kVnm) {
  rt::MachineConfig c;
  c.num_nodes = nodes;
  c.mode = mode;
  return c;
}

Options mem_only(const char* app = "test") {
  Options o;
  o.app_name = app;
  o.write_dumps = false;
  return o;
}

isa::LoopDesc fma_loop(u64 trip) {
  isa::LoopDesc d;
  d.name = "fma";
  d.trip = trip;
  d.body.fp_at(isa::FpOp::kFma) = 2;
  d.body.int_at(isa::IntOp::kAlu) = 1;
  return d;
}

TEST(Session, CardParityPicksCounterMode) {
  rt::Machine m(cfg(4));  // nodes_per_card = 2 -> cards 0,0,1,1
  Session s(m, mem_only());
  m.run([&](rt::RankCtx& ctx) { s.BGP_Initialize(ctx); });
  EXPECT_EQ(s.monitor(0).programmed_mode(), 0);
  EXPECT_EQ(s.monitor(1).programmed_mode(), 0);
  EXPECT_EQ(s.monitor(2).programmed_mode(), 1);
  EXPECT_EQ(s.monitor(3).programmed_mode(), 1);
}

TEST(Session, CountsOnlyBetweenStartAndStop) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  m.run([&](rt::RankCtx& ctx) {
    ctx.loop(fma_loop(100));  // before initialize: not counted
    s.BGP_Initialize(ctx);
    ctx.loop(fma_loop(100));  // before start: not counted
    s.BGP_Start(ctx);
    ctx.loop(fma_loop(1000));
    s.BGP_Stop(ctx);
    ctx.loop(fma_loop(100));  // after stop: not counted
    s.BGP_Finalize(ctx);
  });
  const auto& rec = s.monitor(0).set_record(0);
  const auto counter =
      isa::event_counter(isa::ev::fpu_op(0, isa::FpOp::kFma));
  EXPECT_EQ(rec.deltas[counter], 2000u);
  EXPECT_EQ(rec.pairs, 1u);
}

TEST(Session, MultipleSetsIsolateRegions) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    s.BGP_Start(ctx, 1);
    ctx.loop(fma_loop(500));
    s.BGP_Stop(ctx, 1);
    s.BGP_Start(ctx, 2);
    ctx.loop(fma_loop(300));
    s.BGP_Stop(ctx, 2);
    s.BGP_Finalize(ctx);
  });
  const auto counter =
      isa::event_counter(isa::ev::fpu_op(0, isa::FpOp::kFma));
  EXPECT_EQ(s.monitor(0).set_record(1).deltas[counter], 1000u);
  EXPECT_EQ(s.monitor(0).set_record(2).deltas[counter], 600u);
}

TEST(Session, RepeatedPairsAccumulate) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    for (int i = 0; i < 5; ++i) {
      s.BGP_Start(ctx, 3);
      ctx.loop(fma_loop(10));
      s.BGP_Stop(ctx, 3);
      ctx.loop(fma_loop(1000));  // outside the set
    }
    s.BGP_Finalize(ctx);
  });
  const auto& rec = s.monitor(0).set_record(3);
  EXPECT_EQ(rec.pairs, 5u);
  const auto counter =
      isa::event_counter(isa::ev::fpu_op(0, isa::FpOp::kFma));
  EXPECT_EQ(rec.deltas[counter], 100u);
}

TEST(Session, VnmRanksShareTheNodeUnit) {
  rt::Machine m(cfg(1, sys::OpMode::kVnm));
  Session s(m, mem_only());
  m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    s.BGP_Start(ctx);
    ctx.loop(fma_loop(100 * (ctx.rank() + 1)));
    s.BGP_Stop(ctx);
    s.BGP_Finalize(ctx);
  });
  // All four cores' FMA counts must appear in the node's single record.
  const auto& rec = s.monitor(0).set_record(0);
  for (unsigned core = 0; core < 4; ++core) {
    const auto counter =
        isa::event_counter(isa::ev::fpu_op(core, isa::FpOp::kFma));
    EXPECT_EQ(rec.deltas[counter], 200u * (core + 1)) << core;
  }
}

// Counter mode 3 gives each core a 16-event slot. A Dual node runs
// process 1 on core 2, so rank 1's MPI events land in slot 2 beside its
// UPC-call events, and slot 1 stays empty.
TEST(Session, Mode3SlotOfADualRankIsItsCore) {
  rt::Machine m(cfg(1, sys::OpMode::kDual));
  Options o = mem_only();
  o.mode_even_cards = 3;
  o.mode_odd_cards = 3;
  Session s(m, o);
  m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    std::array<u64, 4> buf{};
    if (ctx.rank() == 1) {
      s.BGP_Start(ctx, 1);
      ctx.send_values<u64>(0, buf);
      s.BGP_Stop(ctx, 1);
    } else {
      ctx.recv_values<u64>(1, buf);
    }
    s.BGP_Finalize(ctx);
  });
  using isa::SysEvent;
  namespace ev = isa::ev;
  const upc::UpcUnit& upc = m.partition().node(0).upc();
  EXPECT_EQ(upc.line_count(ev::system(SysEvent::kMpiSends, 2)), 1u);
  EXPECT_EQ(upc.line_count(ev::system(SysEvent::kUpcStartCalls, 2)), 1u);
  EXPECT_EQ(upc.line_count(ev::system(SysEvent::kUpcStopCalls, 2)), 1u);
  EXPECT_EQ(upc.line_count(ev::system(SysEvent::kMpiRecvs, 0)), 1u);
  // The set bracketed rank 1's send and its stop call.
  ASSERT_EQ(s.monitor(0).programmed_mode(), 3);
  const auto& rec = s.monitor(0).set_record(1);
  const auto counter = [](SysEvent e, unsigned slot) {
    return isa::event_counter(ev::system(e, slot));
  };
  EXPECT_EQ(rec.deltas[counter(SysEvent::kMpiSends, 2)], 1u);
  EXPECT_EQ(rec.deltas[counter(SysEvent::kUpcStopCalls, 2)], 1u);
  for (unsigned e = 0; e < isa::kNumSysEvents; ++e) {
    const auto id = ev::system(static_cast<SysEvent>(e), 1);
    EXPECT_EQ(upc.line_count(id), 0u) << "slot 1 event " << e;
    EXPECT_EQ(rec.deltas[isa::event_counter(id)], 0u) << "slot 1 event " << e;
  }
}

TEST(Session, StopWithoutStartThrows) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  EXPECT_THROW(m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    s.BGP_Stop(ctx);
  }),
               std::logic_error);
}

TEST(Session, StartBeforeInitializeThrows) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  EXPECT_THROW(m.run([&](rt::RankCtx& ctx) { s.BGP_Start(ctx); }),
               std::logic_error);
}

TEST(Session, OverheadMatchesPaperBudget) {
  // §IV: initialize + start + stop = 196 cycles.
  EXPECT_EQ(measured_overhead(), 196u);

  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  cycles_t overhead = 0;
  m.run([&](rt::RankCtx& ctx) {
    const cycles_t t0 = ctx.core().read_timebase();
    s.BGP_Initialize(ctx);
    s.BGP_Start(ctx);
    s.BGP_Stop(ctx);
    overhead = ctx.core().read_timebase() - t0;
  });
  EXPECT_EQ(overhead, 196u);
}

TEST(Session, MpiHooksInstrumentWithoutCodeChanges) {
  rt::Machine m(cfg(2, sys::OpMode::kVnm));
  Session s(m, mem_only());
  s.link_with_mpi();
  m.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();  // BGP_Initialize + BGP_Start run inside
    ctx.loop(fma_loop(100));
    ctx.mpi_finalize();  // BGP_Stop + BGP_Finalize run inside
  });
  const auto counter =
      isa::event_counter(isa::ev::fpu_op(0, isa::FpOp::kFma));
  EXPECT_EQ(s.monitor(0).set_record(0).deltas[counter], 200u);
  EXPECT_EQ(s.monitor(1).set_record(0).pairs, 1u);
}

TEST(Session, DumpFilesRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "bgpc_session_test";
  std::filesystem::create_directories(dir);
  Options o;
  o.app_name = "roundtrip";
  o.dump_dir = dir;
  rt::Machine m(cfg(2, sys::OpMode::kVnm));
  Session s(m, o);
  s.link_with_mpi();
  m.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    ctx.loop(fma_loop(64));
    ctx.mpi_finalize();
  });
  ASSERT_EQ(s.dump_files().size(), 2u);
  for (const auto& f : s.dump_files()) {
    const auto dump = NodeMonitor::parse(read_file_bytes(f));
    EXPECT_EQ(dump.app_name, "roundtrip");
    ASSERT_EQ(dump.sets.size(), 1u);
    EXPECT_EQ(dump.sets[0].pairs, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, SerializeParseRejectsCorruption) {
  NodeDump d;
  d.node_id = 3;
  d.app_name = "x";
  d.sets.resize(1);
  auto bytes = NodeMonitor::serialize(d);
  EXPECT_EQ(NodeMonitor::parse(bytes).node_id, 3u);

  auto bad_magic = bytes;
  bad_magic[0] = std::byte{0xFF};
  EXPECT_THROW((void)NodeMonitor::parse(bad_magic), BinIoError);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 10);
  EXPECT_THROW((void)NodeMonitor::parse(truncated), BinIoError);

  auto trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)NodeMonitor::parse(trailing), BinIoError);
}

TEST(Session, ThresholdInterruptFiresViaUpc) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  unsigned fires = 0;
  m.partition().node(0).upc().add_threshold_listener(
      [&](u8, u64) { ++fires; });
  m.run([&](rt::RankCtx& ctx) {
    s.BGP_Initialize(ctx);
    s.arm_threshold(ctx, isa::ev::fpu_op(0, isa::FpOp::kFma), 500);
    s.BGP_Start(ctx);
    ctx.loop(fma_loop(1000));  // 2000 FMAs > 500 threshold
    s.BGP_Stop(ctx);
  });
  EXPECT_EQ(fires, 1u);
}

TEST(CApi, FreeFunctionsUseBoundSession) {
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  Session s(m, mem_only());
  BGP_Bind(&s);
  m.run([&](rt::RankCtx& ctx) {
    BGP_Initialize(ctx);
    BGP_Start(ctx);
    ctx.loop(fma_loop(10));
    BGP_Stop(ctx);
    BGP_Finalize(ctx);
  });
  BGP_Bind(nullptr);
  EXPECT_EQ(s.monitor(0).set_record(0).pairs, 1u);
}

TEST(CApi, UnboundThrows) {
  BGP_Bind(nullptr);
  rt::Machine m(cfg(1, sys::OpMode::kSmp1));
  EXPECT_THROW(m.run([](rt::RankCtx& ctx) { BGP_Initialize(ctx); }),
               std::logic_error);
}

}  // namespace
}  // namespace bgp::pc
