// Counter checks against ground truth worked out without the simulator,
// plus golden digests that pin every simulated byte. Three families:
//
//  1. Closed-form counts: a RankCtx::loop microkernel at -O, run through
//     pc::Session on two SMP/1 nodes and dumped in each of the four
//     counter modes. The expected per-class op counts, INSTR_COMPLETED,
//     CYCLE_COUNT, torus traffic, L3/DDR traffic and interface-call counts
//     are derived here from the loop bodies, the send size and pc::Options
//     — not from the simulator's own arithmetic.
//
//  2. Paper identities on every NAS kernel at class S (4 VNM nodes, the
//     default even/odd card split): reads = hits + misses at L2 and L3,
//     L3 writes = hits + misses, L1D misses <= accesses, L3 fills = L3
//     misses, DDR bytes = line x L3 fills (reads) and x L3 writebacks
//     (writes). CG additionally checks them in every counter mode on one
//     scheduler worker and on two.
//
//  3. Golden digests (golden.hpp) of the serialized counter dumps plus
//     Machine::elapsed() for the four counter-mode CG runs (on one and on
//     two workers) and one hybrid SMP/4 parallel_loop run. A change to any
//     simulated counter or cycle shows up here; the failure message prints
//     the new value.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "golden.hpp"
#include "nas/kernel.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp {
namespace {

namespace ev = isa::ev;
using isa::FpOp;
using isa::IntOp;
using isa::LsOp;

/// Default even/odd card split (mode 0 on even cards, mode 1 on odd).
constexpr int kDefaultSplit = -1;

struct PathConfig {
  /// Counter mode programmed on every node card, or kDefaultSplit.
  int mode = 0;
  rt::SchedMode sched = rt::SchedMode::kSerial;
  nas::Benchmark bench = nas::Benchmark::kCG;
  u64 l3_size_bytes = 8 * MiB;
};

struct RunResult {
  std::vector<pc::NodeDump> dumps;
  cycles_t elapsed = 0;
};

/// Digest of every serialized dump, in node order, then the elapsed time.
u64 digest(const RunResult& r) {
  u64 h = golden::kSeed;
  for (const pc::NodeDump& d : r.dumps) {
    h = golden::add(h, pc::NodeMonitor::serialize(d));
  }
  return golden::add(h, r.elapsed);
}

RunResult run_cg(const PathConfig& cfg) {
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  mc.mode = sys::OpMode::kVnm;
  mc.sched = cfg.sched;
  mc.jobs = cfg.sched == rt::SchedMode::kParallel ? 2 : 0;
  mc.boot.l3_size_bytes = cfg.l3_size_bytes;
  rt::Machine machine(mc);

  pc::Options opts;
  opts.app_name = "identity";
  opts.write_dumps = false;
  if (cfg.mode != kDefaultSplit) {
    // Same mode on even and odd cards so every node counts the mode under
    // test.
    opts.mode_even_cards = static_cast<u8>(cfg.mode);
    opts.mode_odd_cards = static_cast<u8>(cfg.mode);
  }
  pc::Session session(machine, opts);
  session.link_with_mpi();

  auto kernel = nas::make_kernel(cfg.bench, nas::ProblemClass::kS);
  machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    kernel->run(ctx);
    ctx.mpi_finalize();
  });
  EXPECT_TRUE(kernel->result().verified) << kernel->result().detail;
  return {session.dumps(), machine.elapsed()};
}

/// Counter delta of `id` in `set`, or 0 when the dump's mode does not
/// cover the event.
u64 delta(const pc::NodeDump& d, isa::EventId id, unsigned set = 0) {
  if (isa::event_mode(id) != d.counter_mode) return 0;
  for (const pc::SetDump& s : d.sets) {
    if (s.set_id == set) return s.deltas.at(isa::event_counter(id));
  }
  ADD_FAILURE() << "node " << d.node_id << " has no set " << set;
  return 0;
}

const char* sched_name(rt::SchedMode s) {
  return s == rt::SchedMode::kSerial ? "serial" : "parallel";
}

constexpr rt::SchedMode kScheds[] = {rt::SchedMode::kSerial,
                                     rt::SchedMode::kParallel};

/// Bytes per L3 line / DDR transfer and per DDR byte-counter unit.
constexpr u64 kL3Line = 128;
constexpr u64 kDdrUnit = 16;

u64 ddr_bytes(const pc::NodeDump& d, isa::DdrEvent e) {
  u64 units = 0;
  for (unsigned c = 0; c < isa::kNumDdrControllers; ++c) {
    units += delta(d, ev::ddr(c, e));
  }
  return units * kDdrUnit;
}

/// The paper identities on one dump, for whichever mode it counted.
/// Returns whether the dump carried nonzero traffic for its mode.
bool check_paper_identities(const pc::NodeDump& d, const std::string& what) {
  bool traffic = false;
  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    const u64 l1_ra = delta(d, ev::l1d(c, isa::L1dEvent::kReadAccess));
    const u64 l1_rm = delta(d, ev::l1d(c, isa::L1dEvent::kReadMiss));
    const u64 l1_wa = delta(d, ev::l1d(c, isa::L1dEvent::kWriteAccess));
    const u64 l1_wm = delta(d, ev::l1d(c, isa::L1dEvent::kWriteMiss));
    EXPECT_LE(l1_rm, l1_ra) << what << " core " << c;
    EXPECT_LE(l1_wm, l1_wa) << what << " core " << c;
    traffic = traffic || l1_ra > 0;

    const u64 l2_ra = delta(d, ev::l2(c, isa::L2Event::kReadAccess));
    const u64 l2_rh = delta(d, ev::l2(c, isa::L2Event::kReadHit));
    const u64 l2_rm = delta(d, ev::l2(c, isa::L2Event::kReadMiss));
    const u64 l2_wa = delta(d, ev::l2(c, isa::L2Event::kWriteAccess));
    const u64 l2_wm = delta(d, ev::l2(c, isa::L2Event::kWriteMiss));
    EXPECT_EQ(l2_ra, l2_rh + l2_rm) << what << " core " << c;
    EXPECT_LE(l2_wm, l2_wa) << what << " core " << c;
  }

  const u64 ra = delta(d, ev::l3(isa::L3Event::kReadAccess));
  const u64 rh = delta(d, ev::l3(isa::L3Event::kReadHit));
  const u64 rm = delta(d, ev::l3(isa::L3Event::kReadMiss));
  const u64 wa = delta(d, ev::l3(isa::L3Event::kWriteAccess));
  const u64 wh = delta(d, ev::l3(isa::L3Event::kWriteHit));
  const u64 wm = delta(d, ev::l3(isa::L3Event::kWriteMiss));
  const u64 fills = delta(d, ev::l3(isa::L3Event::kFillFromDdr));
  const u64 writebacks = delta(d, ev::l3(isa::L3Event::kWritebackToDdr));
  EXPECT_EQ(ra, rh + rm) << what;
  EXPECT_EQ(wa, wh + wm) << what;
  EXPECT_EQ(fills, rm + wm) << what;
  EXPECT_EQ(ddr_bytes(d, isa::DdrEvent::kBytesRead16B), kL3Line * fills)
      << what;
  EXPECT_EQ(ddr_bytes(d, isa::DdrEvent::kBytesWritten16B),
            kL3Line * writebacks)
      << what;
  return traffic || ra > 0;
}

// ---- 1. closed-form microkernel ---------------------------------------------

/// Three loops, each bound by a different unit of the PPC450 model.
isa::LoopDesc issue_bound_loop() {
  isa::LoopDesc d;
  d.name = "issue_bound";
  d.trip = 1000;
  d.body.fp_at(FpOp::kFma) = 2;
  d.body.fp_at(FpOp::kAddSub) = 1;
  d.body.fp_at(FpOp::kMult) = 1;
  d.body.ls_at(LsOp::kLoadDouble) = 3;
  d.body.ls_at(LsOp::kStoreDouble) = 2;
  d.body.int_at(IntOp::kAlu) = 3;
  d.body.int_at(IntOp::kBranch) = 1;
  d.body.int_at(IntOp::kCall) = 1;
  d.has_calls = true;
  return d;
}

isa::LoopDesc fpu_bound_loop() {
  isa::LoopDesc d;
  d.name = "fpu_bound";
  d.trip = 500;
  d.body.fp_at(FpOp::kDiv) = 1;
  d.body.fp_at(FpOp::kAddSub) = 2;
  d.body.ls_at(LsOp::kLoadSingle) = 2;
  d.body.int_at(IntOp::kBranch) = 1;
  return d;
}

isa::LoopDesc lsu_bound_loop() {
  isa::LoopDesc d;
  d.name = "lsu_bound";
  d.trip = 300;
  d.body.ls_at(LsOp::kLoadDouble) = 6;
  d.body.ls_at(LsOp::kStoreSingle) = 2;
  d.body.int_at(IntOp::kAlu) = 1;
  d.body.int_at(IntOp::kMul) = 1;
  return d;
}

u64 sum(std::span<const u64> counts) {
  return std::accumulate(counts.begin(), counts.end(), u64{0});
}

/// Bundle cycles of one -O loop worked out from the PPC450 parameters the
/// timing model documents: 2-way issue, one FP instruction per cycle with
/// 28-cycle unpipelined divides, one load/store per cycle, 2% of branches
/// mispredicted at 7 cycles each, 8 cycles per call.
u64 expected_cycles(u64 instr, u64 fp, u64 divs, u64 ls, u64 branches,
                    u64 calls) {
  const u64 issue = (instr + 1) / 2;
  const u64 fpu = (fp - divs) + divs * 28;
  const u64 busiest = std::max({issue, fpu, ls});
  const u64 mispredicts = (branches * 2 + 50) / 100;  // round(2%)
  return busiest + mispredicts * 7 + calls * 8;
}

constexpr u64 kSendBytes = 2000;
constexpr u64 kStreamBytes = 256 * KiB;

RunResult run_microkernel(u8 mode, const pc::Options& base) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;  // one card: both nodes count `mode`
  mc.mode = sys::OpMode::kSmp1;
  mc.opt = opt::OptConfig::parse("-O");
  mc.boot.prefetch.depth = 0;
  rt::Machine machine(mc);

  pc::Options opts = base;
  opts.app_name = "microkernel";
  opts.write_dumps = false;
  opts.mode_even_cards = mode;
  opts.mode_odd_cards = mode;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();  // starts set 0 for the whole run
    session.BGP_Start(ctx, 1);
    ctx.loop(issue_bound_loop(), {});
    ctx.loop(fpu_bound_loop(), {});
    ctx.loop(lsu_bound_loop(), {});
    session.BGP_Stop(ctx, 1);

    std::vector<std::byte> msg(kSendBytes);
    session.BGP_Start(ctx, 2);
    if (ctx.rank() == 0) {
      ctx.send(1, msg);
    } else {
      ctx.recv(0, msg);
    }
    session.BGP_Stop(ctx, 2);

    auto stream = ctx.alloc<double>(kStreamBytes / sizeof(double));
    session.BGP_Start(ctx, 3);
    ctx.touch({stream.addr(), stream.bytes(), false});
    session.BGP_Stop(ctx, 3);
    ctx.mpi_finalize();
  });
  return {session.dumps(), machine.elapsed()};
}

TEST(CounterValidate, MicrokernelClosedFormsInEveryMode) {
  const pc::Options opts;
  const isa::LoopDesc loops[] = {issue_bound_loop(), fpu_bound_loop(),
                                 lsu_bound_loop()};
  // Expected set-1 totals: every class count is body x trip at -O.
  isa::OpMix ops;
  u64 cycles = 0;
  for (const isa::LoopDesc& l : loops) {
    const isa::OpMix m = l.body.scaled(l.trip);
    ops += m;
    cycles += expected_cycles(sum(m.fp) + sum(m.ls) + sum(m.in), sum(m.fp),
                              m.fp_at(FpOp::kDiv), sum(m.ls),
                              m.int_at(IntOp::kBranch),
                              m.int_at(IntOp::kCall));
  }
  const u64 instr = sum(ops.fp) + sum(ops.ls) + sum(ops.in);
  // The three loops hit different bounds: 14000 instructions at two per
  // cycle, 500 divides, 300 x 8 load/stores.
  ASSERT_EQ(cycles, (7000 + 20 * 7 + 1000 * 8) +
                        (500 * 28 + 1000 + 10 * 7) + 2400);

  const u64 packets = (kSendBytes + 255) / 256;
  const u64 chunks32 = (kSendBytes + 31) / 32;
  const u64 lines32 = kStreamBytes / 32;
  const u64 lines128 = kStreamBytes / kL3Line;

  for (u8 mode = 0; mode < isa::kNumCounterModes; ++mode) {
    const RunResult run = run_microkernel(mode, opts);
    ASSERT_EQ(run.dumps.size(), 2u);
    for (const pc::NodeDump& d : run.dumps) {
      ASSERT_EQ(d.counter_mode, mode);
      const std::string what =
          "mode " + std::to_string(mode) + " node " + std::to_string(d.node_id);
      switch (mode) {
        case 0: {
          // Set 1: the three loops plus BGP_Stop's own overhead, which is
          // charged before the stop snapshot (start's is charged before
          // the start snapshot, so it stays outside).
          for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
            EXPECT_EQ(delta(d, ev::fpu_op(0, FpOp(i)), 1), ops.fp[i]) << what;
          }
          for (std::size_t i = 0; i < isa::kNumLsOps; ++i) {
            EXPECT_EQ(delta(d, ev::ls_op(0, LsOp(i)), 1), ops.ls[i]) << what;
          }
          for (std::size_t i = 0; i < isa::kNumIntOps; ++i) {
            EXPECT_EQ(delta(d, ev::int_op(0, IntOp(i)), 1), ops.in[i]) << what;
          }
          EXPECT_EQ(delta(d, ev::instr_completed(0), 1), instr) << what;
          EXPECT_EQ(delta(d, ev::cycle_count(0), 1),
                    cycles + pc::kStopOverhead)
              << what;
          for (unsigned c = 1; c < isa::kCoresPerNode; ++c) {
            EXPECT_EQ(delta(d, ev::cycle_count(c), 1), 0u) << what;
          }
          // Set 3: a cold 32 B-line stream through L1D and the 128 B L2.
          EXPECT_EQ(delta(d, ev::l1d(0, isa::L1dEvent::kReadAccess), 3),
                    lines32)
              << what;
          EXPECT_EQ(delta(d, ev::l1d(0, isa::L1dEvent::kReadMiss), 3), lines32)
              << what;
          EXPECT_EQ(delta(d, ev::l2(0, isa::L2Event::kReadHit), 3),
                    lines32 - lines128)
              << what;
          EXPECT_EQ(delta(d, ev::l2(0, isa::L2Event::kReadMiss), 3), lines128)
              << what;
          break;
        }
        case 1:
          // Set 3: every 128 B line of the stream misses the L3 once and
          // is filled from DDR; nothing else in the run touches memory.
          EXPECT_EQ(delta(d, ev::l3(isa::L3Event::kReadAccess), 3), lines128)
              << what;
          EXPECT_EQ(delta(d, ev::l3(isa::L3Event::kReadMiss), 3), lines128)
              << what;
          EXPECT_EQ(delta(d, ev::l3(isa::L3Event::kFillFromDdr), 3), lines128)
              << what;
          EXPECT_EQ(ddr_bytes(d, isa::DdrEvent::kBytesRead16B), kStreamBytes)
              << what;
          EXPECT_EQ(ddr_bytes(d, isa::DdrEvent::kBytesWritten16B), 0u) << what;
          break;
        case 2:
          // One 2000-byte send from node 0 to its +x neighbour (a 2x1x1
          // torus: one hop): 256 B packets, 32 B chunks.
          if (d.node_id == 0) {
            for (unsigned set : {0u, 2u}) {
              EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kPacketsSentXp),
                              set),
                        packets)
                  << what << " set " << set;
              EXPECT_EQ(
                  delta(d, ev::torus(isa::TorusEvent::kBytesSent32B), set),
                  chunks32)
                  << what << " set " << set;
              EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kHopsTotal), set),
                        packets * 1)
                  << what << " set " << set;
            }
            EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kPacketsReceived)),
                      0u)
                << what;
          } else {
            EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kPacketsReceived)),
                      packets)
                << what;
            EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kBytesRecv32B)),
                      chunks32)
                << what;
            EXPECT_EQ(delta(d, ev::torus(isa::TorusEvent::kPacketsSentXp)),
                      0u)
                << what;
          }
          break;
        case 3: {
          // Set 0 spans the run: three explicit starts, three explicit
          // stops plus MPI_Finalize's stop (each charged before its own
          // snapshot), the MPI_Init and MPI_Finalize barriers, one send
          // or one receive. MPI_Init's start precedes the unit running.
          using isa::SysEvent;
          const bool sender = d.node_id == 0;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcStartCalls)), 3u)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcStopCalls)), 4u) << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcOverheadCycles)),
                    3 * pc::kStartOverhead + 4 * pc::kStopOverhead)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kMpiSends)), sender ? 1u : 0u)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kMpiRecvs)), sender ? 0u : 1u)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kMpiCollectives)), 2u)
              << what;
          // Set 1 holds only its own stop.
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcStartCalls), 1), 0u)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcStopCalls), 1), 1u)
              << what;
          EXPECT_EQ(delta(d, ev::system(SysEvent::kUpcOverheadCycles), 1),
                    pc::kStopOverhead)
              << what;
          break;
        }
      }
    }
  }
}

// ---- 2. paper identities ----------------------------------------------------

TEST(CounterIdentity, Mode0PerCoreCacheIdentities) {
  for (const rt::SchedMode sched : kScheds) {
    const auto dumps = run_cg({0, sched}).dumps;
    ASSERT_FALSE(dumps.empty());
    bool any_l1 = false;
    for (const auto& d : dumps) {
      any_l1 = check_paper_identities(
                   d, std::string(sched_name(sched)) + " node " +
                          std::to_string(d.node_id)) ||
               any_l1;
    }
    EXPECT_TRUE(any_l1) << "CG never touched the L1D?";
  }
}

TEST(CounterIdentity, Mode1SharedLevelIdentities) {
  for (const rt::SchedMode sched : kScheds) {
    const auto dumps = run_cg({1, sched}).dumps;
    ASSERT_FALSE(dumps.empty());
    for (const auto& d : dumps) {
      EXPECT_TRUE(check_paper_identities(
          d, std::string(sched_name(sched)) + " node " +
                 std::to_string(d.node_id)))
          << "CG never reached the L3?";
    }
  }
}

class NasIdentities : public ::testing::TestWithParam<nas::Benchmark> {};

TEST_P(NasIdentities, HoldAtClassSOnFourVnmNodes) {
  const auto dumps =
      run_cg({kDefaultSplit, rt::SchedMode::kSerial, GetParam()}).dumps;
  ASSERT_EQ(dumps.size(), 4u);
  bool modes_seen[2] = {false, false};
  for (const auto& d : dumps) {
    ASSERT_LT(d.counter_mode, 2u);
    modes_seen[d.counter_mode] = true;
    EXPECT_TRUE(check_paper_identities(
        d, std::string(nas::name(GetParam())) + " node " +
               std::to_string(d.node_id)))
        << "no memory traffic counted on node " << d.node_id;
  }
  EXPECT_TRUE(modes_seen[0] && modes_seen[1]);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, NasIdentities, ::testing::ValuesIn(nas::all_benchmarks()),
    [](const ::testing::TestParamInfo<nas::Benchmark>& info) {
      return std::string(nas::name(info.param));
    });

// ---- 3. golden digests ------------------------------------------------------

TEST(CounterGolden, CgAllModesBothSchedulers) {
  constexpr u64 kGolden[isa::kNumCounterModes] = {
      0xa3dce1d78b12eb50, 0x0961cb5c8f5acb1e, 0xcc600757633b8d8f,
      0x94138b8c6c450318};
  for (u8 mode = 0; mode < isa::kNumCounterModes; ++mode) {
    for (const rt::SchedMode sched : kScheds) {
      const u64 got = digest(run_cg({mode, sched}));
      EXPECT_EQ(got, kGolden[mode])
          << "mode " << unsigned(mode) << " " << sched_name(sched)
          << ": digest is " << golden::hex(got);
    }
  }
}

/// L3 sizes whose set count is not a power of two, so the set index is a
/// division rather than a mask: Fig 11's 6 MiB (6,144 sets), which CG
/// class S never fills, and 384 KiB (384 sets), small enough to evict.
TEST(CounterGolden, CgWithL3SetCountsThatAreNotAPowerOfTwo) {
  struct Case {
    u64 l3_size_bytes;
    u64 golden;
  };
  constexpr Case kCases[] = {{6 * MiB, 0xd14ddb627a1f3f06},
                             {384 * KiB, 0xc1374d628f3b6a76}};
  for (const Case& c : kCases) {
    PathConfig cfg;
    cfg.mode = kDefaultSplit;
    cfg.l3_size_bytes = c.l3_size_bytes;
    const RunResult run = run_cg(cfg);
    const std::string what = std::to_string(c.l3_size_bytes / KiB) + " KiB L3";
    u64 evictions = 0;
    for (const auto& d : run.dumps) {
      EXPECT_TRUE(check_paper_identities(
          d, what + " node " + std::to_string(d.node_id)));
      evictions += delta(d, ev::l3(isa::L3Event::kEvict));
    }
    if (c.l3_size_bytes < MiB) {
      EXPECT_GT(evictions, 0u) << what;
    }
    const u64 got = digest(run);
    EXPECT_EQ(got, c.golden) << what << ": digest is " << golden::hex(got);
  }
}

/// One SMP/4 process per node sharing a stencil sweep across its four
/// cores with parallel_loop: per-core slices of an uneven trip count, the
/// fork/join charges and the shared-cache walk from four cores.
TEST(CounterGolden, HybridParallelLoopSmp4) {
  constexpr u64 kGolden = 0x7e571a8fb7dbfb3d;
  rt::MachineConfig mc;
  mc.num_nodes = 2;
  mc.mode = sys::OpMode::kSmp4;
  mc.opt = opt::OptConfig::parse("-O");
  rt::Machine machine(mc);
  pc::Options opts;
  opts.app_name = "hybrid";
  opts.write_dumps = false;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  isa::LoopDesc d;
  d.name = "stencil";
  d.trip = 4097;  // 1025 iterations on core 0, 1024 on the others
  d.body.fp_at(FpOp::kAddSub) = 4;
  d.body.fp_at(FpOp::kFma) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 3;
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 4;
  d.body.int_at(IntOp::kBranch) = 1;
  machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    auto grid = ctx.alloc<double>(d.trip);
    auto out = ctx.alloc<double>(d.trip);
    for (int sweep = 0; sweep < 3; ++sweep) {
      ctx.parallel_loop(d, {rt::MemRange{grid.addr(), grid.bytes(), false},
                            rt::MemRange{out.addr(), out.bytes(), true}});
      std::swap(grid, out);
    }
    ctx.mpi_finalize();
  });

  const RunResult run{session.dumps(), machine.elapsed()};
  ASSERT_EQ(run.dumps.size(), 2u);
  for (const pc::NodeDump& dump : run.dumps) {
    for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
      const u64 trip = 3 * (c == 0 ? 1025 : 1024);
      EXPECT_EQ(delta(dump, ev::fpu_op(c, FpOp::kFma)), 2 * trip)
          << "node " << dump.node_id << " core " << c;
      EXPECT_EQ(delta(dump, ev::instr_completed(c)), 15 * trip)
          << "node " << dump.node_id << " core " << c;
    }
    check_paper_identities(dump, "hybrid node " +
                                     std::to_string(dump.node_id));
  }
  const u64 got = digest(run);
  EXPECT_EQ(got, kGolden) << "digest is " << golden::hex(got);
}

}  // namespace
}  // namespace bgp
