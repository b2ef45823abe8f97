#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/rankctx.hpp"

namespace bgp::rt {
namespace {

MachineConfig small(unsigned nodes = 2, sys::OpMode mode = sys::OpMode::kVnm) {
  MachineConfig cfg;
  cfg.num_nodes = nodes;
  cfg.mode = mode;
  return cfg;
}

TEST(Machine, RunsEveryRankExactlyOnce) {
  Machine m(small(2));  // 8 ranks in VNM
  std::vector<int> visits(m.num_ranks(), 0);
  m.run([&](RankCtx& ctx) { ++visits[ctx.rank()]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Machine, RankOverrideLimitsRanks) {
  MachineConfig cfg = small(4);
  cfg.num_ranks_override = 11;  // e.g. SP/BT square-ish rank counts
  Machine m(cfg);
  EXPECT_EQ(m.num_ranks(), 11u);
  std::atomic<int> count{0};
  m.run([&](RankCtx&) { ++count; });
  EXPECT_EQ(count.load(), 11);
}

TEST(Machine, InvalidOverrideThrows) {
  MachineConfig cfg = small(2);
  cfg.num_ranks_override = 9;  // only 8 available
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(Machine, RunTwiceRejected) {
  Machine m(small(1));
  m.run([](RankCtx&) {});
  EXPECT_THROW(m.run([](RankCtx&) {}), std::logic_error);
}

TEST(Machine, RankExceptionPropagates) {
  Machine m(small(2));
  EXPECT_THROW(m.run([](RankCtx& ctx) {
    ctx.barrier();
    if (ctx.rank() == 3) throw std::runtime_error("boom");
    ctx.barrier();  // others block here while rank 3 dies
  }),
               std::runtime_error);
}

TEST(Machine, DeadlockDetected) {
  Machine m(small(1));  // 4 ranks
  EXPECT_THROW(m.run([](RankCtx& ctx) {
    std::array<std::byte, 8> buf{};
    // Everyone receives, nobody sends.
    ctx.recv((ctx.rank() + 1) % ctx.size(), buf);
  }),
               std::runtime_error);
}

TEST(Machine, PlacementMatchesMode) {
  Machine m(small(2, sys::OpMode::kSmp1));
  EXPECT_EQ(m.num_ranks(), 2u);
  m.run([](RankCtx& ctx) {
    EXPECT_EQ(ctx.node_id(), ctx.rank());
    EXPECT_EQ(ctx.core_id(), 0u);
  });
}

TEST(Machine, SendRecvMovesData) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const unsigned p = ctx.size();
    std::array<u64, 4> buf{};
    if (ctx.rank() == 0) {
      for (unsigned d = 1; d < p; ++d) {
        std::array<u64, 4> payload{d, d * 2, d * 3, d * 4};
        ctx.send_values<u64>(d, payload, /*tag=*/7);
      }
    } else {
      ctx.recv_values<u64>(0, buf, /*tag=*/7);
      EXPECT_EQ(buf[0], ctx.rank());
      EXPECT_EQ(buf[3], ctx.rank() * 4);
    }
  });
}

TEST(Machine, RecvBlocksUntilSendAndTimeAdvances) {
  Machine m(small(2, sys::OpMode::kSmp1));
  m.run([](RankCtx& ctx) {
    std::array<double, 128> buf{};
    if (ctx.rank() == 0) {
      // Sender does a pile of compute first.
      isa::LoopDesc d;
      d.name = "delay";
      d.trip = 100000;
      d.body.int_at(isa::IntOp::kAlu) = 4;
      ctx.loop(d);
      buf.fill(3.25);
      ctx.send_values<double>(1, buf);
    } else {
      const cycles_t t0 = ctx.now();
      ctx.recv_values<double>(0, buf);
      // The receiver must have waited for the sender's compute + transfer.
      EXPECT_GT(ctx.now(), t0 + 100000);
      EXPECT_EQ(buf[17], 3.25);
      EXPECT_GT(ctx.node().upc().line_count(isa::ev::system(
                    isa::SysEvent::kMpiWaitCycles, ctx.core_id())),
                0u);
    }
  });
}

TEST(Machine, MessageOrderIsFifoPerPair) {
  Machine m(small(1));
  m.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (u64 i = 0; i < 10; ++i) {
        std::array<u64, 1> v{i};
        ctx.send_values<u64>(1, v);
      }
    } else if (ctx.rank() == 1) {
      for (u64 i = 0; i < 10; ++i) {
        std::array<u64, 1> v{};
        ctx.recv_values<u64>(0, v);
        EXPECT_EQ(v[0], i);
      }
    }
  });
}

TEST(Machine, TagsMatchSelectively) {
  Machine m(small(1));
  m.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::array<u64, 1> a{111}, b{222};
      ctx.send_values<u64>(1, a, /*tag=*/1);
      ctx.send_values<u64>(1, b, /*tag=*/2);
    } else if (ctx.rank() == 1) {
      std::array<u64, 1> v{};
      ctx.recv_values<u64>(0, v, /*tag=*/2);  // out of order by tag
      EXPECT_EQ(v[0], 222u);
      ctx.recv_values<u64>(0, v, /*tag=*/1);
      EXPECT_EQ(v[0], 111u);
    }
  });
}

TEST(Machine, SendRecvSizeMismatchFails) {
  Machine m(small(1));
  EXPECT_THROW(m.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::array<u64, 2> v{};
      ctx.send_values<u64>(1, v);
    } else if (ctx.rank() == 1) {
      std::array<u64, 3> v{};
      ctx.recv_values<u64>(0, v);
    } else {
      ctx.barrier();
    }
  }),
               std::runtime_error);
}

TEST(Machine, SendRecvExchange) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const unsigned peer = ctx.rank() ^ 1u;
    std::array<u64, 8> out{}, in{};
    out.fill(ctx.rank());
    ctx.sendrecv(peer, std::as_bytes(std::span(out)),
                 std::as_writable_bytes(std::span(in)));
    EXPECT_EQ(in[0], peer);
  });
}

TEST(Machine, DeterministicElapsedTime) {
  auto run_once = [] {
    Machine m(small(2));
    m.run([](RankCtx& ctx) {
      ctx.mpi_init();
      isa::LoopDesc d;
      d.trip = 1000 + ctx.rank() * 37;
      d.body.fp_at(isa::FpOp::kFma) = 2;
      d.body.ls_at(isa::LsOp::kLoadDouble) = 1;
      auto arr = ctx.alloc<double>(4096);
      ctx.loop(d, {MemRange{arr.addr(), arr.bytes(), false}});
      const double s = ctx.allreduce_sum(1.0);
      EXPECT_EQ(s, double(ctx.size()));
      ctx.mpi_finalize();
    });
    return m.elapsed();
  };
  const cycles_t a = run_once();
  const cycles_t b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

}  // namespace
}  // namespace bgp::rt
