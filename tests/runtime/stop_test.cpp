// Cooperative stop: request_stop() mid-run makes Machine::run() throw
// RunStopped on one worker and on four, after which the session layer can
// seal traces and write checkpoint dumps through the atomic paths — the
// mechanism behind bgpc_run's SIGTERM handling and the daemon's kill.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <future>
#include <thread>

#include "core/session.hpp"
#include "nas/kernel.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace fs = std::filesystem;

namespace bgp {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpc_stop_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_stop_checkpoints(rt::SchedMode sched) {
  const fs::path dir = test_dir();
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  mc.sched = sched;
  mc.jobs = sched == rt::SchedMode::kParallel ? 4 : 0;
  rt::Machine machine(mc);

  pc::Options opts;
  opts.app_name = "CG";
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  // Stop from another thread a moment into the run — the signal-handler
  // shape (request_stop is lock-free and async-signal-safe).
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    machine.request_stop();
  });

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kW);
  bool stopped = false;
  try {
    machine.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
  } catch (const rt::RunStopped&) {
    stopped = true;
  }
  stopper.join();
  ASSERT_TRUE(stopped) << "class-W CG finished before the stop landed";
  EXPECT_GT(machine.elapsed(), 0u);

  // The checkpoint paths still work after the abort.
  session.seal_all_traces();
  session.checkpoint_dump();
  EXPECT_EQ(session.trace_files().size(), 4u);
  EXPECT_EQ(session.dump_files().size(), 4u);
  unsigned bgpc = 0, bgpt = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bgpc") ++bgpc;
    if (entry.path().extension() == ".bgpt") ++bgpt;
    EXPECT_GT(fs::file_size(entry.path()), 0u) << entry.path();
  }
  EXPECT_EQ(bgpc, 4u);
  EXPECT_EQ(bgpt, 4u);
  fs::remove_all(dir);
}

TEST(RequestStop, SerialDispatcherStopsAndCheckpoints) {
  expect_stop_checkpoints(rt::SchedMode::kSerial);
}

TEST(RequestStop, ParallelDispatcherStopsAndCheckpoints) {
  expect_stop_checkpoints(rt::SchedMode::kParallel);
}

TEST(RequestStop, StopBeforeRunThrowsImmediately) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;
  rt::Machine machine(mc);
  machine.request_stop();
  auto kernel = nas::make_kernel(nas::Benchmark::kEP, nas::ProblemClass::kS);
  EXPECT_THROW(machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    kernel->run(ctx);
    ctx.mpi_finalize();
  }),
               rt::RunStopped);
}

// A stop serviced after a rank's blocking recv commit but before the rank
// parks must still unwind it. On two nodes and one executor: rank 1 (node
// 0) reaches its recv at a later clock than rank 4 (node 1) is pending
// at, so its commit waits. Rank 4's yield past that clock commits the
// recv (no message: blocked) and, still its node's next rank, rank 4 runs
// on and requests the stop, which its executor services before rank 1
// parks. If that wake were lost, the run would spin forever.
TEST(RequestStop, StopBetweenABlockingCommitAndItsParkUnwinds) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;  // VNM: ranks 0-3 on node 0, 4-7 on node 1
  mc.sched = rt::SchedMode::kSerial;
  rt::Machine machine(mc);
  auto run = std::async(std::launch::async, [&] {
    try {
      machine.run([&](rt::RankCtx& ctx) {
        // A one-element touch ends the rank's segment (a yield).
        const auto buf = ctx.alloc<double>(1);
        const rt::MemRange one{buf.addr(), buf.bytes(), false};
        if (ctx.rank() == 1) {
          ctx.core().advance(1000);
          ctx.touch(one, 1.0);
          std::byte b{};
          ctx.recv(0, std::span<std::byte>(&b, 1));  // rank 0 never sends
        } else if (ctx.rank() == 4) {
          ctx.core().advance(10);
          ctx.touch(one, 1.0);  // ranks 5-7 finish meanwhile
          ctx.core().advance(100'000);
          ctx.touch(one, 1.0);  // commits rank 1's recv, keeps running
          machine.request_stop();
        }
      });
    } catch (const rt::RunStopped&) {
      return true;
    }
    return false;
  });
  if (run.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "the stopped run never finished";
    std::_Exit(1);  // the run thread spins forever; nothing can join it
  }
  EXPECT_TRUE(run.get()) << "the run finished without RunStopped";
}

}  // namespace
}  // namespace bgp
