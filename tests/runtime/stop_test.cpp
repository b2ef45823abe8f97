// Cooperative stop: request_stop() mid-run makes Machine::run() throw
// RunStopped on one worker and on four, after which the session layer can
// seal traces and write checkpoint dumps through the atomic paths — the
// mechanism behind bgpc_run's SIGTERM handling and the daemon's kill.
#include <gtest/gtest.h>

#include <filesystem>
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

}  // namespace
}  // namespace bgp
