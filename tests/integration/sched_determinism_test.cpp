// Serial-vs-parallel determinism matrix (docs/parallel-scheduler.md): the
// parallel epoch scheduler must be bit-for-bit indistinguishable from the
// serial dispatcher. Every cell runs the same instrumented benchmark twice
// — once per scheduler — and byte-compares all artifacts: counter dumps
// (.bgpc), sealed and partial trace files (.bgpt*), and span files (.bgps,
// compared with host-nanosecond fields zeroed, the one wall-clock channel
// in the formats). The matrix covers {SMP, DUAL, VNM} x {no fault, kill-2,
// FT kill-3} with tracing and the flight recorder both attached, plus a
// 256-rank stress cell on eight workers. Each cell also pins a golden
// digest of every artifact plus Machine::elapsed() (golden.hpp), so a
// change to any simulated byte fails here even when both schedulers agree
// on it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "core/session.hpp"
#include "fault/fault.hpp"
#include "ft/ftcomm.hpp"
#include "golden.hpp"
#include "nas/kernel.hpp"
#include "obs/span_io.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp {
namespace {

namespace fs = std::filesystem;

struct MatrixCell {
  sys::OpMode mode = sys::OpMode::kVnm;
  unsigned nodes = 4;
  unsigned deaths = 0;
  bool ft = false;
  unsigned jobs = 4;
};

/// Everything observable a run leaves behind, in comparable form.
struct RunArtifacts {
  std::map<std::string, std::string> files;  ///< name -> raw bytes
  cycles_t elapsed = 0;
  std::size_t dead_nodes = 0;
  std::size_t recovery_events = 0;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Re-serialize a span file with its host-ns fields zeroed: span begin/end
/// wall times are real time, everything else is simulated state.
std::string normalized_spans(const fs::path& p) {
  obs::SpanFile f = obs::load_span_file(p);
  std::string out;
  for (const obs::SpanRec& s : f.spans) {
    out += s.name + ' ' + std::string(obs::to_string(s.cat)) + ' ' +
           std::to_string(s.node) + ':' + std::to_string(s.core) + ' ' +
           std::to_string(s.depth) + ' ' + std::to_string(s.begin_cycles) +
           '-' + std::to_string(s.end_cycles) + '\n';
  }
  for (const obs::InstantRec& i : f.instants) {
    out += i.name + ' ' + std::string(obs::to_string(i.cat)) + ' ' +
           std::to_string(i.node) + ':' + std::to_string(i.core) + ' ' +
           std::to_string(i.cycles) + '\n';
  }
  out += "dropped=" + std::to_string(f.dropped) + '\n';
  return out;
}

RunArtifacts run_cell(const MatrixCell& cell, rt::SchedMode sched) {
  const ::testing::TestInfo* ti =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("bgpc_sched_") + ti->name() +
       (sched == rt::SchedMode::kParallel ? "_par" : "_ser"));
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::MachineConfig mc;
  mc.num_nodes = cell.nodes;
  mc.mode = cell.mode;
  mc.sched = sched;
  mc.jobs = sched == rt::SchedMode::kParallel ? cell.jobs : 0;
  rt::Machine machine(mc);

  fault::FaultInjector injector{[&] {
    fault::FaultSpec spec;
    spec.node_deaths = cell.deaths;
    return fault::FaultPlan::random(7, cell.nodes, spec);
  }()};
  if (cell.deaths > 0) machine.set_fault_injector(&injector);
  ft::FtParams ftp;
  ftp.enabled = cell.ft;
  machine.set_ft_params(ftp);

  pc::Options opts;
  opts.app_name = "CG";
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  opts.obs.enabled = true;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kS);
  if (cell.ft) {
    machine.run([&](rt::RankCtx& ctx) {
      ft::run_guarded(ctx, [&](rt::RankCtx& c) {
        c.mpi_init();
        kernel->run(c);
      });
      ft::finalize_guarded(ctx);
    });
  } else {
    machine.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
  }

  RunArtifacts a;
  a.elapsed = machine.elapsed();
  a.dead_nodes = machine.dead_nodes().size();
  a.recovery_events = machine.recovery_log().size();
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    a.files[name] = entry.path().extension() == ".bgps"
                        ? normalized_spans(entry.path())
                        : slurp(entry.path());
  }
  fs::remove_all(dir);
  return a;
}

/// Digest of every artifact (name, size, bytes; in name order) and the
/// simulated elapsed time.
u64 digest(const RunArtifacts& a) {
  u64 h = golden::kSeed;
  for (const auto& [name, bytes] : a.files) {
    h = golden::add(h, name);
    h = golden::add(h, u64{bytes.size()});
    h = golden::add(h, bytes);
  }
  return golden::add(h, a.elapsed);
}

void expect_identical(const MatrixCell& cell, u64 golden_digest) {
  const RunArtifacts ser = run_cell(cell, rt::SchedMode::kSerial);
  const RunArtifacts par = run_cell(cell, rt::SchedMode::kParallel);

  const u64 got = digest(ser);
  EXPECT_EQ(got, golden_digest) << "digest is " << golden::hex(got);

  EXPECT_EQ(ser.elapsed, par.elapsed);
  EXPECT_EQ(ser.dead_nodes, par.dead_nodes);
  EXPECT_EQ(ser.recovery_events, par.recovery_events);
  ASSERT_FALSE(ser.files.empty());
  ASSERT_EQ(ser.files.size(), par.files.size());
  for (const auto& [name, bytes] : ser.files) {
    const auto it = par.files.find(name);
    ASSERT_NE(it, par.files.end()) << name << " missing from parallel run";
    EXPECT_EQ(bytes, it->second) << name << " differs between schedulers";
  }
}

TEST(SchedDeterminism, Smp1Plain) {
  expect_identical({.mode = sys::OpMode::kSmp1}, 0x9d094d7936cb3306);
}
TEST(SchedDeterminism, Smp1Kill2) {
  expect_identical({.mode = sys::OpMode::kSmp1, .deaths = 2},
                   0x2264f2a819730710);
}
TEST(SchedDeterminism, Smp1FtKill3) {
  expect_identical({.mode = sys::OpMode::kSmp1, .nodes = 8, .deaths = 3,
                    .ft = true},
                   0x8593434f57b5c428);
}
TEST(SchedDeterminism, DualPlain) {
  expect_identical({.mode = sys::OpMode::kDual}, 0x021372ecab8c7926);
}
TEST(SchedDeterminism, DualKill2) {
  expect_identical({.mode = sys::OpMode::kDual, .deaths = 2},
                   0x743d9083d477bd27);
}
TEST(SchedDeterminism, DualFtKill3) {
  expect_identical({.mode = sys::OpMode::kDual, .nodes = 8, .deaths = 3,
                    .ft = true},
                   0xcdf4b0a9d5fea377);
}
TEST(SchedDeterminism, VnmPlain) {
  expect_identical({.mode = sys::OpMode::kVnm}, 0xd08771ca1f69fb8f);
}
TEST(SchedDeterminism, VnmKill2) {
  expect_identical({.mode = sys::OpMode::kVnm, .deaths = 2},
                   0x0b2bd36df90045b2);
}
TEST(SchedDeterminism, VnmFtKill3) {
  expect_identical({.mode = sys::OpMode::kVnm, .nodes = 8, .deaths = 3,
                    .ft = true},
                   0x4a68d6e03809f777);
}

/// 256 ranks (64 VNM nodes) on eight workers: the stress cell where
/// commit-order races would actually show up.
TEST(SchedDeterminism, Stress256Ranks) {
  expect_identical({.mode = sys::OpMode::kVnm, .nodes = 64, .jobs = 8},
                   0x4b99c233bd75c824);
}

}  // namespace
}  // namespace bgp
