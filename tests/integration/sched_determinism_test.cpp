// Worker-count determinism matrix (docs/parallel-scheduler.md): the epoch
// scheduler must produce the same bytes on one worker as on many. Every
// cell runs the same instrumented benchmark twice — --sched=serial (one
// worker) and --sched=parallel (the cell's worker count) — and
// byte-compares all artifacts: counter dumps (.bgpc), sealed and partial
// trace files (.bgpt*), and span files (.bgps, compared with
// host-nanosecond fields zeroed, the one wall-clock channel in the
// formats). The matrix runs CG on {SMP, DUAL, VNM} x {no fault, kill-2, FT
// kill-3} and every other kernel on one plain VNM cell, with tracing and
// the flight recorder both attached, plus a 256-rank CG stress cell on
// eight workers. Each cell also pins a golden digest of every artifact
// plus Machine::elapsed() (golden.hpp), so a change to any simulated byte
// fails here even when both runs agree on it.
//
// With BGPC_SCHED_ARTIFACT_DIR set, both runs' artifact directories are
// kept there (<test>_j1, <test>_j<N>) for triage instead of deleted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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
  nas::Benchmark bench = nas::Benchmark::kCG;
  sys::OpMode mode = sys::OpMode::kVnm;
  unsigned nodes = 4;
  unsigned deaths = 0;
  bool ft = false;
  unsigned jobs = 4;
};

/// Everything observable a run leaves behind, in comparable form.
struct RunArtifacts {
  /// name -> raw bytes (span files: the normalized listing below)
  std::map<std::string, std::string> files;
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

/// Where BGPC_SCHED_ARTIFACT_DIR asks for artifacts to be kept, or empty.
fs::path kept_artifact_root() {
  const char* dir = std::getenv("BGPC_SCHED_ARTIFACT_DIR");
  return dir != nullptr ? fs::path(dir) : fs::path();
}

/// The artifact directory of this test's run on `jobs` workers.
fs::path run_dir(unsigned jobs) {
  const ::testing::TestInfo* ti =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name =
      std::string(ti->name()) + "_j" + std::to_string(jobs);
  const fs::path kept = kept_artifact_root();
  return kept.empty() ? fs::temp_directory_path() / ("bgpc_sched_" + name)
                      : kept / name;
}

RunArtifacts run_cell(const MatrixCell& cell, rt::SchedMode sched) {
  const unsigned jobs = sched == rt::SchedMode::kParallel ? cell.jobs : 1;
  const fs::path dir = run_dir(jobs);
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::MachineConfig mc;
  mc.num_nodes = cell.nodes;
  mc.mode = cell.mode;
  mc.sched = sched;
  mc.jobs = jobs;
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
  opts.app_name = nas::name(cell.bench);
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  opts.obs.enabled = true;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  auto kernel = nas::make_kernel(cell.bench, nas::ProblemClass::kS);
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
  if (kept_artifact_root().empty()) fs::remove_all(dir);
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

/// Byte offset of the first difference between `a` and `b` (the shorter
/// length when one is a prefix of the other).
std::size_t first_difference(const std::string& a, const std::string& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
}

void expect_identical(const MatrixCell& cell, u64 golden_digest) {
  const RunArtifacts one = run_cell(cell, rt::SchedMode::kSerial);
  const RunArtifacts many = run_cell(cell, rt::SchedMode::kParallel);

  const u64 got = digest(one);
  EXPECT_EQ(got, golden_digest) << "digest is " << golden::hex(got);

  EXPECT_EQ(one.elapsed, many.elapsed);
  EXPECT_EQ(one.dead_nodes, many.dead_nodes);
  EXPECT_EQ(one.recovery_events, many.recovery_events);
  ASSERT_FALSE(one.files.empty());
  ASSERT_EQ(one.files.size(), many.files.size());
  for (const auto& [name, bytes] : one.files) {
    const auto it = many.files.find(name);
    ASSERT_NE(it, many.files.end())
        << name << " missing from the " << cell.jobs << "-worker run";
    const std::string& other = it->second;
    if (bytes != other) {
      ADD_FAILURE() << name << " differs between 1 and " << cell.jobs
                    << " workers: " << bytes.size() << " vs " << other.size()
                    << " bytes, first difference at byte offset "
                    << first_difference(bytes, other)
                    << (kept_artifact_root().empty()
                            ? ""
                            : "; both runs kept under " +
                                  kept_artifact_root().string());
    }
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

// Every other kernel, plain VNM on four workers: the CG cells above are the
// only ones whose ranks otherwise share a kernel object across threads, so
// without these a kernel that keeps per-rank state in that object races
// unseen by the TSan lane.
TEST(SchedDeterminism, EpVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kEP}, 0x3f2607fd7d52835d);
}
TEST(SchedDeterminism, MgVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kMG}, 0x169f4029ae748296);
}
TEST(SchedDeterminism, FtVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kFT}, 0x2dfa5fca855cfc43);
}
TEST(SchedDeterminism, IsVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kIS}, 0x94a0d36256ccf46b);
}
TEST(SchedDeterminism, LuVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kLU}, 0x7a195a5d42019df3);
}
TEST(SchedDeterminism, SpVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kSP}, 0x7a2e5661659d38a6);
}
TEST(SchedDeterminism, BtVnmPlain) {
  expect_identical({.bench = nas::Benchmark::kBT}, 0x6a4b328cd3b59c68);
}

/// 256 ranks (64 VNM nodes) on eight workers: the stress cell where
/// commit-order races would actually show up.
TEST(SchedDeterminism, Stress256Ranks) {
  expect_identical({.mode = sys::OpMode::kVnm, .nodes = 64, .jobs = 8},
                   0x4b99c233bd75c824);
}

}  // namespace
}  // namespace bgp
