// Session-manager behavior: admission control returns structured codes
// without disturbing running sessions, kill lands in kKilled with
// checkpoint dumps, and — the core daemon guarantee — a finished daemon
// session's artifacts are byte-identical to the built bgpc_run binary run
// with the matching flags and snapshot configuration, on one scheduler
// worker and on two. bgpc_trace and bgpc_run are held to the same
// identity, the attach tools name a corrupt or wedged snapshot slot, and
// the miner does not print memory metrics no node measured.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "daemon/service.hpp"
#include "daemon/snapfile.hpp"
#include "fault/fault.hpp"

#if !defined(BGPC_RUN_BINARY) || !defined(BGPC_TRACE_BINARY) || \
    !defined(BGPC_OBS_BINARY) || !defined(BGPC_MINE_BINARY)
#error "service_test needs -DBGPC_{RUN,TRACE,OBS,MINE}_BINARY=..."
#endif

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir(const char* leaf) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (std::string("bgpcd_svc_") + info->name()) / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A span file without its host-clock columns: each `S` line ends in the
/// host begin/end ns and each `I` line in the host ns, which no two
/// processes share, and so does the CRC32 seal after the last line that
/// covers them. Every simulated field stays.
std::string simulated_spans(const std::string& text) {
  std::istringstream in(text.substr(0, text.size() - sizeof(u32)));
  std::string out, line;
  while (std::getline(in, line)) {
    const int host_cols = line.starts_with("S ")   ? 2
                          : line.starts_with("I ") ? 1
                                                   : 0;
    for (int i = 0; i < host_cols; ++i) line.erase(line.rfind(' '));
    out += line + '\n';
  }
  return out;
}

/// All artifact bytes except the snapshot file (whose header carries the
/// session name; it is compared semantically instead). Span files keep
/// their simulated fields only.
std::map<std::string, std::string> artifact_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "counters.bgpsnap") continue;
    files[name] = entry.path().extension() == ".bgps"
                      ? simulated_spans(slurp(entry.path()))
                      : slurp(entry.path());
  }
  return files;
}

void expect_same_artifacts(const fs::path& want_dir, const fs::path& got_dir) {
  const auto want = artifact_bytes(want_dir);
  const auto got = artifact_bytes(got_dir);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, bytes] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name << " missing from " << got_dir;
    EXPECT_EQ(bytes, it->second) << name << " differs";
  }
}

/// Run a built tool with `args`; returns its combined output and sets
/// `*exit_code`.
std::string run_tool(const char* binary, const std::string& args,
                     int* exit_code) {
  const std::string cmd = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

SessionStatus wait_terminal(const Service& svc, const std::string& name) {
  SessionStatus st;
  for (int i = 0; i < 60'000; ++i) {
    EXPECT_TRUE(svc.status(name, &st));
    if (st.state != SessionState::kQueued &&
        st.state != SessionState::kRunning) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "session " << name << " never reached a terminal state";
  return st;
}

JobSpec job(const char* json_text) {
  return JobSpec::from_json(json::Value::parse(json_text));
}

/// EP class S on two nodes, traced, snapshots every 85,000 cycles — the
/// period bgpc_run spells --snapshot-period=100us.
constexpr const char* kQuickJob =
    R"({"bench":"EP","class":"S","nodes":2,"trace":true,)"
    R"("snapshot_period_cycles":85000})";
constexpr const char* kQuickFlags =
    "EP --class=S --nodes=2 --trace --snapshot-period=100us";

JobSpec quick_spec() { return job(kQuickJob); }

/// A session long enough (seconds of wall time) to kill or reject against
/// while it is reliably still running.
JobSpec slow_spec() {
  JobSpec spec;
  spec.bench = nas::Benchmark::kCG;
  spec.cls = nas::ProblemClass::kW;
  spec.machine.num_nodes = 4;
  return spec;
}

/// Submit `job_json` to a daemon and run bgpc_run with `flags` (the same
/// run spelled as flags); the two must write the same artifacts, cycles
/// and snapshot contents.
void expect_daemon_matches_batch(const char* job_json,
                                 const std::string& flags) {
  JobSpec spec = job(job_json);
  spec.session = "det";
  ServiceConfig cfg;
  cfg.work_dir = test_dir("daemon");
  Service svc(cfg);
  const SubmitResult res = svc.submit(spec);
  ASSERT_TRUE(res.ok) << res.error_code << ": " << res.detail;
  const SessionStatus st = wait_terminal(svc, "det");
  ASSERT_EQ(st.state, SessionState::kFinished) << st.detail;
  EXPECT_TRUE(st.verified) << st.detail;
  EXPECT_EQ(st.dump_files, spec.machine.num_nodes);
  EXPECT_EQ(st.trace_files, spec.trace.enabled ? spec.machine.num_nodes : 0);

  const bool snapshots = spec.snapshot_period_cycles != 0;
  const fs::path batch_dir = test_dir("batch");
  const fs::path batch_snap = batch_dir / "counters.bgpsnap";
  std::string args = flags + " --dumps=" + batch_dir.string();
  if (snapshots) args += " --snapshot-file=" + batch_snap.string();
  int code = -1;
  const std::string out = run_tool(BGPC_RUN_BINARY, args, &code);
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("(" + std::to_string(st.sim_cycles) +
                     " cycles on the slowest node)"),
            std::string::npos)
      << out;
  expect_same_artifacts(batch_dir, st.dump_dir);

  // The snapshot file: same node states, cycles and counter words (the
  // header's session name legitimately differs). With final-only
  // snapshots the batch run had no publisher at all, and the daemon's
  // final snapshot must still have landed.
  SnapshotReader dr = SnapshotReader::open_file(st.snapshot_path);
  std::optional<SnapshotReader> br;
  if (snapshots) br.emplace(SnapshotReader::open_file(batch_snap));
  for (unsigned node = 0; node < dr.num_nodes(); ++node) {
    NodeSnapshot a, b;
    ASSERT_TRUE(dr.read_node(node, a));
    EXPECT_EQ(a.state, SnapState::kFinal);
    if (!br) continue;
    ASSERT_EQ(dr.num_nodes(), br->num_nodes());
    EXPECT_EQ(dr.app(), br->app());
    ASSERT_TRUE(br->read_node(node, b));
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.published_cycle, b.published_cycle);
    EXPECT_EQ(a.card_id, b.card_id);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.counters, b.counters);
  }
}

TEST(ServiceDeterminism, DaemonDumpMatchesBatchSerial) {
  expect_daemon_matches_batch(kQuickJob, kQuickFlags);
}

TEST(ServiceDeterminism, DaemonDumpMatchesBatchParallel) {
  expect_daemon_matches_batch(
      R"({"bench":"EP","class":"S","nodes":2,"trace":true,)"
      R"("snapshot_period_cycles":85000,"sched":"parallel","jobs":2})",
      std::string(kQuickFlags) + " --sched=parallel --jobs=2");
}

// The machine knobs (L3 size, prefetch depth, compiler options) reach a
// daemon session exactly as they reach bgpc_run.
TEST(ServiceDeterminism, MachineKnobsMatchBatch) {
  expect_daemon_matches_batch(
      R"({"bench":"CG","class":"S","nodes":2,"l3":4,"prefetch":0,)"
      R"("opt":"-O3","snapshot_period_cycles":85000})",
      "CG --class=S --nodes=2 --l3=4 --prefetch=0 --opt=-O3 "
      "--snapshot-period=100us");
}

// snapshot_period_cycles = 0 publishes only the final snapshot and adds no
// pacer consumer: the run must be byte- and cycle-identical to a batch run
// with no publisher at all.
TEST(ServiceDeterminism, FinalOnlySnapshotsPerturbNothing) {
  expect_daemon_matches_batch(
      R"({"bench":"EP","class":"S","nodes":2,"trace":true,)"
      R"("snapshot_period_cycles":0})",
      "EP --class=S --nodes=2 --trace");
}

// bgpc_trace runs the same nas::Run as bgpc_run: with the flight recorder
// on, the dumps and traces match byte for byte and the span files in every
// simulated field.
TEST(ServiceDeterminism, BgpcTraceMatchesBgpcRun) {
  const fs::path run_dir = test_dir("run");
  const fs::path trace_dir = test_dir("trace");
  int code = -1;
  std::string out = run_tool(
      BGPC_RUN_BINARY,
      "EP --class=S --nodes=2 --trace --obs --dumps=" + run_dir.string(),
      &code);
  ASSERT_EQ(code, 0) << out;
  out = run_tool(BGPC_TRACE_BINARY,
                 "EP --class=S --nodes=2 --obs --quiet --dumps=" +
                     trace_dir.string(),
                 &code);
  ASSERT_EQ(code, 0) << out;
  EXPECT_EQ(artifact_bytes(run_dir).size(), 6u);  // dump, trace, spans x2
  expect_same_artifacts(run_dir, trace_dir);
}

// --snapshot-period paces a publisher, and without --snapshot-file there is
// none: the flag is a usage error instead of being ignored.
TEST(BgpcRunFlags, SnapshotPeriodWithoutASnapshotFileIsAUsageError) {
  const fs::path dir = test_dir("run");
  int code = -1;
  const std::string out = run_tool(
      BGPC_RUN_BINARY,
      "EP --class=S --nodes=1 --snapshot-period=100us --dumps=" + dir.string(),
      &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--snapshot-period needs --snapshot-file"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("usage: bgpc_run"), std::string::npos) << out;
  EXPECT_TRUE(fs::is_empty(dir));  // nothing ran
}

// A finished snapshot file with one node's active slot corrupted: both
// attach tools name that node CORRUPT, still read the other node, and
// exit 1.
TEST(AttachTools, CorruptSlotIsNamedAndFailsBothTools) {
  const fs::path dir = test_dir("run");
  const std::string snap = (dir / "counters.bgpsnap").string();
  int code = -1;
  std::string out = run_tool(BGPC_RUN_BINARY,
                             "EP --class=S --nodes=2 --snapshot-file=" + snap +
                                 " --dumps=" + dir.string(),
                             &code);
  ASSERT_EQ(code, 0) << out;
  out = run_tool(BGPC_OBS_BINARY, "--attach=" + snap, &code);
  ASSERT_EQ(code, 0) << out;

  {  // Flip a counter bit in node 1's active slot (docs/formats.md).
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    const auto word = [&f](u64 at) {
      u64 v = 0;
      f.seekg(static_cast<std::streamoff>(at));
      f.read(reinterpret_cast<char*>(&v), sizeof v);
      return v;
    };
    const u64 block = word(16) + word(24);  // node blocks, one block bytes
    constexpr u64 kSlotBytes = (5 + isa::kCountersPerUnit + 1) * 8;
    const u64 at = block + 16 + word(block + 8) * kSlotBytes + 5 * 8;
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(at));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 1);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }

  out = run_tool(BGPC_OBS_BINARY, "--attach=" + snap, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("node   0 card"), std::string::npos) << out;
  EXPECT_NE(out.find("node   1 CORRUPT (slot CRC mismatch)"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("BUSY"), std::string::npos) << out;

  out = run_tool(BGPC_MINE_BINARY, "--attach=" + snap, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("nodes: 1 readable (0 counting, 1 final), 0 busy, "
                     "1 corrupt"),
            std::string::npos)
      << out;
}

// Writes a snapshot file of `nodes` nodes, each published once at cycle
// 100, whose writer then died mid-publish of node 0: node 0's seqlock
// stays odd.
void write_wedged_snapshot(const fs::path& snap, unsigned nodes) {
  std::vector<fault::DaemonFaultEvent> plan(1);
  plan[0].kind = fault::DaemonFaultKind::kSnapshotTorn;
  plan[0].after = nodes;
  fault::DaemonFaultInjector faults(std::move(plan));
  SnapshotWriter w(snap, "ep", "wedged", nodes, kSnapMetricsCapacity, &faults);
  const std::array<u64, isa::kCountersPerUnit> counters{};
  for (unsigned n = 0; n < nodes; ++n) {
    w.publish_node(n, n, 0, 0, SnapState::kCounting, 100, counters);
  }
  w.publish_node(0, 0, 0, 0, SnapState::kCounting, 200, counters);  // torn
}

// A dead writer left node 0's seqlock odd: after their last attempt both
// attach tools still show node 1, name node 0 busy and exit 1. With node 0
// the only node, nothing is readable, and neither tool labels the file
// final or prints a metric.
TEST(AttachTools, WedgedNodeIsNamedBusyBesideTheReadableOnes) {
  const fs::path snap = test_dir("run") / "counters.bgpsnap";
  write_wedged_snapshot(snap, 2);
  std::string args = "--attach=" + snap.string() + " --attach-retries=2";
  int code = -1;
  std::string out = run_tool(BGPC_OBS_BINARY, args, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("node   1 card"), std::string::npos) << out;
  EXPECT_NE(out.find("node   0 BUSY"), std::string::npos) << out;

  out = run_tool(BGPC_MINE_BINARY, args, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("nodes: 1 readable (1 counting, 0 final), 1 busy, "
                     "0 corrupt"),
            std::string::npos)
      << out;

  const fs::path lone = test_dir("lone") / "counters.bgpsnap";
  write_wedged_snapshot(lone, 1);
  args = "--attach=" + lone.string() + " --attach-retries=2";
  out = run_tool(BGPC_OBS_BINARY, args, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("app ep — no readable node\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("node   0 BUSY"), std::string::npos) << out;

  out = run_tool(BGPC_MINE_BINARY, args, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("app ep — no readable node\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("nodes: 0 readable (0 counting, 0 final), 1 busy, "
                     "0 corrupt"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("exec cycles"), std::string::npos) << out;
  EXPECT_EQ(out.find("MFLOPS"), std::string::npos) << out;
}

// Two nodes sit on node card 0, which counts mode 0 only, so no node
// measured the memory metrics: both miner modes say so instead of printing
// zeros, and both print the node count of each mode.
TEST(MineTools, MemoryMetricsNoNodeCountedAreNotMeasured) {
  const fs::path dir = test_dir("run");
  const std::string snap = (dir / "counters.bgpsnap").string();
  int code = -1;
  std::string out = run_tool(BGPC_RUN_BINARY,
                             "EP --class=S --nodes=2 --mode=smp4 "
                             "--snapshot-file=" + snap +
                                 " --dumps=" + dir.string(),
                             &code);
  ASSERT_EQ(code, 0) << out;
  const std::string none = "not measured (no node counted mode 1)";
  for (const std::string& args : {dir.string() + " EP", "--attach=" + snap}) {
    out = run_tool(BGPC_MINE_BINARY, args, &code);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("mode-0 nodes (per-core events): 2\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("mode-1 nodes (memory events):   0\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("L3<->DDR traffic/node:       " + none),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("L3 read miss ratio:          " + none),
              std::string::npos)
        << out;
  }
}

TEST(Service, RejectionsAreStructuredAndLeaveRunningSessionsAlone) {
  ServiceConfig cfg;
  cfg.work_dir = test_dir("work");
  cfg.quotas.max_sessions = 1;
  cfg.quotas.max_ranks = 64;
  Service svc(cfg);

  JobSpec runner = slow_spec();
  runner.session = "runner";
  ASSERT_TRUE(svc.submit(runner).ok);

  {  // session quota: the runner occupies the only slot
    const SubmitResult r = svc.submit(quick_spec());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "over_quota_sessions");
    EXPECT_NE(r.detail.find("quota is 1"), std::string::npos);
  }
  {  // duplicate name
    JobSpec dup = quick_spec();
    dup.session = "runner";
    const SubmitResult r = svc.submit(dup);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "duplicate_session");
  }
  {  // invalid name (checked before anything else)
    JobSpec bad = quick_spec();
    bad.session = ".hidden";
    EXPECT_EQ(svc.submit(bad).error_code, "invalid_session");
  }

  // The rejections above must not have perturbed the running session.
  SessionStatus st;
  ASSERT_TRUE(svc.status("runner", &st));
  EXPECT_TRUE(st.state == SessionState::kQueued ||
              st.state == SessionState::kRunning);

  // Cut the runner short rather than riding out class W.
  std::string err;
  EXPECT_TRUE(svc.kill("runner", &err)) << err;
  st = wait_terminal(svc, "runner");
  EXPECT_EQ(st.state, SessionState::kKilled);

  {  // rank quota (no live session needed)
    JobSpec wide = quick_spec();
    wide.machine.num_nodes = 32;  // 128 VNM ranks > 64
    const SubmitResult r = svc.submit(wide);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "over_quota_ranks");
  }

  svc.begin_drain();
  {  // draining refuses everything
    const SubmitResult r = svc.submit(quick_spec());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "draining");
  }
}

TEST(Service, ByteQuotaCountsOnlyLiveSessions) {
  ServiceConfig cfg;
  cfg.work_dir = test_dir("work");
  // Enough for one slow session (4 nodes VNM: ~56 MiB) but not two.
  cfg.quotas.max_resident_bytes = 80 * MiB;
  Service svc(cfg);

  JobSpec first = slow_spec();
  first.session = "first";
  ASSERT_TRUE(svc.submit(first).ok);

  JobSpec second = slow_spec();
  second.session = "second";
  const SubmitResult r = svc.submit(second);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "over_quota_bytes");
  EXPECT_NE(r.detail.find("budget"), std::string::npos);

  // An outsized L3 is counted too: its estimate saturates rather than
  // wrapping the budget check.
  JobSpec huge = slow_spec();
  huge.session = "huge";
  huge.machine.boot.l3_size_bytes = ~u64{0} / MiB * MiB;
  EXPECT_EQ(svc.submit(huge).error_code, "over_quota_bytes");

  std::string err;
  ASSERT_TRUE(svc.kill("first", &err)) << err;
  (void)wait_terminal(svc, "first");

  // The killed session's budget is released; the same job now fits.
  EXPECT_TRUE(svc.submit(second).ok);
  ASSERT_TRUE(svc.kill("second", &err)) << err;
  (void)wait_terminal(svc, "second");
}

TEST(Service, KillCheckpointsAndSealsMidRun) {
  ServiceConfig cfg;
  cfg.work_dir = test_dir("work");
  Service svc(cfg);

  JobSpec spec = slow_spec();
  spec.session = "victim";
  spec.trace.enabled = true;
  spec.snapshot_period_cycles = 50'000;
  ASSERT_TRUE(svc.submit(spec).ok);

  // Kill only once every node is counting, so that each one checkpoints
  // mid-run: watch the session's snapshot file rather than a clock.
  SessionStatus st;
  bool all_counting = false;
  for (int i = 0; i < 10'000 && !all_counting; ++i) {
    ASSERT_TRUE(svc.status("victim", &st));
    ASSERT_TRUE(st.state == SessionState::kQueued ||
                st.state == SessionState::kRunning)
        << "the victim ended before every node was counting";
    if (fs::exists(st.snapshot_path)) {  // renamed into place when complete
      const SnapshotReader r = SnapshotReader::open_file(st.snapshot_path);
      NodeSnapshot snap;
      all_counting = r.num_nodes() == 4;
      for (unsigned node = 0; node < r.num_nodes() && all_counting; ++node) {
        all_counting =
            r.read_node(node, snap) && snap.state == SnapState::kCounting;
      }
    }
    if (!all_counting) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(all_counting) << "never saw all four nodes counting";

  std::string err;
  ASSERT_TRUE(svc.kill("victim", &err)) << err;
  st = wait_terminal(svc, "victim");
  ASSERT_EQ(st.state, SessionState::kKilled);
  EXPECT_NE(st.detail.find("checkpoint"), std::string::npos);
  EXPECT_EQ(st.dump_files, 4u);   // every node checkpoint-dumped
  EXPECT_EQ(st.trace_files, 4u);  // every trace sealed

  // Killing again is a structured no-op.
  EXPECT_FALSE(svc.kill("victim", &err));
  EXPECT_NE(err.find("already killed"), std::string::npos);
  EXPECT_FALSE(svc.kill("nobody", &err));
  EXPECT_NE(err.find("no session"), std::string::npos);

  // The checkpoint dumps are readable, non-empty artifacts on disk.
  unsigned dumps = 0;
  for (const auto& entry : fs::directory_iterator(st.dump_dir)) {
    if (entry.path().extension() == ".bgpc") {
      ++dumps;
      EXPECT_GT(fs::file_size(entry.path()), 0u);
    }
  }
  EXPECT_EQ(dumps, 4u);
  // And the snapshot's final word is published for every node.
  SnapshotReader r = SnapshotReader::open_file(st.snapshot_path);
  NodeSnapshot snap;
  for (unsigned node = 0; node < r.num_nodes(); ++node) {
    ASSERT_TRUE(r.read_node(node, snap));
    EXPECT_EQ(snap.state, SnapState::kFinal);
  }
}

TEST(Service, AutoNamesAndMetricsAccounting) {
  ServiceConfig cfg;
  cfg.work_dir = test_dir("work");
  Service svc(cfg);

  const SubmitResult a = svc.submit(quick_spec());
  const SubmitResult b = svc.submit(quick_spec());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.session, "s0000");
  EXPECT_EQ(b.session, "s0001");
  (void)wait_terminal(svc, a.session);
  (void)wait_terminal(svc, b.session);

  svc.update_metrics();
  const auto series = [&](const char* name, obs::LabelSet labels = {}) {
    return svc.metrics().counter(name, "", std::move(labels)).value();
  };
  EXPECT_EQ(series("bgpcd_sessions_admitted_total"), 2u);
  EXPECT_EQ(series("bgpcd_sessions_done_total", {{"state", "finished"}}), 2u);
  EXPECT_EQ(series("bgpcd_sessions_done_total", {{"state", "failed"}}), 0u);
  EXPECT_GT(series("bgpcd_snapshot_publishes_total"), 0u);
}

}  // namespace
}  // namespace bgp::daemon
