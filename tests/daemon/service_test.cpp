// Session-manager behavior: admission control returns structured codes
// without disturbing running sessions, kill lands in kKilled with
// checkpoint dumps, and — the core daemon guarantee — a finished daemon
// session's artifacts are byte-identical to a same-seed batch run with the
// same snapshot configuration, on one scheduler worker and on two.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "core/session.hpp"
#include "daemon/service.hpp"
#include "daemon/snapfile.hpp"
#include "fault/fault.hpp"
#include "nas/kernel.hpp"
#include "runtime/machine.hpp"
#include "runtime/obs_scope.hpp"
#include "runtime/rankctx.hpp"

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

/// All artifact bytes except the snapshot file (whose header carries the
/// session name; it is compared semantically instead).
std::map<std::string, std::string> artifact_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "counters.bgpsnap") continue;
    files[name] = slurp(entry.path());
  }
  return files;
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

struct BatchRun {
  std::map<std::string, std::string> files;
  cycles_t elapsed = 0;
};

/// The bgpc_run / Service::run_session construction, inline: same machine,
/// fault plan, session options and (optionally) snapshot publisher.
BatchRun run_batch(const JobSpec& spec, const fs::path& dir,
                   const PublisherConfig* pub_cfg) {
  rt::MachineConfig mc;
  mc.num_nodes = spec.nodes;
  mc.mode = spec.mode;
  mc.num_ranks_override = spec.ranks;
  mc.sched = spec.sched;
  mc.jobs = spec.jobs;
  rt::Machine machine(mc);

  fault::FaultInjector injector{[&] {
    fault::FaultSpec fsp;
    fsp.node_deaths = spec.deaths;
    return fault::FaultPlan::random(spec.fault_seed, spec.nodes, fsp);
  }()};
  if (spec.deaths > 0) machine.set_fault_injector(&injector);
  machine.set_ft_params(spec.ftp);

  pc::Options opts;
  opts.app_name = std::string(nas::name(spec.bench));
  opts.dump_dir = dir;
  opts.trace.enabled = spec.trace;
  opts.trace.interval_cycles = spec.interval_cycles;
  opts.trace.preset = spec.preset;
  opts.trace.trace_dir = dir;
  opts.obs.enabled = spec.obs;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  std::unique_ptr<SnapshotPublisher> publisher;
  if (pub_cfg != nullptr) {
    publisher = std::make_unique<SnapshotPublisher>(
        machine, dir / "counters.bgpsnap", opts.app_name, "batch", *pub_cfg);
  }

  auto kernel = nas::make_kernel(spec.bench, spec.cls);
  const std::string region = "region." + opts.app_name;
  machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    {
      rt::ObsScope span(ctx, region, obs::SpanCat::kRegion);
      kernel->run(ctx);
    }
    ctx.mpi_finalize();
  });
  if (publisher != nullptr) publisher->publish_final();

  BatchRun out;
  out.elapsed = machine.elapsed();
  out.files = artifact_bytes(dir);
  return out;
}

JobSpec quick_spec(rt::SchedMode sched) {
  JobSpec spec;
  spec.bench = nas::Benchmark::kEP;
  spec.cls = nas::ProblemClass::kS;
  spec.nodes = 2;
  spec.sched = sched;
  spec.jobs = sched == rt::SchedMode::kParallel ? 2 : 0;
  spec.trace = true;
  spec.snapshot_period_cycles = 100'000;
  return spec;
}

/// A session long enough (seconds of wall time) to kill or reject against
/// while it is reliably still running.
JobSpec slow_spec() {
  JobSpec spec;
  spec.bench = nas::Benchmark::kCG;
  spec.cls = nas::ProblemClass::kW;
  spec.nodes = 4;
  return spec;
}

void expect_daemon_matches_batch(rt::SchedMode sched) {
  const JobSpec spec = quick_spec(sched);

  ServiceConfig cfg;
  cfg.work_dir = test_dir("daemon");
  Service svc(cfg);
  JobSpec submitted = spec;
  submitted.session = "det";
  const SubmitResult res = svc.submit(submitted);
  ASSERT_TRUE(res.ok) << res.error_code << ": " << res.detail;
  const SessionStatus st = wait_terminal(svc, "det");
  ASSERT_EQ(st.state, SessionState::kFinished) << st.detail;
  EXPECT_TRUE(st.verified) << st.detail;
  EXPECT_EQ(st.dump_files, 2u);
  EXPECT_EQ(st.trace_files, 2u);

  PublisherConfig pub_cfg = cfg.snapshot;
  pub_cfg.period_cycles = *spec.snapshot_period_cycles;
  const fs::path batch_dir = test_dir("batch");
  const BatchRun batch = run_batch(spec, batch_dir, &pub_cfg);

  EXPECT_EQ(st.sim_cycles, batch.elapsed);
  const auto daemon_files = artifact_bytes(st.dump_dir);
  ASSERT_FALSE(daemon_files.empty());
  ASSERT_EQ(daemon_files.size(), batch.files.size());
  for (const auto& [name, bytes] : batch.files) {
    const auto it = daemon_files.find(name);
    ASSERT_NE(it, daemon_files.end()) << name << " missing from daemon run";
    EXPECT_EQ(bytes, it->second) << name << " differs daemon vs batch";
  }

  // The snapshot file: same node states, cycles and counter words (the
  // header's session name legitimately differs).
  SnapshotReader dr = SnapshotReader::open_file(st.snapshot_path);
  SnapshotReader br = SnapshotReader::open_file(batch_dir / "counters.bgpsnap");
  ASSERT_EQ(dr.num_nodes(), br.num_nodes());
  EXPECT_EQ(dr.app(), br.app());
  for (unsigned node = 0; node < dr.num_nodes(); ++node) {
    NodeSnapshot a, b;
    ASSERT_TRUE(dr.read_node(node, a));
    ASSERT_TRUE(br.read_node(node, b));
    EXPECT_EQ(a.state, SnapState::kFinal);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.published_cycle, b.published_cycle);
    EXPECT_EQ(a.card_id, b.card_id);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.counters, b.counters);
  }
}

TEST(ServiceDeterminism, DaemonDumpMatchesBatchSerial) {
  expect_daemon_matches_batch(rt::SchedMode::kSerial);
}

TEST(ServiceDeterminism, DaemonDumpMatchesBatchParallel) {
  expect_daemon_matches_batch(rt::SchedMode::kParallel);
}

// snapshot_period_cycles = 0 publishes only the final snapshot and installs
// no pulse hooks: the run must be byte- and cycle-identical to a batch run
// with no publisher at all.
TEST(ServiceDeterminism, FinalOnlySnapshotsPerturbNothing) {
  JobSpec spec = quick_spec(rt::SchedMode::kSerial);
  spec.snapshot_period_cycles = 0;

  ServiceConfig cfg;
  cfg.work_dir = test_dir("daemon");
  Service svc(cfg);
  JobSpec submitted = spec;
  submitted.session = "final-only";
  ASSERT_TRUE(svc.submit(submitted).ok);
  const SessionStatus st = wait_terminal(svc, "final-only");
  ASSERT_EQ(st.state, SessionState::kFinished) << st.detail;

  JobSpec plain = spec;
  const BatchRun batch = run_batch(plain, test_dir("batch"), nullptr);
  EXPECT_EQ(st.sim_cycles, batch.elapsed);
  const auto daemon_files = artifact_bytes(st.dump_dir);
  ASSERT_EQ(daemon_files.size(), batch.files.size());
  for (const auto& [name, bytes] : batch.files) {
    ASSERT_TRUE(daemon_files.count(name)) << name;
    EXPECT_EQ(bytes, daemon_files.at(name)) << name;
  }
  // And the final-only snapshot still landed, with every node final.
  SnapshotReader r = SnapshotReader::open_file(st.snapshot_path);
  NodeSnapshot snap;
  for (unsigned node = 0; node < r.num_nodes(); ++node) {
    ASSERT_TRUE(r.read_node(node, snap));
    EXPECT_EQ(snap.state, SnapState::kFinal);
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
    const SubmitResult r = svc.submit(quick_spec(rt::SchedMode::kSerial));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "over_quota_sessions");
    EXPECT_NE(r.detail.find("quota is 1"), std::string::npos);
  }
  {  // duplicate name
    JobSpec dup = quick_spec(rt::SchedMode::kSerial);
    dup.session = "runner";
    const SubmitResult r = svc.submit(dup);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "duplicate_session");
  }
  {  // invalid name (checked before anything else)
    JobSpec bad = quick_spec(rt::SchedMode::kSerial);
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
    JobSpec wide = quick_spec(rt::SchedMode::kSerial);
    wide.nodes = 32;  // 128 VNM ranks > 64
    const SubmitResult r = svc.submit(wide);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "over_quota_ranks");
  }

  svc.begin_drain();
  {  // draining refuses everything
    const SubmitResult r = svc.submit(quick_spec(rt::SchedMode::kSerial));
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
  spec.trace = true;
  spec.snapshot_period_cycles = 50'000;
  ASSERT_TRUE(svc.submit(spec).ok);

  // Let it get properly underway (class W runs for seconds).
  SessionStatus st;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(svc.status("victim", &st));
    if (st.state == SessionState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

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

  const SubmitResult a = svc.submit(quick_spec(rt::SchedMode::kSerial));
  const SubmitResult b = svc.submit(quick_spec(rt::SchedMode::kSerial));
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
