// Startup recovery: a restarted Service replays its journal, re-lists every
// terminal session exactly as it ended, aborts orphaned in-flight sessions
// and salvages their last BGPSNAP checkpoint into minable dumps — and a
// second restart changes nothing (recovery is idempotent because the first
// one journals the aborts it decides).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "daemon/journal.hpp"
#include "daemon/service.hpp"
#include "daemon/snapfile.hpp"
#include "nas/kernel.hpp"
#include "postproc/loader.hpp"

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpcd_rec_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JobSpec quick_spec() {
  JobSpec spec;
  spec.bench = nas::Benchmark::kEP;
  spec.cls = nas::ProblemClass::kS;
  spec.machine.num_nodes = 2;
  return spec;
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

/// Append admit(+start) records for a session the daemon never got to
/// finish — the on-disk state an in-flight session leaves when the process
/// is SIGKILLed.
void journal_orphan(const fs::path& journal, const JobSpec& spec,
                    const std::string& name, bool started) {
  JournalWriter w(journal);
  JournalRecord admit;
  admit.op = journal_op::kAdmit;
  admit.session = name;
  json::Value body = json::Value::object();
  JobSpec named = spec;
  named.session = name;
  body.set("spec", named.to_json());
  admit.body = body;
  w.append(admit);
  if (started) {
    JournalRecord start;
    start.op = journal_op::kStart;
    start.session = name;
    start.body = json::Value::object();
    w.append(start);
  }
}

/// The checkpoint a crashed session's publisher left behind: a snapshot
/// file whose nodes are mid-run (kCounting), writer gone, seqlock stable.
void write_orphan_snapshot(const fs::path& dir, const std::string& app,
                           const std::string& session, unsigned nodes) {
  fs::create_directories(dir);
  SnapshotWriter w(dir / "counters.bgpsnap", app, session, nodes);
  std::array<u64, isa::kCountersPerUnit> counters{};
  for (unsigned node = 0; node < nodes; ++node) {
    counters[0] = 1000 + node;
    counters[7] = 42;
    w.publish_node(node, node, node / 32, 0, SnapState::kCounting,
                   123'456 + node, counters);
  }
}

TEST(ServiceRecovery, RelistsFinishedAbortsAndSalvagesOrphans) {
  const fs::path dir = test_dir();
  ServiceConfig cfg;
  cfg.work_dir = dir;

  // Life 1: one session runs to completion (auto-named s0000); its finish
  // record is journaled by the live daemon.
  SessionStatus done;
  {
    Service svc(cfg);
    const SubmitResult res = svc.submit(quick_spec());
    ASSERT_TRUE(res.ok) << res.detail;
    ASSERT_EQ(res.session, "s0000");
    done = wait_terminal(svc, "s0000");
    ASSERT_EQ(done.state, SessionState::kFinished) << done.detail;
  }

  // Crash aftermath, hand-staged: an admitted-and-started session whose
  // checkpoint snapshot survived, with no terminal record.
  journal_orphan(dir / "bgpcd.journal", quick_spec(), "orphan", true);
  write_orphan_snapshot(dir / "orphan", "ep", "orphan", 2);

  // Life 2: recovery re-lists the finished session verbatim and salvages
  // the orphan.
  Service svc(cfg);
  const RecoveryReport& rec = svc.recovery();
  EXPECT_TRUE(rec.journal_found);
  EXPECT_EQ(rec.relisted, 1u);
  EXPECT_EQ(rec.orphans_aborted, 1u);
  EXPECT_EQ(rec.dumps_salvaged, 2u);
  // The restart's narrative lands in the one durable event record.
  {
    std::ifstream events(dir / "events.jsonl");
    ASSERT_TRUE(events.is_open());
    bool orphan_noted = false;
    for (std::string line; std::getline(events, line);) {
      const json::Value ev = json::Value::parse(line);
      orphan_noted = orphan_noted ||
                     (ev.get("event")->as_string() == "recovery_note" &&
                      ev.get("note")->as_string().find(
                          "aborted orphaned session 'orphan'") !=
                          std::string::npos);
    }
    EXPECT_TRUE(orphan_noted);
  }

  SessionStatus st;
  ASSERT_TRUE(svc.status("s0000", &st));
  EXPECT_EQ(st.state, SessionState::kFinished);
  EXPECT_TRUE(st.recovered);
  EXPECT_EQ(st.verified, done.verified);
  EXPECT_EQ(st.dump_files, done.dump_files);
  EXPECT_EQ(st.trace_files, done.trace_files);
  EXPECT_EQ(st.sim_cycles, done.sim_cycles);
  EXPECT_EQ(st.detail, done.detail);

  ASSERT_TRUE(svc.status("orphan", &st));
  EXPECT_EQ(st.state, SessionState::kAborted);
  EXPECT_TRUE(st.recovered);
  EXPECT_NE(st.detail.find("orphaned by daemon restart (was running)"),
            std::string::npos)
      << st.detail;
  EXPECT_EQ(st.dump_files, 2u);
  ASSERT_FALSE(st.salvage_dir.empty());

  // The salvaged dumps are minable through the standard tolerant loader.
  const post::LoadReport loaded =
      post::load_dumps_tolerant(st.salvage_dir, "ep");
  EXPECT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.dumps.size(), 2u);
  EXPECT_EQ(loaded.dumps[0].node_id, 0u);
  EXPECT_EQ(loaded.dumps[1].node_id, 1u);

  // The auto-name counter advanced past recovered names: no collision.
  const SubmitResult fresh = svc.submit(quick_spec());
  ASSERT_TRUE(fresh.ok) << fresh.detail;
  EXPECT_EQ(fresh.session, "s0001");
  (void)wait_terminal(svc, fresh.session);
}

TEST(ServiceRecovery, SecondRestartIsIdempotent) {
  const fs::path dir = test_dir();
  ServiceConfig cfg;
  cfg.work_dir = dir;

  journal_orphan(dir / "bgpcd.journal", quick_spec(), "orphan", false);
  write_orphan_snapshot(dir / "orphan", "ep", "orphan", 2);

  fs::file_time_type salvage_mtime;
  {
    Service svc(cfg);
    EXPECT_EQ(svc.recovery().orphans_aborted, 1u);
    SessionStatus st;
    ASSERT_TRUE(svc.status("orphan", &st));
    EXPECT_NE(st.detail.find("(was queued)"), std::string::npos) << st.detail;
    ASSERT_FALSE(st.salvage_dir.empty());
    salvage_mtime =
        fs::last_write_time(st.salvage_dir / "ep.node0000.bgpc");
  }

  // Restart again: the abort record written by the first recovery makes
  // the orphan terminal — it is re-listed, not re-salvaged.
  Service svc(cfg);
  EXPECT_EQ(svc.recovery().orphans_aborted, 0u);
  EXPECT_EQ(svc.recovery().relisted, 1u);
  SessionStatus st;
  ASSERT_TRUE(svc.status("orphan", &st));
  EXPECT_EQ(st.state, SessionState::kAborted);
  EXPECT_EQ(st.dump_files, 2u);
  EXPECT_FALSE(st.salvage_dir.empty());
  EXPECT_EQ(fs::last_write_time(st.salvage_dir / "ep.node0000.bgpc"),
            salvage_mtime)
      << "second recovery rewrote the salvage dumps";
}

TEST(ServiceRecovery, TornJournalTailIsDroppedAndReported) {
  const fs::path dir = test_dir();
  ServiceConfig cfg;
  cfg.work_dir = dir;

  journal_orphan(dir / "bgpcd.journal", quick_spec(), "whole", false);
  // Append a torn frame by hand: a frame header promising more payload
  // than the file holds (exactly what a crash mid-append leaves).
  {
    JournalRecord rec;
    rec.op = journal_op::kAdmit;
    rec.session = "torn";
    rec.body = json::Value::object();
    const std::vector<std::byte> frame = encode_journal_frame(rec);
    std::ofstream out(dir / "bgpcd.journal",
                      std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() / 2));
  }

  Service svc(cfg);
  EXPECT_GT(svc.recovery().bytes_dropped, 0u);
  EXPECT_FALSE(svc.recovery().tail_error.empty());
  // The committed record survived; the torn one never surfaced.
  SessionStatus st;
  EXPECT_TRUE(svc.status("whole", &st));
  EXPECT_FALSE(svc.status("torn", &st));
}

TEST(ServiceRecovery, DisabledRecoveryStartsEmpty) {
  const fs::path dir = test_dir();
  ServiceConfig cfg;
  cfg.work_dir = dir;
  journal_orphan(dir / "bgpcd.journal", quick_spec(), "ghost", true);

  ServiceConfig off = cfg;
  off.recover = false;
  Service svc(off);
  EXPECT_EQ(svc.list().size(), 0u);
  EXPECT_FALSE(svc.recovery().journal_found);
}

}  // namespace
}  // namespace bgp::daemon
