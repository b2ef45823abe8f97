// Host-side observability primitives: the host clock and the structured
// JSONL event log (leveled, rotating, one write(2) per line, its newest
// lines kept in memory). These are the pieces bgpcd composes into its
// self-characterization surface, tested here without a daemon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strfmt.hpp"
#include "obs/host_clock.hpp"
#include "obs/host_log.hpp"

namespace bgp::obs {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* name) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("bgpc_hostobs_") + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> file_lines(const fs::path& p) {
  std::ifstream in(p);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- host clock ------------------------------------------------------------

TEST(HostClock, MonotoneAndBoundsAreSane) {
  const i64 a = host_now_ns();
  const i64 b = host_now_ns();
  EXPECT_GE(b, a);

  const std::vector<double>& bounds = host_latency_bounds();
  ASSERT_GE(bounds.size(), 8u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]) << "bounds must ascend";
  }
  EXPECT_LT(bounds.back(), 3.0);
}

TEST(HostClock, TimerObservesElapsedSeconds) {
  Histogram h(host_latency_bounds());
  HostTimer t;
  const double s = t.observe(&h);
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 1.0);  // arming a timer does not take a second
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), s);
  // Null histogram: still returns the elapsed time, observes nowhere.
  HostTimer t2;
  EXPECT_GE(t2.observe(nullptr), 0.0);
}

// --- event levels + rendering ---------------------------------------------

TEST(HostLog, LevelNamesRoundTrip) {
  for (const EventLevel lv : {EventLevel::kDebug, EventLevel::kInfo,
                              EventLevel::kWarn, EventLevel::kError}) {
    const auto parsed = parse_event_level(to_string(lv));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, lv);
  }
  EXPECT_FALSE(parse_event_level("verbose").has_value());
  EXPECT_FALSE(parse_event_level("INFO").has_value());  // case-sensitive
  EXPECT_FALSE(parse_event_level("").has_value());
}

TEST(HostLog, JsonEscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(HostLog, EventRendersFixedSchemaInFieldOrder) {
  const std::string line = HostEvent("session_admit")
                               .str("req", "r000042")
                               .str("session", "s0001")
                               .num("nodes", u64{16})
                               .num("wait_s", 0.25)
                               .boolean("verified", true)
                               .render(EventLevel::kInfo, 1234);
  EXPECT_EQ(line,
            "{\"ts_ns\":1234,\"level\":\"info\",\"event\":\"session_admit\","
            "\"req\":\"r000042\",\"session\":\"s0001\",\"nodes\":16,"
            "\"wait_s\":0.25,\"verified\":true}");
}

// --- JSONL file sink -------------------------------------------------------

TEST(HostLog, WritesOneLinePerEventAndFiltersByLevel) {
  const fs::path dir = test_dir("log_levels");
  HostLogConfig cfg;
  cfg.path = dir / "events.jsonl";
  cfg.file_level = EventLevel::kInfo;
  HostEventLog log(cfg);
  EXPECT_FALSE(log.enabled(EventLevel::kDebug));
  EXPECT_TRUE(log.enabled(EventLevel::kInfo));

  log.write_line(EventLevel::kDebug, "{\"event\":\"dropped\"}");
  log.write_line(EventLevel::kInfo, "{\"event\":\"kept\"}");
  log.write_line(EventLevel::kError, "{\"event\":\"kept_too\"}");

  const auto lines = file_lines(cfg.path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"event\":\"kept\"}");
  EXPECT_EQ(lines[1], "{\"event\":\"kept_too\"}");
  EXPECT_EQ(log.lines_written(), 2u);
  fs::remove_all(dir);
}

TEST(HostLog, RotatesBySizeAndKeepsBoundedGenerations) {
  const fs::path dir = test_dir("log_rotate");
  HostLogConfig cfg;
  cfg.path = dir / "events.jsonl";
  cfg.rotate_bytes = 128;
  cfg.rotate_keep = 2;
  HostEventLog log(cfg);

  // ~60 bytes per line: every 2-3 lines forces a rotation.
  for (int i = 0; i < 20; ++i) {
    log.write_line(EventLevel::kInfo,
                   strfmt("{\"event\":\"fill\",\"n\":%d,\"pad\":\"%032d\"}",
                          i, i));
  }
  EXPECT_GT(log.rotations(), 0u);
  EXPECT_TRUE(fs::exists(cfg.path));
  EXPECT_TRUE(fs::exists(dir / "events.jsonl.1"));
  EXPECT_FALSE(fs::exists(dir / "events.jsonl.3"));  // keep=2 bounds it

  // Every surviving line is intact (rotation never tears a line), and
  // together the generations hold the newest writes.
  std::vector<std::string> all;
  for (const char* name :
       {"events.jsonl.2", "events.jsonl.1", "events.jsonl"}) {
    for (const std::string& l : file_lines(dir / name)) {
      EXPECT_EQ(l.front(), '{');
      EXPECT_EQ(l.back(), '}');
      all.push_back(l);
    }
  }
  ASSERT_FALSE(all.empty());
  EXPECT_NE(all.back().find("\"n\":19"), std::string::npos);
  fs::remove_all(dir);
}

// The in-memory tail is what /debug/events serves: the newest lines, in
// the order they reached the file, however many threads write.
TEST(HostLog, RecentLinesAreTheNewestInFileOrderUnderConcurrentWriters) {
  const fs::path dir = test_dir("log_recent");
  HostLogConfig cfg;
  cfg.path = dir / "events.jsonl";
  HostEventLog log(cfg);
  constexpr int kWriters = 4;
  constexpr int kLinesEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kLinesEach; ++i) {
        log.write_line(EventLevel::kInfo,
                       strfmt("{\"t\":%d,\"i\":%d}", t, i));
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::vector<std::string> all = file_lines(cfg.path);
  ASSERT_EQ(all.size(), std::size_t{kWriters * kLinesEach});
  const std::vector<std::string> recent = log.recent_lines();
  ASSERT_EQ(recent.size(), HostEventLog::kRecentLines);
  ASSERT_EQ(HostEventLog::kRecentLines, 512u);
  EXPECT_TRUE(std::equal(recent.begin(), recent.end(),
                         all.end() - std::ptrdiff_t{512}));
  // Each writer's lines keep their order within the tail.
  int last[kWriters] = {-1, -1, -1, -1};
  for (const std::string& line : recent) {
    int t = -1, i = -1;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"t\":%d,\"i\":%d}", &t, &i), 2)
        << line;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kWriters);
    EXPECT_GT(i, last[t]) << line;
    last[t] = i;
  }
  fs::remove_all(dir);
}

// A predecessor killed mid-write, or a short write, leaves the file's
// last line without its newline. The next event gets a line of its own
// instead of being glued onto the torn one; a whole last line gets no
// blank line after it.
TEST(HostLog, TornLastLineIsTerminatedBeforeTheNextEvent) {
  const fs::path dir = test_dir("log_torn");
  const fs::path path = dir / "events.jsonl";
  std::ofstream(path) << "{\"event\":\"whole\"}\n{\"event\":\"to";
  {
    HostLogConfig cfg;
    cfg.path = path;
    HostEventLog log(cfg);
    log.write_line(EventLevel::kInfo, "{\"event\":\"next\"}");
  }
  {
    HostLogConfig cfg;
    cfg.path = path;
    HostEventLog log(cfg);
    log.write_line(EventLevel::kInfo, "{\"event\":\"after_restart\"}");
  }
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "{\"event\":\"whole\"}");
  EXPECT_EQ(lines[1], "{\"event\":\"to");
  EXPECT_EQ(lines[2], "{\"event\":\"next\"}");
  EXPECT_EQ(lines[3], "{\"event\":\"after_restart\"}");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgp::obs
