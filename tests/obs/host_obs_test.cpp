// Host-side observability primitives: the structured JSONL event log
// (leveled, rotating, one write(2) per line) and the mmap-backed flight
// ring (crash-surviving, CRC-framed, salvageable). These are the pieces
// bgpcd composes into its self-characterization surface, tested here
// without a daemon.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strfmt.hpp"
#include "obs/flight_ring.hpp"
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

// --- flight ring -----------------------------------------------------------

TEST(FlightRing, AppendAndReadBackInOrder) {
  const fs::path dir = test_dir("ring_basic");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  FlightRing ring(cfg);
  EXPECT_FALSE(ring.recovered_dirty());

  for (int i = 0; i < 5; ++i) ring.append(strfmt("{\"n\":%d}", i));
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(recs[size_t(i)], strfmt("{\"n\":%d}", i));
  fs::remove_all(dir);
}

TEST(FlightRing, WrapsKeepingTheNewestRecords) {
  const fs::path dir = test_dir("ring_wrap");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  FlightRing ring(cfg);
  for (int i = 0; i < 20; ++i) ring.append(strfmt("{\"n\":%d}", i));
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(recs.front(), "{\"n\":12}");
  EXPECT_EQ(recs.back(), "{\"n\":19}");
  fs::remove_all(dir);
}

TEST(FlightRing, TruncatesOversizedRecordsToSlotCapacity) {
  const fs::path dir = test_dir("ring_trunc");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;  // 48 bytes of text capacity
  FlightRing ring(cfg);
  ring.append(std::string(300, 'x'));
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0], std::string(48, 'x'));
  fs::remove_all(dir);
}

/// Snapshot the live ring file (the page cache view — exactly what a
/// SIGKILL would leave behind) without running the clean-close destructor.
fs::path dirty_copy(const FlightRing& ring, const fs::path& to) {
  fs::copy_file(ring.path(), to, fs::copy_options::overwrite_existing);
  return to;
}

TEST(FlightRing, DirtyRingIsSalvagedInSequenceOrder) {
  const fs::path dir = test_dir("ring_salvage");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  auto ring = std::make_unique<FlightRing>(cfg);
  for (int i = 0; i < 11; ++i) ring->append(strfmt("{\"n\":%d}", i));
  const fs::path crashed = dirty_copy(*ring, dir / "crashed.ring");

  // The standalone salvager sees the dirty copy's surviving tail.
  const auto salvaged = salvage_flight_ring(crashed);
  ASSERT_EQ(salvaged.size(), 8u);
  EXPECT_EQ(salvaged.front(), "{\"n\":3}");
  EXPECT_EQ(salvaged.back(), "{\"n\":10}");

  // Re-opening the dirty file as a ring salvages then resets.
  FlightRingConfig reopen = cfg;
  reopen.path = crashed;
  FlightRing successor(reopen);
  EXPECT_TRUE(successor.recovered_dirty());
  EXPECT_EQ(successor.salvaged(), salvaged);
  EXPECT_TRUE(successor.records().empty());  // fresh ring for this life

  // A cleanly closed ring leaves nothing to explain.
  ring.reset();
  EXPECT_TRUE(salvage_flight_ring(cfg.path).empty());
  FlightRing clean_reopen(cfg);
  EXPECT_FALSE(clean_reopen.recovered_dirty());
  fs::remove_all(dir);
}

// An empty slot is all zeros: length 0 and CRC32 0, the CRC of nothing. A
// bit flip in its sequence word once salvaged a record never written.
TEST(FlightRing, EmptySlotIsNeverSalvaged) {
  const fs::path dir = test_dir("ring_phantom");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  auto ring = std::make_unique<FlightRing>(cfg);
  for (int i = 0; i < 3; ++i) ring->append(strfmt("{\"n\":%d}", i));
  const fs::path crashed = dirty_copy(*ring, dir / "crashed.ring");
  const auto want = salvage_flight_ring(crashed);
  ASSERT_EQ(want.size(), 3u);
  std::string dirty;
  {
    std::ifstream in(crashed, std::ios::binary);
    dirty.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr std::size_t kHeaderBytes = 32;
  for (std::size_t slot = 3; slot < cfg.num_slots; ++slot) {
    for (unsigned bit = 0; bit < 64; ++bit) {
      std::string bytes = dirty;
      bytes[kHeaderBytes + slot * cfg.slot_bytes + bit / 8] ^=
          static_cast<char>(1u << (bit % 8));
      std::ofstream(crashed, std::ios::binary | std::ios::trunc) << bytes;
      EXPECT_EQ(salvage_flight_ring(crashed), want)
          << "slot " << slot << " sequence bit " << bit;
    }
  }
  fs::remove_all(dir);
}

TEST(FlightRing, SalvageRejectsForeignAndMissingFiles) {
  const fs::path dir = test_dir("ring_foreign");
  EXPECT_TRUE(salvage_flight_ring(dir / "nope.ring").empty());
  std::ofstream(dir / "foreign.ring") << "this is not a flight ring at all";
  EXPECT_TRUE(salvage_flight_ring(dir / "foreign.ring").empty());
  // And the ring constructor recreates over it rather than failing.
  FlightRingConfig cfg;
  cfg.path = dir / "foreign.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  FlightRing ring(cfg);
  EXPECT_FALSE(ring.recovered_dirty());
  ring.append("{\"ok\":true}");
  EXPECT_EQ(ring.records().size(), 1u);
  fs::remove_all(dir);
}

TEST(FlightRing, SignalSafeDumpWritesEveryRecordAsLines) {
  const fs::path dir = test_dir("ring_dump");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 8;
  cfg.slot_bytes = 64;
  FlightRing ring(cfg);
  for (int i = 0; i < 12; ++i) ring.append(strfmt("{\"n\":%d}", i));

  const fs::path out = dir / "flight.jsonl";
  const int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(fd, 0);
  ring.dump_signal_safe(fd);
  ::close(fd);

  const auto lines = file_lines(out);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines.front(), "{\"n\":4}");
  EXPECT_EQ(lines.back(), "{\"n\":11}");
  fs::remove_all(dir);
}

TEST(FlightRing, ConcurrentAppendersNeverCorruptTheRing) {
  const fs::path dir = test_dir("ring_mt");
  FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.num_slots = 64;
  cfg.slot_bytes = 64;
  FlightRing ring(cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < 500; ++i) {
        ring.append(strfmt("{\"t\":%d,\"i\":%d}", t, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto recs = ring.records();
  EXPECT_EQ(recs.size(), 64u);
  for (const std::string& r : recs) {
    EXPECT_EQ(r.rfind("{\"t\":", 0), 0u) << r;
    EXPECT_EQ(r.back(), '}') << r;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgp::obs
