// Snapshot-file (BGPSNAP) round trips and the seqlock's no-torn-reads
// guarantee: a reader racing a writer must always observe a snapshot some
// single publish produced, never a mix of two. The concurrency tests here
// are the tsan lane's daemon coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "daemon/snapfile.hpp"

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path temp_path(const char* name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (std::string("bgpsnap_") + info->name());
  fs::create_directories(dir);
  return dir / name;
}

std::array<u64, isa::kCountersPerUnit> stamped(u64 stamp) {
  std::array<u64, isa::kCountersPerUnit> c{};
  c.fill(stamp);
  return c;
}

TEST(Snapfile, RoundTripsNodesAndMetrics) {
  const fs::path path = temp_path("rt.bgpsnap");
  {
    SnapshotWriter w(path, "CG", "sess-1", 3);
    w.publish_node(0, 0, 0, 0, SnapState::kCounting, 1000, stamped(7));
    w.publish_node(2, 2, 102, 1, SnapState::kFinal, 2000, stamped(9));
    w.publish_metrics("# HELP x y\nx 1\n");
  }
  SnapshotReader r = SnapshotReader::open_file(path);
  EXPECT_EQ(r.app(), "CG");
  EXPECT_EQ(r.session(), "sess-1");
  ASSERT_EQ(r.num_nodes(), 3u);

  NodeSnapshot snap;
  ASSERT_TRUE(r.read_node(0, snap));
  EXPECT_EQ(snap.state, SnapState::kCounting);
  EXPECT_EQ(snap.published_cycle, 1000u);
  EXPECT_EQ(snap.counters[0], 7u);
  EXPECT_EQ(snap.counters[isa::kCountersPerUnit - 1], 7u);

  ASSERT_TRUE(r.read_node(1, snap));  // never published: still idle
  EXPECT_EQ(snap.state, SnapState::kIdle);

  ASSERT_TRUE(r.read_node(2, snap));
  EXPECT_EQ(snap.state, SnapState::kFinal);
  EXPECT_EQ(snap.card_id, 102u);
  EXPECT_EQ(snap.mode, 1u);
  EXPECT_EQ(snap.counters[5], 9u);

  std::string metrics;
  ASSERT_TRUE(r.read_metrics(metrics));
  EXPECT_EQ(metrics, "# HELP x y\nx 1\n");
}

TEST(Snapfile, RepublishOverwritesTheActiveSlot) {
  const fs::path path = temp_path("re.bgpsnap");
  SnapshotWriter w(path, "EP", "s", 1);
  for (u64 i = 1; i <= 5; ++i) {
    w.publish_node(0, 0, 0, 0, SnapState::kCounting, i * 100, stamped(i));
  }
  SnapshotReader r = SnapshotReader::from_view(w.data(), w.size());
  NodeSnapshot snap;
  ASSERT_TRUE(r.read_node(0, snap));
  EXPECT_EQ(snap.published_cycle, 500u);
  EXPECT_EQ(snap.counters[17], 5u);
}

// A new writer at the same path builds its file aside and renames it into
// place: a reader still attached to the earlier run's file keeps reading
// that run's final word, not the new run's idle slots.
TEST(Snapfile, NewWriterLeavesAttachedReaderOnTheOldFile) {
  const fs::path path = temp_path("reuse.bgpsnap");
  std::optional<SnapshotWriter> first(std::in_place, path, "CG", "one", 1);
  first->publish_node(0, 0, 0, 0, SnapState::kFinal, 123, stamped(42));
  first.reset();
  const SnapshotReader old_reader = SnapshotReader::open_file(path);

  const SnapshotWriter second(path, "CG", "two", 1);
  NodeSnapshot snap;
  ASSERT_TRUE(old_reader.read_node(0, snap));
  EXPECT_EQ(snap.state, SnapState::kFinal);
  EXPECT_EQ(snap.published_cycle, 123u);
  EXPECT_EQ(snap.counters[0], 42u);
  EXPECT_EQ(old_reader.session(), "one");

  // A fresh attach sees the new run, and no temporary file is left behind.
  const SnapshotReader new_reader = SnapshotReader::open_file(path);
  EXPECT_EQ(new_reader.session(), "two");
  ASSERT_TRUE(new_reader.read_node(0, snap));
  EXPECT_EQ(snap.state, SnapState::kIdle);
  for (const auto& entry : fs::directory_iterator(path.parent_path())) {
    EXPECT_EQ(entry.path().extension(), ".bgpsnap") << entry.path();
  }
}

TEST(Snapfile, MetricsTextTruncatesToSlotCapacity) {
  const fs::path path = temp_path("trunc.bgpsnap");
  SnapshotWriter w(path, "EP", "s", 1, /*metrics_capacity=*/64);
  w.publish_metrics(std::string(1000, 'm'));
  SnapshotReader r = SnapshotReader::from_view(w.data(), w.size());
  std::string metrics;
  ASSERT_TRUE(r.read_metrics(metrics));
  EXPECT_LE(metrics.size(), 64u);
  EXPECT_EQ(metrics, std::string(metrics.size(), 'm'));
}

TEST(Snapfile, OpenFileRejectsForeignAndShortFiles) {
  const fs::path missing = temp_path("missing.bgpsnap");
  EXPECT_THROW((void)SnapshotReader::open_file(missing), std::exception);

  const fs::path foreign = temp_path("foreign.bgpsnap");
  std::ofstream(foreign, std::ios::binary) << "not a snapshot at all";
  EXPECT_THROW((void)SnapshotReader::open_file(foreign), std::exception);

  // A real header cut short must not be readable either.
  const fs::path shorty = temp_path("short.bgpsnap");
  std::string full;
  {
    SnapshotWriter w(temp_path("full.bgpsnap"), "EP", "s", 2);
    full.assign(reinterpret_cast<const char*>(w.data()), w.size());
  }
  std::ofstream(shorty, std::ios::binary) << full.substr(0, full.size() / 2);
  EXPECT_THROW((void)SnapshotReader::open_file(shorty), std::exception);

  // The top bit of the metrics capacity (byte 47) once wrapped the geometry
  // arithmetic, so the header passed and read_metrics threw
  // std::length_error. A file longer than its geometry is foreign too: the
  // writer sizes the file exactly.
  const fs::path wrapped = temp_path("wrapped.bgpsnap");
  std::string bytes = full;
  bytes[47] = static_cast<char>(bytes[47] ^ 0x80);
  std::ofstream(wrapped, std::ios::binary) << bytes;
  EXPECT_THROW((void)SnapshotReader::open_file(wrapped), std::runtime_error);
  const fs::path longer = temp_path("longer.bgpsnap");
  std::ofstream(longer, std::ios::binary) << full << '\0';
  EXPECT_THROW((void)SnapshotReader::open_file(longer), std::runtime_error);
}

// The seqlock contract: under a continuously republishing writer, every
// successful read is internally consistent — all 256 counters carry the
// same stamp and the published cycle matches it. A torn read would mix
// stamps from two publishes.
TEST(Snapfile, ConcurrentReadersNeverSeeTornSnapshots) {
  const fs::path path = temp_path("race.bgpsnap");
  SnapshotWriter w(path, "CG", "race", 2);
  std::atomic<bool> stop{false};
  std::atomic<u64> reads{0};

  std::thread writer([&] {
    u64 stamp = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      w.publish_node(0, 0, 0, 0, SnapState::kCounting, stamp * 10,
                     stamped(stamp));
      w.publish_node(1, 1, 101, 1, SnapState::kCounting, stamp * 10,
                     stamped(stamp));
      w.publish_metrics("stamp " + std::to_string(stamp) + "\n");
      ++stamp;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      SnapshotReader r = SnapshotReader::from_view(w.data(), w.size());
      NodeSnapshot snap;
      std::string metrics;
      while (reads.load(std::memory_order_relaxed) < 2000) {
        for (unsigned node = 0; node < 2; ++node) {
          if (!r.read_node(node, snap)) continue;  // pathological churn: retry
          if (snap.state == SnapState::kIdle) continue;
          const u64 stamp = snap.counters[0];
          EXPECT_EQ(snap.published_cycle, stamp * 10);
          for (std::size_t i = 0; i < snap.counters.size(); ++i) {
            ASSERT_EQ(snap.counters[i], stamp) << "torn read at counter " << i;
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (r.read_metrics(metrics) && !metrics.empty()) {
          EXPECT_EQ(metrics.substr(0, 6), "stamp ");
          EXPECT_EQ(metrics.back(), '\n');
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(reads.load(), 2000u);
}

// Same race through the on-disk mapping (open_file) instead of the live
// view — the cross-process attach path.
TEST(Snapfile, FileReaderRacesWriter) {
  const fs::path path = temp_path("filerace.bgpsnap");
  SnapshotWriter w(path, "EP", "filerace", 1);
  w.publish_node(0, 0, 0, 0, SnapState::kCounting, 10, stamped(1));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    u64 stamp = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      w.publish_node(0, 0, 0, 0, SnapState::kCounting, stamp * 10,
                     stamped(stamp));
      ++stamp;
    }
  });

  SnapshotReader r = SnapshotReader::open_file(path);
  NodeSnapshot snap;
  for (int i = 0; i < 2000; ++i) {
    if (!r.read_node(0, snap)) continue;
    const u64 stamp = snap.counters[0];
    EXPECT_EQ(snap.published_cycle, stamp * 10);
    for (std::size_t c = 0; c < snap.counters.size(); ++c) {
      ASSERT_EQ(snap.counters[c], stamp);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace bgp::daemon
