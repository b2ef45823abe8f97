#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/span_io.hpp"
#include "json_check.hpp"

namespace bgp {
namespace {

namespace fs = std::filesystem;
using obs::SpanCat;

/// A small deterministic recorder: 2 nodes x 2 cores, nested spans on
/// (0,0), a span on (1,1), one instant.
obs::FlightRecorder make_recorder() {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  obs::FlightRecorder fr(2, 2, cfg);
  obs::SpanRecorder& r00 = fr.rank(0, 0);
  r00.begin("region.EP", SpanCat::kRegion, 100);
  r00.begin("coll.allreduce", SpanCat::kCollective, 200);
  r00.end(350);
  r00.begin("coll.barrier", SpanCat::kCollective, 400);
  r00.end(500);
  r00.end(1000);
  obs::SpanRecorder& r11 = fr.rank(1, 1);
  r11.begin("upc.start", SpanCat::kUpc, 40);
  r11.end(80);
  r11.instant("fault.node_death", SpanCat::kFault, 77);
  return fr;
}

TEST(ChromeTrace, RendersValidWellNestedJson) {
  const obs::FlightRecorder fr = make_recorder();
  const std::string json =
      obs::render_chrome_trace(fr.all_spans(), fr.all_instants(), "synthetic");

  ASSERT_TRUE(testjson::valid_json(json)) << json;

  // Golden structure: metadata names the processes/threads, spans are "X"
  // complete events with exact cycle stamps in args, instants are
  // thread-scoped "i" events.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node0000\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node0001\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"region.EP\",\"cat\":\"region\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault.node_death\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);

  const auto events = testjson::extract_x_events(json);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(testjson::well_nested(events));

  // Timestamps are cycles at 850 cycles/us: region.EP spans [100,1000).
  EXPECT_NE(json.find(strfmt("\"ts\":%.3f", 100 / 850.0)), std::string::npos);
  EXPECT_NE(json.find(strfmt("\"dur\":%.3f", 900 / 850.0)), std::string::npos);
  EXPECT_NE(json.find("\"bc\":100,\"ec\":1000"), std::string::npos);

  // Host times are deliberately absent: rendering twice from recorders
  // built at different host times gives the same bytes.
  const obs::FlightRecorder fr2 = make_recorder();
  EXPECT_EQ(json, obs::render_chrome_trace(fr2.all_spans(), fr2.all_instants(),
                                           "synthetic"));
}

TEST(ChromeTrace, OverlappingSiblingsOnOneTrackAreCaught) {
  // Sanity-check the checker itself: partial overlap must be rejected.
  std::vector<testjson::XEvent> bad(2);
  bad[0] = {"a", 0, 0, 100, 300};
  bad[1] = {"b", 0, 0, 200, 400};
  EXPECT_FALSE(testjson::well_nested(bad));
  // Same intervals on different tracks are fine.
  bad[1].tid = 1;
  EXPECT_TRUE(testjson::well_nested(bad));
}

TEST(SpanIo, FileRoundTripPreservesEverySpan) {
  const obs::FlightRecorder fr = make_recorder();
  const fs::path dir = fs::temp_directory_path() / "bgpc_obs_spanio";
  fs::remove_all(dir);
  fs::create_directories(dir);

  for (const unsigned node : {0u, 1u}) {
    obs::write_span_file(obs::span_file_path(dir, "synthetic", node),
                         "synthetic", node, fr);
  }
  const obs::SpanFile f0 =
      obs::load_span_file(obs::span_file_path(dir, "synthetic", 0));
  EXPECT_EQ(f0.app, "synthetic");
  EXPECT_EQ(f0.node, 0u);
  ASSERT_EQ(f0.spans.size(), 3u);
  EXPECT_EQ(f0.spans[0].name, "region.EP");  // sorted by begin, depth
  EXPECT_EQ(f0.spans[0].begin_cycles, 100u);
  EXPECT_EQ(f0.spans[0].end_cycles, 1000u);
  EXPECT_EQ(f0.spans[1].name, "coll.allreduce");
  EXPECT_EQ(f0.spans[1].cat, SpanCat::kCollective);
  EXPECT_EQ(f0.spans[1].depth, 1u);

  const obs::SpanSet set = obs::load_span_dir(dir, "synthetic");
  EXPECT_EQ(set.nodes, (std::vector<unsigned>{0u, 1u}));
  EXPECT_EQ(set.spans.size(), 4u);
  ASSERT_EQ(set.instants.size(), 1u);
  EXPECT_EQ(set.instants[0].name, "fault.node_death");
  EXPECT_EQ(set.instants[0].node, 1u);
  EXPECT_EQ(set.instants[0].cycles, 77u);

  // A different app's files are not picked up.
  EXPECT_TRUE(obs::load_span_dir(dir, "otherapp").nodes.empty());
  fs::remove_all(dir);
}

TEST(SpanIo, SelfProfileAggregatesByName) {
  const obs::FlightRecorder fr = make_recorder();
  const auto rows = obs::self_profile(fr.all_spans());
  ASSERT_EQ(rows.size(), 4u);
  // Sorted by inclusive cycles descending: region.EP (900) first.
  EXPECT_EQ(rows[0].name, "region.EP");
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_EQ(rows[0].cycles, 900u);
  EXPECT_EQ(rows[1].name, "coll.allreduce");
  EXPECT_EQ(rows[1].cycles, 150u);
}

/// Write `bytes` to `p`, sealed with their CRC32 when `seal`.
void write_span_bytes(const fs::path& p, std::string bytes, bool seal) {
  const u32 crc = crc32(std::as_bytes(std::span(bytes)));
  for (unsigned i = 0; seal && i < sizeof(crc); ++i) {
    bytes.push_back(static_cast<char>(crc >> 8 * i));
  }
  std::ofstream(p, std::ios::binary) << bytes;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Every malformed file throws the documented std::runtime_error: a field
// that is not a number once threw std::invalid_argument, and a truncation
// at a line boundary or a flipped digit once loaded silently.
TEST(SpanIo, MalformedFilesThrow) {
  const fs::path dir = fs::temp_directory_path() / "bgpc_obs_badspan";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path p = dir / "bad.node0000.bgps";
  std::ofstream(p) << "not a span file\n";
  EXPECT_THROW((void)obs::load_span_file(p), std::runtime_error);

  const std::string v = std::to_string(obs::kSpanFormatVersion);
  for (const std::string& bad :
       {"bgpspans " + v + " EP node=x spans=0 instants=0 dropped=0\n",
        "bgpspans " + v + " EP node=0 spans=0 instants=0 dropped=-1\n",
        "bgpspans " + v + " EP node=99999999999 spans=0 instants=0 "
                          "dropped=0\n",
        "bgpspans " + v + " EP node=0 spans=1 instants=0 dropped=0\n"
                          "S region.EP region 0 0 0x10 20 30 40\n"}) {
    write_span_bytes(p, bad, true);
    EXPECT_THROW((void)obs::load_span_file(p), std::runtime_error) << bad;
  }

  obs::write_span_file(p, "synthetic", 0, make_recorder());
  const std::string good = slurp(p);
  const std::size_t last_line = good.rfind("\nS ") + 1;
  write_span_bytes(p, good.substr(0, last_line), false);
  EXPECT_THROW((void)obs::load_span_file(p), std::runtime_error);
  std::string flipped = good;
  flipped[good.find(" 1000 ") + 1] ^= 0x01;  // an end cycle 1000 -> 0000
  write_span_bytes(p, flipped, false);
  EXPECT_THROW((void)obs::load_span_file(p), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgp
