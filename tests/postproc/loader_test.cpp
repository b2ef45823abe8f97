// Robustness of the dump-file loader against real directory contents:
// junk files, other applications' dumps, unsorted node numbering.
#include "postproc/loader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "core/node_monitor.hpp"

namespace bgp::post {
namespace {

namespace fs = std::filesystem;

class LoaderDir : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs fixture tests concurrently.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("bgpc_loader_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_dump(const std::string& app, u32 node) {
    pc::NodeDump d;
    d.node_id = node;
    d.card_id = node / 2;
    d.counter_mode = node % 2;
    d.app_name = app;
    pc::SetDump s;
    s.set_id = 0;
    s.pairs = 1;
    s.last_stop_cycle = 100;
    d.sets.push_back(s);
    const auto bytes = pc::NodeMonitor::serialize(d);
    std::ofstream out(dir_ / strfmt("%s.node%04u.bgpc", app.c_str(), node),
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(LoaderDir, LoadsOnlyMatchingAppAndSortsByNode) {
  write_dump("FT", 3);
  write_dump("FT", 0);
  write_dump("FT", 12);
  write_dump("CG", 1);  // other app: ignored
  std::ofstream(dir_ / "notes.txt") << "junk";
  std::ofstream(dir_ / "FT.node0003.bgpc.bak") << "junk";

  const auto dumps = load_dumps(dir_, "FT");
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_EQ(dumps[0].node_id, 0u);
  EXPECT_EQ(dumps[1].node_id, 3u);
  EXPECT_EQ(dumps[2].node_id, 12u);
  for (const auto& d : dumps) EXPECT_EQ(d.app_name, "FT");
}

TEST_F(LoaderDir, EmptyDirectoryThrowsWithClearError) {
  // A silent empty result used to mask typo'd app names and missing runs.
  try {
    (void)load_dumps(dir_, "FT");
    FAIL() << "expected BinIoError";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("FT.node*.bgpc"), std::string::npos)
        << e.what();
  }
}

TEST_F(LoaderDir, MissingDirectoryThrows) {
  EXPECT_THROW((void)load_dumps(dir_ / "nope", "FT"), BinIoError);
}

TEST_F(LoaderDir, CorruptFileThrows) {
  std::ofstream(dir_ / "FT.node0000.bgpc") << "this is not a dump";
  EXPECT_THROW((void)load_dumps(dir_, "FT"), BinIoError);
}

TEST_F(LoaderDir, ExplicitFileListRoundTrip) {
  write_dump("IS", 5);
  const auto dumps =
      load_dumps(std::vector<fs::path>{dir_ / "IS.node0005.bgpc"});
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].node_id, 5u);
  EXPECT_EQ(dumps[0].counter_mode, 1u);
}

TEST_F(LoaderDir, MissingExplicitFileThrows) {
  EXPECT_THROW((void)load_dumps(std::vector<fs::path>{dir_ / "nope.bgpc"}),
               BinIoError);
}

// ---- malformed-file edge cases ---------------------------------------------

class LoaderEdgeCases : public LoaderDir {
 protected:
  fs::path write_bytes(const std::string& name,
                       const std::vector<std::byte>& bytes) {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  static pc::NodeDump sample_dump() {
    pc::NodeDump d;
    d.node_id = 7;
    d.card_id = 3;
    d.counter_mode = 1;
    d.app_name = "LU";
    pc::SetDump s;
    s.set_id = 0;
    s.pairs = 2;
    s.first_start_cycle = 10;
    s.last_stop_cycle = 500;
    for (unsigned c = 0; c < isa::kCountersPerUnit; ++c) s.deltas[c] = c * 3;
    d.sets.push_back(s);
    return d;
  }
};

TEST_F(LoaderEdgeCases, ZeroLengthFileThrows) {
  const auto p = write_bytes("LU.node0000.bgpc", {});
  EXPECT_THROW((void)load_dump(p), BinIoError);
}

TEST_F(LoaderEdgeCases, BadMagicThrows) {
  auto bytes = pc::NodeMonitor::serialize(sample_dump());
  bytes[0] ^= std::byte{0xFF};
  const auto p = write_bytes("LU.node0007.bgpc", bytes);
  try {
    (void)load_dump(p);
    FAIL() << "expected BinIoError";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(LoaderEdgeCases, UnsupportedVersionThrows) {
  // 99 was never written; 1 carried no checksums and is no longer read.
  for (const u8 version : {u8{99}, u8{1}}) {
    auto bytes = pc::NodeMonitor::serialize(sample_dump());
    bytes[4] = std::byte{version};  // version field follows the magic
    const auto p = write_bytes("LU.node0007.bgpc", bytes);
    try {
      (void)load_dump(p);
      FAIL() << "expected BinIoError for version " << unsigned{version};
    } catch (const BinIoError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(LoaderEdgeCases, HeaderClaimingMoreSetsThanBytesThrows) {
  // An inflated set count behind a valid header seal must be caught by
  // the plausibility check before any allocation, not crash or over-read.
  const pc::NodeDump d = sample_dump();
  BinaryWriter w;
  w.put<u32>(pc::kDumpMagic);
  w.put<u32>(pc::kDumpVersion);
  w.begin_section();
  w.put<u32>(d.node_id);
  w.put<u32>(d.card_id);
  w.put<u32>(d.counter_mode);
  w.put_string(d.app_name);
  w.put<u32>(0xFFFF);
  w.seal();
  const auto p = write_bytes("LU.node0007.bgpc", w.buffer());
  try {
    (void)load_dump(p);
    FAIL() << "expected BinIoError";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("sets"), std::string::npos)
        << e.what();
  }
}

TEST_F(LoaderEdgeCases, TruncatedFileThrows) {
  auto bytes = pc::NodeMonitor::serialize(sample_dump());
  bytes.resize(bytes.size() / 2);
  const auto p = write_bytes("LU.node0007.bgpc", bytes);
  EXPECT_THROW((void)load_dump(p), BinIoError);
}

TEST_F(LoaderEdgeCases, FlippedByteFailsTheSectionCrc) {
  auto bytes = pc::NodeMonitor::serialize(sample_dump());
  bytes[bytes.size() - 40] ^= std::byte{0x10};  // inside the last set record
  const auto p = write_bytes("LU.node0007.bgpc", bytes);
  try {
    (void)load_dump(p);
    FAIL() << "expected BinIoError";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
}

TEST_F(LoaderEdgeCases, TolerantLoadSkipsBadFilesAndReports) {
  write_dump("FT", 0);
  write_dump("FT", 1);
  write_dump("FT", 2);
  auto bytes = pc::NodeMonitor::serialize(sample_dump());
  bytes[bytes.size() - 8] ^= std::byte{0x01};
  write_bytes("FT.node0003.bgpc", bytes);

  const LoadReport rep = load_dumps_tolerant(dir_, "FT");
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.dumps.size(), 3u);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(rep.errors[0].file.filename(), "FT.node0003.bgpc");
  EXPECT_NE(rep.errors[0].reason.find("CRC"), std::string::npos);
}

TEST_F(LoaderEdgeCases, TolerantLoadOfEmptyDirectoryIsAnError) {
  const LoadReport rep = load_dumps_tolerant(dir_, "FT");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.dumps.empty());
  ASSERT_EQ(rep.errors.size(), 1u);
}

}  // namespace
}  // namespace bgp::post
