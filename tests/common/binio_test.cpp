#include "common/binio.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace bgp {
namespace {

TEST(BinIo, ScalarRoundTrip) {
  BinaryWriter w;
  w.put<u32>(0xDEADBEEF);
  w.put<u64>(0x0123456789ABCDEFull);
  w.put<double>(3.14159);
  w.put<u8>(7);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get<u32>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<u64>(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get<double>(), 3.14159);
  EXPECT_EQ(r.get<u8>(), 7);
  EXPECT_TRUE(r.at_end());
}

TEST(BinIo, StringRoundTrip) {
  BinaryWriter w;
  w.put_string("hello, world");
  w.put_string("");
  w.put_string(std::string("embedded\0null", 13));

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get_string(), "hello, world");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("embedded\0null", 13));
  EXPECT_TRUE(r.at_end());
}

TEST(BinIo, TruncatedReadThrows) {
  BinaryWriter w;
  w.put<u32>(1);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get<u32>(), 1u);
  EXPECT_THROW(r.get<u8>(), BinIoError);
}

TEST(BinIo, TruncatedStringThrows) {
  BinaryWriter w;
  w.put<u32>(100);  // claims 100 bytes follow, but none do
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.get_string(), BinIoError);
}

TEST(BinIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "bgp_binio_test.bin";
  BinaryWriter w;
  for (u64 i = 0; i < 1000; ++i) w.put<u64>(i * i);
  w.write_file(path);

  const auto bytes = read_file_bytes(path);
  ASSERT_EQ(bytes.size(), w.size());
  BinaryReader r(bytes);
  for (u64 i = 0; i < 1000; ++i) EXPECT_EQ(r.get<u64>(), i * i);
  std::filesystem::remove(path);
}

TEST(BinIo, MissingFileThrows) {
  EXPECT_THROW(read_file_bytes("/nonexistent/bgp/file.bin"), BinIoError);
}

TEST(BinIo, RemainingAndPosition) {
  BinaryWriter w;
  w.put<u64>(1);
  w.put<u64>(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  r.get<u64>();
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(BinIo, SealedSectionsRoundTripAndNameTheirRange) {
  BinaryWriter w;
  w.put<u32>(7);  // outside any section
  w.begin_section();
  w.put<u64>(42);
  w.put_string("abc");
  w.seal();
  w.put<u16>(9);  // the next section starts after the CRC
  w.seal();
  {
    BinaryReader r(w.buffer());
    EXPECT_EQ(r.get<u32>(), 7u);
    r.begin_section();
    EXPECT_EQ(r.get<u64>(), 42u);
    EXPECT_EQ(r.get_string(), "abc");
    r.check_seal("first");
    EXPECT_EQ(r.get<u16>(), 9u);
    r.check_seal("second");
    EXPECT_TRUE(r.at_end());
  }
  std::vector<std::byte> bytes = w.buffer();
  bytes[6] ^= std::byte{0x01};
  BinaryReader r(bytes);
  r.get<u32>();
  r.begin_section();
  r.get<u64>();
  r.get_string();
  try {
    r.check_seal("first");
    FAIL() << "expected BinIoError";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("first CRC mismatch over bytes "
                                         "4..19"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinIo, CountedReadChecksTheBytesLeftWithoutOverflow) {
  BinaryWriter w;
  for (u64 i = 0; i < 4; ++i) w.put<u64>(i);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.counted(4, sizeof(u64), "words"), 4u);
  EXPECT_THROW((void)r.counted(5, sizeof(u64), "words"), BinIoTruncated);
  EXPECT_THROW((void)r.counted(~u64{0}, sizeof(u64), "words"),
               BinIoTruncated);
  try {
    (void)r.counted(u64{1} << 61, 16, "sets");
    FAIL() << "expected BinIoTruncated";
  } catch (const BinIoTruncated& e) {
    EXPECT_NE(std::string(e.what()).find("sets"), std::string::npos);
  }
}

TEST(BinIo, FramesRoundTripAndRejectEveryOtherShape) {
  const std::string text = "payload";
  BinaryWriter w;
  w.put_frame(std::as_bytes(std::span(text)));
  const std::vector<std::byte> frame = w.buffer();
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + text.size());

  const Frame ok = decode_frame(frame, 64);
  ASSERT_EQ(ok.status, FrameStatus::kOk);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(ok.payload.data()),
                        ok.payload.size()),
            text);
  EXPECT_EQ(decode_frame(frame, 6).status, FrameStatus::kBadLength);
  EXPECT_EQ(decode_frame(std::span(frame).first(10), 64).status,
            FrameStatus::kTorn);
  EXPECT_EQ(decode_frame(std::span(frame).first(5), 64).status,
            FrameStatus::kTorn);
  std::vector<std::byte> flipped = frame;
  flipped.back() ^= std::byte{0x20};
  EXPECT_EQ(decode_frame(flipped, 64).status, FrameStatus::kBadCrc);
  // All zeros is a zero-length frame whose CRC (of nothing) matches: still
  // not a record.
  EXPECT_EQ(decode_frame(std::vector<std::byte>(16), 64).status,
            FrameStatus::kBadLength);
}

TEST(BinIo, StreamedFileReadsWithTheSameCalls) {
  const auto path =
      std::filesystem::temp_directory_path() / "bgp_binio_stream_test.bin";
  BinaryWriter w;
  w.put<u32>(3);
  for (u64 i = 0; i < 3; ++i) w.put<u64>(i * 11);
  w.seal();
  w.write_file(path);
  {
    BinaryReader r(path);
    EXPECT_EQ(r.remaining(), w.size());
    std::vector<u64> values(r.counted(r.get<u32>(), sizeof(u64), "values"));
    r.get_array(std::span(values));
    EXPECT_EQ(values, (std::vector<u64>{0, 11, 22}));
    r.check_seal("values");
    EXPECT_TRUE(r.at_end());
    try {
      r.get<u8>();
      FAIL() << "expected BinIoTruncated";
    } catch (const BinIoTruncated& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path.string() + ": ", 0), 0u)
          << e.what();
    }
  }
  std::filesystem::remove(path);
  EXPECT_THROW(BinaryReader{path}, BinIoError);
}

}  // namespace
}  // namespace bgp
