// The record codec every on-disk format is written and read with
// (docs/formats.md). Little-endian scalars, plus the three framing rules,
// each stated once here:
//
//   sealed section  bytes followed by the CRC32 of those bytes
//                   (BinaryWriter::seal, BinaryReader::check_seal)
//   frame           u32 length | u32 CRC32(payload) | payload, with a
//                   length from 1 to a caller-given maximum
//                   (encode_frame, decode_frame)
//   counted read    a record count is checked against the bytes left
//                   before anything is sized from it
//                   (BinaryReader::counted)
#pragma once

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bgp {

/// Error thrown on malformed or truncated binary input.
class BinIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The input ends before a read, a seal or a counted run of records does.
/// Streamed formats read it as a torn tail; everything else as corruption.
class BinIoTruncated : public BinIoError {
 public:
  using BinIoError::BinIoError;
};

/// Bytes of a frame ahead of its payload: u32 length, u32 CRC32.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Write one frame of a non-empty `payload` at `dst`, which must hold
/// kFrameHeaderBytes + payload.size() bytes. Allocation-free.
void encode_frame(std::byte* dst, std::span<const std::byte> payload) noexcept;

enum class FrameStatus : u8 {
  kOk,
  kTorn,       ///< fewer bytes than the frame header or its length needs
  kBadLength,  ///< length 0 or above the caller's maximum
  kBadCrc,     ///< the payload does not match its CRC32
};

[[nodiscard]] const char* to_string(FrameStatus status) noexcept;

struct Frame {
  FrameStatus status = FrameStatus::kTorn;
  u32 length = 0;  ///< the stored length (0 when torn inside the header)
  std::span<const std::byte> payload;  ///< set only when status is kOk
};

/// Decode the frame at the start of `bytes`. Allocation-free and
/// async-signal-safe, so a crash handler can walk frames too.
[[nodiscard]] Frame decode_frame(std::span<const std::byte> bytes,
                                 u32 max_length) noexcept;

/// Appends little-endian scalars, byte ranges, seals and frames to an
/// in-memory buffer.
class BinaryWriter {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes({reinterpret_cast<const std::byte*>(&v), sizeof(T)});
  }

  template <typename T, std::size_t N>
  void put_array(std::span<T, N> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(std::as_bytes(values));
  }

  // Capacity grows (doubling) before the insert, which then never
  // reallocates: g++ 12 at -O3 reports a false -Wstringop-overflow inside
  // an inlined insert that may reallocate.
  void put_bytes(std::span<const std::byte> bytes) {
    if (buf_.capacity() - buf_.size() < bytes.size()) {
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + bytes.size()));
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void put_string(const std::string& s) {
    put<u32>(static_cast<u32>(s.size()));
    put_array(std::span<const char>(s));
  }

  /// Start the section the next seal() covers here (a writer starts one at
  /// offset 0).
  void begin_section() noexcept { section_ = buf_.size(); }
  /// Append the CRC32 of the open section and start the next one after it.
  void seal();
  /// Append one frame of a non-empty `payload`.
  void put_frame(std::span<const std::byte> payload);

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Write the accumulated buffer to `path`, replacing any existing file.
  void write_file(const std::filesystem::path& path) const;

 private:
  std::vector<std::byte> buf_;
  std::size_t section_ = 0;
};

/// Reads little-endian scalars, seals and counted runs of records, with the
/// same calls from a byte buffer or streamed from a file. Every byte read
/// folds into the open section's CRC32, so a streamed reader holds no more
/// of the file than the caller's own records.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data)
      : data_(data), size_(data.size()) {}
  /// Stream from a file (throws BinIoError when it cannot be opened); its
  /// errors name the file.
  explicit BinaryReader(const std::filesystem::path& path);

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    fetch(&v, sizeof(T));
    return v;
  }

  template <typename T, std::size_t N>
  void get_array(std::span<T, N> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    fetch(out.data(), out.size_bytes());
  }

  /// A u32 length, then that many bytes (a counted read).
  std::string get_string();

  /// `count` records of `record_bytes` each must fit in the bytes left;
  /// returns `count`. Throws BinIoTruncated, naming `what`, otherwise.
  std::size_t counted(u64 count, std::size_t record_bytes, const char* what);

  /// Start the section the next check_seal() covers here (a reader starts
  /// one at offset 0).
  void begin_section() noexcept {
    section_ = pos_;
    crc_ = 0;
  }
  /// Read the CRC32 that closes the open section and compare it with the
  /// section's bytes; throws BinIoError naming `what` and the byte range
  /// on a mismatch. The next section starts after the CRC.
  void check_seal(const char* what);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == size_; }

 private:
  void fetch(void* dst, std::size_t n);
  [[noreturn]] void fail_truncated(const std::string& what) const;

  std::string name_;  ///< the file, in stream mode
  std::span<const std::byte> data_;
  std::ifstream file_;  ///< open in stream mode
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t section_ = 0;
  u32 crc_ = 0;
};

/// Read a whole file into a byte vector; throws BinIoError on failure.
std::vector<std::byte> read_file_bytes(const std::filesystem::path& path);

/// Write `bytes` to `path`, replacing any existing file; throws BinIoError.
void write_file_bytes(const std::filesystem::path& path,
                      std::span<const std::byte> bytes);

}  // namespace bgp
