#include "common/binio.hpp"

#include "common/crc.hpp"
#include "common/strfmt.hpp"

namespace bgp {

void encode_frame(std::byte* dst,
                  std::span<const std::byte> payload) noexcept {
  const u32 len = static_cast<u32>(payload.size());
  const u32 crc = crc32(payload);
  std::memcpy(dst, &len, sizeof(len));
  std::memcpy(dst + sizeof(len), &crc, sizeof(crc));
  std::memcpy(dst + kFrameHeaderBytes, payload.data(), payload.size());
}

const char* to_string(FrameStatus status) noexcept {
  switch (status) {
    case FrameStatus::kOk: return "frame ok";
    case FrameStatus::kTorn: return "torn frame";
    case FrameStatus::kBadLength: return "bad frame length";
    case FrameStatus::kBadCrc: return "frame checksum mismatch";
  }
  return "unknown frame status";
}

Frame decode_frame(std::span<const std::byte> bytes, u32 max_length) noexcept {
  Frame f;
  if (bytes.size() < kFrameHeaderBytes) return f;
  u32 crc = 0;
  std::memcpy(&f.length, bytes.data(), sizeof(f.length));
  std::memcpy(&crc, bytes.data() + sizeof(f.length), sizeof(crc));
  if (f.length == 0 || f.length > max_length) {
    f.status = FrameStatus::kBadLength;
  } else if (f.length > bytes.size() - kFrameHeaderBytes) {
    f.status = FrameStatus::kTorn;
  } else if (crc32(bytes.subspan(kFrameHeaderBytes, f.length)) != crc) {
    f.status = FrameStatus::kBadCrc;
  } else {
    f.status = FrameStatus::kOk;
    f.payload = bytes.subspan(kFrameHeaderBytes, f.length);
  }
  return f;
}

void BinaryWriter::seal() {
  put<u32>(crc32(std::span(buf_).subspan(section_)));
  section_ = buf_.size();
}

void BinaryWriter::put_frame(std::span<const std::byte> payload) {
  const std::size_t at = buf_.size();
  buf_.resize(at + kFrameHeaderBytes + payload.size());
  encode_frame(buf_.data() + at, payload);
}

void BinaryWriter::write_file(const std::filesystem::path& path) const {
  write_file_bytes(path, buf_);
}

BinaryReader::BinaryReader(const std::filesystem::path& path)
    : name_(path.string()), file_(path, std::ios::binary | std::ios::ate) {
  if (!file_) {
    throw BinIoError("cannot open for read: " + name_);
  }
  size_ = static_cast<std::size_t>(file_.tellg());
  file_.seekg(0);
}

void BinaryReader::fail_truncated(const std::string& what) const {
  throw BinIoTruncated((name_.empty() ? "" : name_ + ": ") + what);
}

void BinaryReader::fetch(void* dst, std::size_t n) {
  if (n > remaining()) {
    fail_truncated(strfmt("binary input truncated (%zu bytes at offset %zu, "
                          "%zu left)",
                          n, pos_, remaining()));
  }
  if (file_.is_open()) {
    file_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(file_.gcount()) != n) {
      fail_truncated(strfmt("file ends inside %zu bytes at offset %zu", n,
                            pos_));
    }
  } else if (n != 0) {
    std::memcpy(dst, data_.data() + pos_, n);
  }
  crc_ = crc32({static_cast<const std::byte*>(dst), n}, crc_);
  pos_ += n;
}

std::string BinaryReader::get_string() {
  std::string s(counted(get<u32>(), 1, "string bytes"), '\0');
  get_array(std::span(s));
  return s;
}

std::size_t BinaryReader::counted(u64 count, std::size_t record_bytes,
                                  const char* what) {
  if (record_bytes != 0 && count > remaining() / record_bytes) {
    fail_truncated(strfmt("input claims %llu %s of %zu bytes at offset %zu "
                          "but only %zu bytes remain",
                          static_cast<unsigned long long>(count), what,
                          record_bytes, pos_, remaining()));
  }
  return static_cast<std::size_t>(count);
}

void BinaryReader::check_seal(const char* what) {
  const u32 computed = crc_;
  const std::size_t crc_at = pos_;
  const u32 stored = get<u32>();
  if (stored != computed) {
    throw BinIoError(strfmt("%s%s CRC mismatch over bytes %zu..%zu (stored "
                            "%08X, computed %08X)",
                            name_.empty() ? "" : (name_ + ": ").c_str(), what,
                            section_, crc_at, stored, computed));
  }
  begin_section();
}

std::vector<std::byte> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw BinIoError("cannot open for read: " + path.string());
  }
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> buf(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!in) {
    throw BinIoError("short read: " + path.string());
  }
  return buf;
}

void write_file_bytes(const std::filesystem::path& path,
                      std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw BinIoError("cannot open for write: " + path.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw BinIoError("short write: " + path.string());
  }
}

}  // namespace bgp
