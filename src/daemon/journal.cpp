#include "daemon/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"
#include "obs/host_clock.hpp"

namespace bgp::daemon {

namespace {

std::vector<std::byte> journal_header_bytes() {
  BinaryWriter w;
  w.put_array(std::span(kJournalMagic));
  w.put<u32>(kJournalVersion);
  return w.buffer();
}

/// write() the whole buffer, retrying short writes and real EINTR.
/// Returns an errno on failure, 0 on success.
int write_fully(int fd, const std::byte* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    done += static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace

json::Value JournalRecord::to_json() const {
  json::Value v = json::Value::object();
  v.set("op", json::Value(op));
  v.set("session", json::Value(session));
  v.set("body", body);
  return v;
}

JournalRecord JournalRecord::from_json(const json::Value& v) {
  JournalRecord rec;
  const json::Value* op = v.get("op");
  const json::Value* session = v.get("session");
  if (!op || !session) {
    throw json::JsonError("journal record missing op/session");
  }
  rec.op = op->as_string();
  rec.session = session->as_string();
  if (const json::Value* body = v.get("body")) rec.body = *body;
  return rec;
}

std::vector<std::byte> encode_journal_frame(const JournalRecord& rec) {
  const std::string payload = rec.to_json().dump();
  BinaryWriter w;
  w.put_frame(std::as_bytes(std::span(payload)));
  return w.buffer();
}

JournalReplay replay_journal(const std::filesystem::path& path) {
  JournalReplay out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return out;

  const std::vector<std::byte> bytes = read_file_bytes(path);
  if (bytes.empty()) {
    // Created but never got its header (crash between open and write):
    // an empty journal.
    return out;
  }
  if (bytes.size() >= sizeof(kJournalMagic) &&
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw JournalError(
        strfmt("%s is not a bgpcd journal (bad magic)", path.c_str()));
  }
  if (bytes.size() < kJournalHeaderBytes) {
    // Magic prefix but torn header: treat as an empty journal whose tail
    // (the partial header) is dropped; the writer rebuilds the header.
    out.dropped_bytes = bytes.size();
    out.tail_error = "torn header";
    return out;
  }
  const u32 version =
      BinaryReader(std::span(bytes).subspan(sizeof(kJournalMagic))).get<u32>();
  if (version != kJournalVersion) {
    throw JournalError(strfmt("journal %s has unsupported version %u",
                              path.c_str(), version));
  }

  std::size_t off = kJournalHeaderBytes;
  while (off < bytes.size()) {
    const Frame frame = decode_frame(std::span(bytes).subspan(off),
                                     kJournalMaxRecordBytes);
    if (frame.status != FrameStatus::kOk) {
      out.tail_error = strfmt("%s (length %u) at offset %zu",
                              to_string(frame.status), frame.length, off);
      break;
    }
    try {
      const std::string_view text{
          reinterpret_cast<const char*>(frame.payload.data()),
          frame.payload.size()};
      out.records.push_back(JournalRecord::from_json(json::Value::parse(text)));
    } catch (const json::JsonError& e) {
      // A CRC-valid frame with unparseable JSON can only be corruption that
      // happens to collide — treat like any other bad tail.
      out.tail_error =
          strfmt("unparseable record at offset %zu: %s", off, e.what());
      break;
    }
    off += kFrameHeaderBytes + frame.length;
  }
  out.valid_bytes = off;
  out.dropped_bytes = bytes.size() - off;
  return out;
}

JournalWriter::JournalWriter(std::filesystem::path path,
                             fault::DaemonFaultInjector* faults)
    : path_(std::move(path)), faults_(faults) {
  recovered_ = replay_journal(path_);  // throws JournalError on foreign files

  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw JournalWriteError(strfmt("cannot open journal %s: %s", path_.c_str(),
                                   ::strerror(errno)));
  }
  // Drop any torn tail so post-crash appends land on a frame boundary; the
  // header counts as valid bytes 0 only when the file was empty/torn.
  const off_t keep = static_cast<off_t>(
      std::max(recovered_.valid_bytes, std::size_t{0}));
  if (::ftruncate(fd_, keep) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw JournalWriteError(strfmt("cannot truncate journal %s: %s",
                                   path_.c_str(), ::strerror(err)));
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw JournalWriteError(strfmt("cannot seek journal %s: %s", path_.c_str(),
                                   ::strerror(err)));
  }
  if (recovered_.valid_bytes < kJournalHeaderBytes) {
    const std::vector<std::byte> header = journal_header_bytes();
    const int err = write_fully(fd_, header.data(), header.size());
    if (err != 0) {
      ::close(fd_);
      fd_ = -1;
      throw JournalWriteError(strfmt("cannot write journal header %s: %s",
                                     path_.c_str(), ::strerror(err)));
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

u64 JournalWriter::appended() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

void JournalWriter::append(const JournalRecord& rec) {
  const std::vector<std::byte> frame = encode_journal_frame(rec);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) throw JournalWriteError("journal is closed");

  if (faults_) {
    using JF = fault::DaemonFaultInjector::JournalFault;
    const JF f = faults_->next_journal_append();
    switch (f.kind) {
      case JF::Kind::kNone:
        break;
      case JF::Kind::kEintr:
        // A real EINTR is retried inside write_fully; the injected one just
        // exercises that the caller-visible behavior is "append succeeded".
        break;
      case JF::Kind::kTorn: {
        // Persist only a prefix of the frame, exactly what a crash mid-
        // append leaves behind, then report the append as failed.
        const std::size_t keep =
            std::min<std::size_t>(f.keep_bytes, frame.size());
        (void)write_fully(fd_, frame.data(), keep);
        throw JournalWriteError("injected torn journal append");
      }
      case JF::Kind::kError:
        throw JournalWriteError(
            f.persistent ? "injected journal write failure (ENOSPC, "
                           "persistent)"
                         : "injected journal write failure (ENOSPC)");
    }
  }

  obs::HostTimer timer;
  const int err = write_fully(fd_, frame.data(), frame.size());
  timer.observe(t_write_);
  if (err != 0) {
    throw JournalWriteError(strfmt("journal append failed: %s",
                                   ::strerror(err)));
  }
  // Write-ahead only means anything if the record is durable before the
  // action it journals; fdatasync (not fsync — the length change rides
  // with the data on ext4/xfs) is the cheapest call with that property.
  timer.restart();
  const int sync_rc = ::fdatasync(fd_);
  timer.observe(t_fsync_);
  if (sync_rc != 0 && errno != EINVAL && errno != EROFS) {
    // EINVAL: fd doesn't support sync (some tmpfs variants) — the write
    // itself succeeded and there is nothing more durable available.
    throw JournalWriteError(strfmt("journal fdatasync failed: %s",
                                   ::strerror(errno)));
  }
  ++appended_;
}

}  // namespace bgp::daemon
