#include "obs/host_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <system_error>

#include "common/strfmt.hpp"

namespace bgp::obs {

std::string_view to_string(EventLevel level) noexcept {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarn:
      return "warn";
    case EventLevel::kError:
      return "error";
  }
  return "info";
}

std::optional<EventLevel> parse_event_level(std::string_view text) noexcept {
  if (text == "debug") return EventLevel::kDebug;
  if (text == "info") return EventLevel::kInfo;
  if (text == "warn") return EventLevel::kWarn;
  if (text == "error") return EventLevel::kError;
  return std::nullopt;
}

HostEvent& HostEvent::str(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), '"' + json_escape(value) + '"');
  return *this;
}

HostEvent& HostEvent::num(std::string_view key, i64 value) {
  fields_.emplace_back(std::string(key),
                       strfmt("%lld", static_cast<long long>(value)));
  return *this;
}

HostEvent& HostEvent::num(std::string_view key, u64 value) {
  fields_.emplace_back(std::string(key),
                       strfmt("%llu", static_cast<unsigned long long>(value)));
  return *this;
}

HostEvent& HostEvent::num(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), strfmt("%.9g", value));
  return *this;
}

HostEvent& HostEvent::boolean(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

std::string HostEvent::render(EventLevel level, i64 ts_ns) const {
  std::string out = strfmt("{\"ts_ns\":%lld,\"level\":\"%s\",\"event\":\"%s\"",
                           static_cast<long long>(ts_ns),
                           std::string(to_string(level)).c_str(),
                           json_escape(name_).c_str());
  for (const auto& [key, value] : fields_) {
    out += ",\"";
    out += json_escape(key);
    out += "\":";
    out += value;
  }
  out += '}';
  return out;
}

HostEventLog::HostEventLog(HostLogConfig cfg) : cfg_(std::move(cfg)) {
  std::lock_guard lk(mu_);
  open_file_locked();
}

HostEventLog::~HostEventLog() {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HostEventLog::enabled(EventLevel level) const noexcept {
  if (!cfg_.path.empty() && level >= cfg_.file_level) return true;
  return cfg_.stderr_level.has_value() && level >= *cfg_.stderr_level;
}

void HostEventLog::open_file_locked() {
  if (cfg_.path.empty()) return;
  fd_ = ::open(cfg_.path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) return;
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  file_bytes_ = end > 0 ? static_cast<u64>(end) : 0;
  char last = '\n';
  mid_line_ = end > 0 && ::pread(fd_, &last, 1, end - 1) == 1 && last != '\n';
}

void HostEventLog::rotate_locked() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  std::error_code ec;
  const std::string base = cfg_.path.string();
  std::filesystem::remove(base + "." + std::to_string(cfg_.rotate_keep), ec);
  for (unsigned i = cfg_.rotate_keep; i > 1; --i) {
    std::filesystem::rename(base + "." + std::to_string(i - 1),
                            base + "." + std::to_string(i), ec);
  }
  if (cfg_.rotate_keep > 0) {
    std::filesystem::rename(base, base + ".1", ec);
  } else {
    std::filesystem::remove(base, ec);
  }
  file_bytes_ = 0;
  ++rotations_;
  open_file_locked();
}

void HostEventLog::write_line(EventLevel level, std::string_view line) {
  const bool to_file =
      !cfg_.path.empty() && level >= cfg_.file_level;
  const bool to_stderr =
      cfg_.stderr_level.has_value() && level >= *cfg_.stderr_level;
  if (!to_file && !to_stderr) return;

  // The leading newline goes to the file only when its last line is torn.
  std::string framed = '\n' + std::string(line) + '\n';

  std::lock_guard lk(mu_);
  if (to_file) {
    if (fd_ < 0) open_file_locked();
    if (fd_ >= 0 && cfg_.rotate_bytes > 0 && file_bytes_ > 0 &&
        file_bytes_ + framed.size() - 1 > cfg_.rotate_bytes) {
      rotate_locked();
    }
    if (fd_ >= 0) {
      // One write(2) per line on an O_APPEND fd: a crash between lines
      // loses nothing, a crash mid-write leaves at most one torn tail
      // line, which any JSONL reader skips.
      const std::size_t skip = mid_line_ ? 0 : 1;
      ssize_t n;
      do {
        n = ::write(fd_, framed.data() + skip, framed.size() - skip);
      } while (n < 0 && errno == EINTR);
      if (n > 0) {
        file_bytes_ += static_cast<u64>(n);
        mid_line_ = framed[skip + static_cast<std::size_t>(n) - 1] != '\n';
      }
    }
  }
  if (to_stderr) {
    std::fwrite(framed.data() + 1, 1, framed.size() - 1, stderr);
  }
  recent_.emplace_back(line);
  if (recent_.size() > kRecentLines) recent_.pop_front();
  ++lines_written_;
}

u64 HostEventLog::lines_written() const noexcept {
  std::lock_guard lk(mu_);
  return lines_written_;
}

u64 HostEventLog::rotations() const noexcept {
  std::lock_guard lk(mu_);
  return rotations_;
}

std::vector<std::string> HostEventLog::recent_lines() const {
  std::lock_guard lk(mu_);
  return {recent_.begin(), recent_.end()};
}

}  // namespace bgp::obs
