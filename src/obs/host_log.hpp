// Structured host event logging: one JSON object per line (JSONL),
// leveled, size-rotated, crash-safe. The daemon uses this to record
// session/request lifecycle on the *host* timeline so that any session
// can be reconstructed from one grep over events.jsonl — the
// ScALPEL/LIKWID "production-resident monitoring" standard applied to
// bgpcd itself.
//
// Crash safety is by construction, not by flushing discipline: the file
// is opened O_APPEND and every event is a single write(2) of one
// complete line, so a SIGKILL can lose at most the events never written,
// never corrupt earlier ones. A line left without its newline (by a
// killed predecessor or a short write) is terminated before the next
// event is appended. Rotation renames the live file aside
// (events.jsonl -> events.jsonl.1 -> .2 ...) between lines. The newest
// lines also stay in memory, for bgpcd's /debug/events.
#pragma once

#include <cstddef>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bgp::obs {

enum class EventLevel : u8 { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] std::string_view to_string(EventLevel level) noexcept;
/// "debug" / "info" / "warn" / "error" (case-sensitive); nullopt otherwise.
[[nodiscard]] std::optional<EventLevel> parse_event_level(
    std::string_view text) noexcept;

/// One structured event under construction. Field order is preserved in
/// the rendered line (ts_ns, level, event first, then fields in call
/// order), so the same event always greps the same way.
class HostEvent {
 public:
  explicit HostEvent(std::string_view name) : name_(name) {}

  HostEvent& str(std::string_view key, std::string_view value);
  HostEvent& num(std::string_view key, i64 value);
  HostEvent& num(std::string_view key, u64 value);
  HostEvent& num(std::string_view key, double value);
  HostEvent& boolean(std::string_view key, bool value);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The complete JSONL line, without the trailing newline.
  [[nodiscard]] std::string render(EventLevel level, i64 ts_ns) const;

 private:
  std::string name_;
  /// key -> pre-rendered JSON value (already quoted/escaped when string).
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct HostLogConfig {
  /// Empty path disables the file sink (stderr mirror may still be on).
  std::filesystem::path path;
  EventLevel file_level = EventLevel::kDebug;
  /// Events at or above this level are mirrored to stderr; nullopt
  /// silences the mirror entirely.
  std::optional<EventLevel> stderr_level;
  /// Rotate when the live file would exceed this many bytes.
  u64 rotate_bytes = 8 * MiB;
  /// Rotated generations kept (path.1 .. path.N); older ones are deleted.
  unsigned rotate_keep = 2;
};

class HostEventLog {
 public:
  /// Lines recent_lines() keeps.
  static constexpr std::size_t kRecentLines = 512;

  HostEventLog() = default;
  explicit HostEventLog(HostLogConfig cfg);
  ~HostEventLog();
  HostEventLog(const HostEventLog&) = delete;
  HostEventLog& operator=(const HostEventLog&) = delete;

  /// True when an event at `level` would reach at least one sink.
  [[nodiscard]] bool enabled(EventLevel level) const noexcept;

  /// Write one already-rendered line (no trailing newline) to the
  /// enabled sinks. Thread-safe; silently drops on I/O failure (logging
  /// must never take the daemon down).
  void write_line(EventLevel level, std::string_view line);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return cfg_.path;
  }
  [[nodiscard]] u64 lines_written() const noexcept;
  [[nodiscard]] u64 rotations() const noexcept;
  /// The newest kRecentLines lines written, oldest first, in the order
  /// they reached the file.
  [[nodiscard]] std::vector<std::string> recent_lines() const;

 private:
  void open_file_locked();
  void rotate_locked();

  HostLogConfig cfg_;
  mutable std::mutex mu_;
  int fd_ = -1;
  u64 file_bytes_ = 0;
  u64 lines_written_ = 0;
  u64 rotations_ = 0;
  /// The file's last line lacks its newline: the next write starts with it.
  bool mid_line_ = false;
  std::deque<std::string> recent_;
};

}  // namespace bgp::obs
