// Host-side self-characterization for bgpcd: the daemon measured with the
// same discipline it applies to simulated workloads. One HostObs instance
// (owned by the Service) bundles
//
//   - the host-latency histogram families exported on /metrics
//     (control request phases, journal append + fsync, snapshot seqlock
//     publish, HTTP scrape, session admission-to-start queue wait),
//   - structured JSONL host event logging (events.jsonl, leveled,
//     rotating, crash-safe) with per-request correlation IDs; the log's
//     newest lines are served live on /debug/events,
//   - bgpcd_build_info / bgpcd_uptime_seconds.
//
// Everything here runs on the HOST timeline (steady/realtime clocks) and
// bills zero simulated cycles: enabling host observability cannot move a
// single simulated event, which tab_overhead re-asserts byte-for-byte.
#pragma once

#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/host_clock.hpp"
#include "obs/host_log.hpp"
#include "obs/metrics.hpp"

namespace bgp::daemon {

struct HostObsConfig {
  /// Threshold for the stderr mirror (bgpcd --log-level); nullopt keeps
  /// stderr quiet (the in-process test default). events.jsonl gets every
  /// event.
  std::optional<obs::EventLevel> stderr_level;
  /// Reported in bgpcd_build_info{version=...}; empty renders "unknown".
  std::string version;
};

class HostObs {
 public:
  /// Registers the host metric families in `reg` (which must outlive
  /// this object) and opens <work_dir>/events.jsonl for appending.
  HostObs(obs::MetricsRegistry& reg, std::filesystem::path work_dir,
          HostObsConfig cfg);
  HostObs(const HostObs&) = delete;
  HostObs& operator=(const HostObs&) = delete;

  // --- latency histograms (never null) ---------------------------------
  obs::Histogram* control_parse = nullptr;
  obs::Histogram* control_dispatch = nullptr;
  obs::Histogram* control_respond = nullptr;
  obs::Histogram* journal_write = nullptr;
  obs::Histogram* journal_fsync = nullptr;
  obs::Histogram* snapshot_publish = nullptr;
  obs::Histogram* queue_wait = nullptr;
  /// The per-path scrape histogram; unknown paths share the
  /// {path="other"} series so cardinality stays bounded.
  [[nodiscard]] obs::Histogram* http_request(const std::string& path);

  // --- correlation + events --------------------------------------------
  /// Fresh process-unique correlation ID ("r000001", ...).
  [[nodiscard]] std::string next_request_id();
  /// Render once; append to events.jsonl, and to stderr at or above the
  /// configured level.
  void emit(obs::EventLevel level, const obs::HostEvent& ev);

  /// The log's newest lines, oldest first (the /debug/events body).
  [[nodiscard]] std::vector<std::string> recent_events() const {
    return log_.recent_lines();
  }

  /// Refresh bgpcd_uptime_seconds (called from Service::update_metrics).
  void update_uptime();

 private:
  HostObsConfig cfg_;
  obs::HostEventLog log_;
  std::atomic<u64> req_seq_{0};
  i64 start_ns_ = 0;
  obs::Gauge* uptime_ = nullptr;
  std::map<std::string, obs::Histogram*, std::less<>> http_by_path_;
  obs::Histogram* http_other_ = nullptr;
  obs::Counter* events_by_level_[4] = {};
};

}  // namespace bgp::daemon
