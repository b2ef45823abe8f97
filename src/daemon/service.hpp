// The daemon's session manager: admits jobs under quota, runs each session
// on its own thread (a nas::Run plus a SnapshotPublisher; the nas::Run is
// bgpc_run's, so finished dumps are byte-identical to batch runs),
// exposes list/status/kill, and drains gracefully — stop admissions,
// let running sessions finish, checkpoint nothing by force (kill is
// explicit). The daemon's own health metrics live in a private
// MetricsRegistry rendered by the /metrics endpoint.
#pragma once

#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/hostobs.hpp"
#include "daemon/jobspec.hpp"
#include "daemon/journal.hpp"
#include "daemon/publisher.hpp"
#include "obs/metrics.hpp"

namespace bgp::daemon {

enum class SessionState : u8 {
  kQueued,
  kRunning,
  kFinished,  ///< ran to completion (dump files final)
  kFailed,    ///< threw; detail holds the error
  kKilled,    ///< stopped via kill/drain; checkpoint dumps written
  kAborted,   ///< orphaned by a daemon crash; salvage dumps may exist
};

[[nodiscard]] std::string_view to_string(SessionState s) noexcept;

struct SessionStatus;
/// The wire form of one session's status (the /sessions array element).
[[nodiscard]] json::Value to_json(const SessionStatus& st);

/// A point-in-time copy of one session's public state.
struct SessionStatus {
  std::string name;
  JobSpec spec;
  SessionState state = SessionState::kQueued;
  std::string detail;  ///< error text / verification summary
  bool verified = false;
  std::size_t dump_files = 0;
  std::size_t trace_files = 0;
  u64 resident_bytes = 0;
  cycles_t sim_cycles = 0;
  std::filesystem::path dump_dir;
  std::filesystem::path snapshot_path;
  /// Non-empty for kAborted sessions whose last checkpoint was salvaged
  /// into minable dumps.
  std::filesystem::path salvage_dir;
  /// True when this session was re-listed from the journal (a previous
  /// daemon life ran it).
  bool recovered = false;
};

struct ServiceConfig {
  /// Per-session working directories and snapshot files live here.
  std::filesystem::path work_dir = "bgpcd_work";
  Quotas quotas;
  /// Defaults for sessions that do not pick their own snapshot period.
  PublisherConfig snapshot;
  /// Write-ahead session journal; empty = <work_dir>/bgpcd.journal.
  std::filesystem::path journal_path;
  /// Replay the journal at startup (re-list finished sessions, abort +
  /// salvage orphans). Off only for throwaway test services.
  bool recover = true;
  /// Daemon-surface fault injector (journal/snapshot/socket); not owned.
  fault::DaemonFaultInjector* faults = nullptr;
  /// Host-side observability: event log level and build version. Always
  /// on — host instrumentation bills no simulated cycles, so there is
  /// nothing to turn off.
  HostObsConfig host;
};

/// What startup recovery found and did; emitted as `recovery_note` and
/// `recovery_done` host events and kept for /metrics and tests.
struct RecoveryReport {
  bool journal_found = false;
  std::size_t records_replayed = 0;
  std::size_t bytes_dropped = 0;  ///< torn/corrupt journal tail
  std::string tail_error;
  unsigned relisted = 0;        ///< terminal sessions listed again
  unsigned orphans_aborted = 0; ///< in-flight sessions marked kAborted
  unsigned dumps_salvaged = 0;  ///< node dumps recovered from snapshots
  std::vector<std::string> log; ///< human-readable recovery narrative
};

struct SubmitResult {
  bool ok = false;
  std::string error_code;  ///< structured: over_quota_*, draining, ...
  std::string detail;
  std::string session;
  std::filesystem::path dump_dir;
  std::filesystem::path snapshot_path;
};

class Service {
 public:
  explicit Service(ServiceConfig config);
  /// Drains and joins every session thread.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission control + session start. Structured rejection codes:
  /// `draining`, `duplicate_session`, `over_quota_sessions`,
  /// `over_quota_ranks`, `over_quota_bytes`, `journal_unwritable`.
  /// `req_id` is the control-layer correlation ID threaded into the
  /// journal record and host events (empty for direct/API callers).
  SubmitResult submit(const JobSpec& spec, const std::string& req_id = {});

  [[nodiscard]] std::vector<SessionStatus> list() const;
  [[nodiscard]] bool status(const std::string& name, SessionStatus* out) const;

  /// Request a mid-run stop; the session checkpoints (seals traces, writes
  /// dumps atomically) and lands in kKilled. False with *err set when the
  /// session is unknown or already terminal.
  bool kill(const std::string& name, std::string* err,
            const std::string& req_id = {});

  /// Stop admitting; running sessions keep going.
  void begin_drain();
  [[nodiscard]] bool draining() const;
  /// Join every session thread (idempotent).
  void wait_idle();

  /// True once a journal append failed: the daemon serves reads and lets
  /// running sessions finish but admits nothing new (graceful degradation
  /// instead of crashing on a full disk).
  [[nodiscard]] bool read_only() const;
  /// "ok" / "degraded" (read-only) / "draining" — the /healthz body.
  [[nodiscard]] std::string health_text() const;

  /// What startup recovery replayed/salvaged (empty report when
  /// config.recover was false or no journal existed).
  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }

  /// The daemon's own metrics (admissions, rejections, session states,
  /// resident bytes) — the /metrics exposition source.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The host observability bundle (latency histograms, event log).
  /// Constructed with the service; never null.
  [[nodiscard]] HostObs& host() noexcept { return *host_obs_; }
  /// Refresh the gauges (running sessions, resident bytes) before export.
  void update_metrics();

  /// Count a structured rejection (also used by the control layer for
  /// protocol-level `bad_request`s).
  void count_rejection(const std::string& code);

  /// The /sessions listing as a JSON array.
  [[nodiscard]] json::Value sessions_json() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ActiveSession {
    std::string name;
    JobSpec spec;
    std::filesystem::path dir;
    std::filesystem::path snapshot_path;
    u64 resident_bytes = 0;
    /// Host clock at admission; run_session observes the delta into the
    /// queue-wait histogram when the session thread starts.
    i64 admit_host_ns = 0;
    std::thread thread;  ///< not joinable for recovered sessions

    /// Guards everything below (state transitions, machine handle).
    mutable std::mutex mu;
    SessionState state = SessionState::kQueued;
    std::string detail;
    bool verified = false;
    std::size_t dump_files = 0;
    std::size_t trace_files = 0;
    cycles_t sim_cycles = 0;
    rt::Machine* machine = nullptr;  ///< non-null only while running
    bool kill_requested = false;
    std::filesystem::path salvage_dir;
    bool recovered = false;
  };

  void run_session(ActiveSession& s);
  [[nodiscard]] SessionStatus snapshot_status(const ActiveSession& s) const;
  [[nodiscard]] u64 resident_now_locked() const;
  [[nodiscard]] unsigned live_sessions_locked() const;

  /// Append a lifecycle record; a write failure latches read-only mode
  /// (never throws out of a session thread).
  void journal_append(const char* op, const std::string& session,
                      json::Value body);
  void enter_read_only(const std::string& reason);
  /// Replay the journal: re-list terminal sessions, abort + salvage
  /// orphans, advance the auto-name counter past recovered names.
  void recover_from_journal();
  /// Salvage an orphan's last BGPSNAP checkpoint into
  /// <session_dir>/salvage/*.bgpc; returns the dump count.
  unsigned salvage_session(ActiveSession& s);

  ServiceConfig config_;
  mutable std::mutex mu_;  ///< guards sessions_ membership + draining_
  std::mutex join_mu_;     ///< serializes wait_idle callers
  bool draining_ = false;
  unsigned seq_ = 0;  ///< auto-name counter
  /// Append-only (finished sessions stay listed); deque for stable refs.
  std::deque<std::unique_ptr<ActiveSession>> sessions_;

  std::unique_ptr<JournalWriter> journal_;  ///< null when unopenable
  mutable std::mutex ro_mu_;                ///< guards the two below
  bool read_only_ = false;
  std::string read_only_reason_;
  RecoveryReport recovery_;

  obs::MetricsRegistry metrics_;
  std::unique_ptr<HostObs> host_obs_;
  obs::Counter* admitted_ = nullptr;
  /// One pre-registered series per structured rejection code (registering
  /// lazily would race the /metrics render).
  std::map<std::string, obs::Counter*> rejected_by_;
  obs::Counter* finished_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* killed_ = nullptr;
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* journal_records_ = nullptr;
  obs::Counter* journal_errors_ = nullptr;
  obs::Counter* recovered_sessions_ = nullptr;
  obs::Counter* salvaged_dumps_ = nullptr;
  obs::Gauge* running_ = nullptr;
  obs::Gauge* resident_ = nullptr;
  obs::Gauge* draining_g_ = nullptr;
  obs::Gauge* read_only_g_ = nullptr;
};

}  // namespace bgp::daemon
