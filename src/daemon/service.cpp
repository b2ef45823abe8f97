#include "daemon/service.hpp"

#include <algorithm>
#include <cctype>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "core/node_monitor.hpp"
#include "daemon/attach.hpp"

namespace bgp::daemon {

namespace {

/// The structured rejection codes, pre-registered as labeled series so the
/// /metrics render never races a lazy registration.
constexpr const char* kRejectionCodes[] = {
    "draining",        "duplicate_session",  "invalid_session",
    "over_quota_ranks", "over_quota_sessions", "over_quota_bytes",
    "bad_request",     "journal_unwritable",
};

bool is_live(SessionState s) noexcept {
  return s == SessionState::kQueued || s == SessionState::kRunning;
}

SessionState state_from_string(std::string_view s) {
  if (s == "queued") return SessionState::kQueued;
  if (s == "running") return SessionState::kRunning;
  if (s == "finished") return SessionState::kFinished;
  if (s == "failed") return SessionState::kFailed;
  if (s == "killed") return SessionState::kKilled;
  if (s == "aborted") return SessionState::kAborted;
  throw json::JsonError(strfmt("unknown session state '%s'",
                               std::string(s).c_str()));
}

/// Parse an auto-assigned name ("s0000"...) back to its counter value.
bool parse_auto_name(const std::string& name, unsigned* out) {
  if (name.size() < 2 || name[0] != 's') return false;
  unsigned v = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
    v = v * 10 + static_cast<unsigned>(name[i] - '0');
    if (v > 10'000'000) return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::string_view to_string(SessionState s) noexcept {
  switch (s) {
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kFinished: return "finished";
    case SessionState::kFailed: return "failed";
    case SessionState::kKilled: return "killed";
    case SessionState::kAborted: return "aborted";
  }
  return "?";
}

Service::Service(ServiceConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.work_dir);
  if (config_.journal_path.empty()) {
    config_.journal_path = config_.work_dir / "bgpcd.journal";
  }
  admitted_ = &metrics_.counter("bgpcd_sessions_admitted_total",
                                "Job submissions accepted");
  for (const char* code : kRejectionCodes) {
    rejected_by_[code] =
        &metrics_.counter("bgpcd_sessions_rejected_total",
                          "Job submissions rejected, by structured code",
                          {{"reason", code}});
  }
  finished_ = &metrics_.counter("bgpcd_sessions_done_total",
                                "Sessions reaching a terminal state",
                                {{"state", "finished"}});
  failed_ = &metrics_.counter("bgpcd_sessions_done_total",
                              "Sessions reaching a terminal state",
                              {{"state", "failed"}});
  killed_ = &metrics_.counter("bgpcd_sessions_done_total",
                              "Sessions reaching a terminal state",
                              {{"state", "killed"}});
  snapshots_ = &metrics_.counter("bgpcd_snapshot_publishes_total",
                                 "Periodic snapshot publications (all nodes)");
  journal_records_ = &metrics_.counter("bgpcd_journal_records_total",
                                       "Session journal records appended");
  journal_errors_ =
      &metrics_.counter("bgpcd_journal_append_errors_total",
                        "Session journal appends that failed to persist");
  recovered_sessions_ =
      &metrics_.counter("bgpcd_sessions_recovered_total",
                        "Sessions re-listed from the journal at startup");
  salvaged_dumps_ =
      &metrics_.counter("bgpcd_salvaged_dumps_total",
                        "Node dumps salvaged from orphaned sessions");
  running_ = &metrics_.gauge("bgpcd_sessions_running",
                             "Sessions currently queued or running");
  resident_ = &metrics_.gauge("bgpcd_resident_bytes",
                              "Modeled resident bytes of live sessions");
  draining_g_ =
      &metrics_.gauge("bgpcd_draining", "1 while the daemon refuses work");
  read_only_g_ = &metrics_.gauge(
      "bgpcd_read_only", "1 while the journal is unwritable (degraded)");

  // Host observability (latency histograms, events.jsonl) comes up
  // before the journal so recovery itself is already traced.
  host_obs_ =
      std::make_unique<HostObs>(metrics_, config_.work_dir, config_.host);
  host_obs_->emit(obs::EventLevel::kInfo,
                  obs::HostEvent("daemon_start")
                      .str("work_dir", config_.work_dir.string())
                      .str("version", config_.host.version.empty()
                                          ? "unknown"
                                          : config_.host.version));

  if (config_.recover) {
    try {
      journal_ =
          std::make_unique<JournalWriter>(config_.journal_path, config_.faults);
      journal_->set_host_timers(host_obs_->journal_write,
                                host_obs_->journal_fsync);
    } catch (const JournalError& e) {
      // A journal we cannot open or must not touch (foreign magic): serve
      // status and let reads work, but admit nothing — the alternative is
      // running sessions the next restart cannot account for.
      enter_read_only(e.what());
      recovery_.log.push_back(
          strfmt("journal unusable, daemon is read-only: %s", e.what()));
    }
    if (journal_ != nullptr) recover_from_journal();
    for (const std::string& line : recovery_.log) {
      host_obs_->emit(obs::EventLevel::kInfo,
                      obs::HostEvent("recovery_note").str("note", line));
    }
    if (recovery_.journal_found) {
      host_obs_->emit(obs::EventLevel::kInfo,
                      obs::HostEvent("recovery_done")
                          .num("records", u64{recovery_.records_replayed})
                          .num("relisted", u64{recovery_.relisted})
                          .num("orphans", u64{recovery_.orphans_aborted})
                          .num("salvaged", u64{recovery_.dumps_salvaged})
                          .num("bytes_dropped", u64{recovery_.bytes_dropped})
                          .str("tail_error", recovery_.tail_error));
    }
  }
}

Service::~Service() {
  begin_drain();
  wait_idle();
}

void Service::count_rejection(const std::string& code) {
  const auto it = rejected_by_.find(code);
  if (it != rejected_by_.end()) it->second->add();
}

void Service::enter_read_only(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(ro_mu_);
    if (read_only_) return;
    read_only_ = true;
    read_only_reason_ = reason;
  }
  if (host_obs_ != nullptr) {
    host_obs_->emit(obs::EventLevel::kError,
                    obs::HostEvent("read_only").str("reason", reason));
  }
}

bool Service::read_only() const {
  std::lock_guard<std::mutex> lk(ro_mu_);
  return read_only_;
}

std::string Service::health_text() const {
  if (draining()) return "draining";
  if (read_only()) return "degraded";
  return "ok";
}

void Service::journal_append(const char* op, const std::string& session,
                             json::Value body) {
  {
    std::lock_guard<std::mutex> lk(ro_mu_);
    if (read_only_ || journal_ == nullptr) return;  // already degraded
  }
  JournalRecord rec;
  rec.op = op;
  rec.session = session;
  rec.body = std::move(body);
  try {
    journal_->append(rec);
    journal_records_->add();
  } catch (const std::exception& e) {
    // Graceful degradation: running sessions keep going (their artifacts
    // are already accounted for by the admit/start records), but nothing
    // new is admitted until an operator fixes the disk and restarts.
    journal_errors_->add();
    enter_read_only(e.what());
  }
}

unsigned Service::salvage_session(ActiveSession& s) {
  std::error_code ec;
  if (!std::filesystem::exists(s.snapshot_path, ec)) {
    recovery_.log.push_back(
        strfmt("%s: no snapshot file to salvage", s.name.c_str()));
    return 0;
  }
  try {
    // One-shot attach: the writer is dead, so seqlock-busy nodes (a crash
    // mid-publish) can never stabilize — mine what is readable and report
    // the rest instead of retrying.
    const AttachView view = attach_file(s.snapshot_path);
    for (const unsigned node : view.busy) {
      recovery_.log.push_back(strfmt(
          "%s: node %u snapshot lost (writer died mid-publish, seqlock "
          "held)",
          s.name.c_str(), node));
    }
    for (const unsigned node : view.corrupt) {
      recovery_.log.push_back(strfmt("%s: node %u snapshot slot corrupt",
                                     s.name.c_str(), node));
    }
    const std::vector<pc::NodeDump> dumps = to_node_dumps(view);
    if (dumps.empty()) {
      recovery_.log.push_back(
          strfmt("%s: snapshot had no readable nodes", s.name.c_str()));
      return 0;
    }
    const std::filesystem::path dir = s.dir / "salvage";
    std::filesystem::create_directories(dir);
    unsigned written = 0;
    for (const pc::NodeDump& dump : dumps) {
      const std::vector<std::byte> bytes = pc::NodeMonitor::serialize(dump);
      const std::filesystem::path path =
          dir / strfmt("%s.node%04u.bgpc", dump.app_name.c_str(),
                       dump.node_id);
      // Same atomic temp+rename publication as the live dump path.
      std::filesystem::path tmp = path;
      tmp += ".tmp";
      write_file_bytes(tmp, bytes);
      std::filesystem::rename(tmp, path);
      ++written;
      salvaged_dumps_->add();
    }
    s.salvage_dir = dir;
    return written;
  } catch (const std::exception& e) {
    recovery_.log.push_back(
        strfmt("%s: salvage failed: %s", s.name.c_str(), e.what()));
    return 0;
  }
}

void Service::recover_from_journal() {
  const JournalReplay& replay = journal_->recovered();
  recovery_.journal_found =
      replay.valid_bytes > 0 || replay.dropped_bytes > 0;
  recovery_.records_replayed = replay.records.size();
  recovery_.bytes_dropped = replay.dropped_bytes;
  recovery_.tail_error = replay.tail_error;
  if (replay.dropped_bytes > 0) {
    recovery_.log.push_back(
        strfmt("dropped %zu torn journal tail byte(s): %s",
               replay.dropped_bytes, replay.tail_error.c_str()));
  }

  // Fold the record stream into per-session end states, preserving admit
  // order. Records for sessions never admitted (a torn admit whose later
  // records survived cannot happen — admit is written first — but a
  // hand-edited journal might) are skipped.
  struct Folded {
    JobSpec spec;
    SessionState state = SessionState::kQueued;
    bool terminal = false;
    std::string detail;
    bool verified = false;
    std::size_t dump_files = 0;
    std::size_t trace_files = 0;
    cycles_t sim_cycles = 0;
    std::string salvage_dir;
  };
  std::vector<std::string> order;
  std::map<std::string, Folded> by_name;
  const auto get_u64 = [](const json::Value& body, const char* key) -> u64 {
    const json::Value* v = body.get(key);
    return v != nullptr ? v->as_u64() : 0;
  };
  const auto get_str = [](const json::Value& body,
                          const char* key) -> std::string {
    const json::Value* v = body.get(key);
    return v != nullptr ? v->as_string() : std::string();
  };
  for (const JournalRecord& rec : replay.records) {
    try {
      auto it = by_name.find(rec.session);
      if (it == by_name.end()) {
        if (rec.op != journal_op::kAdmit) {
          recovery_.log.push_back(strfmt(
              "skipping %s record for unknown session '%s'", rec.op.c_str(),
              rec.session.c_str()));
          continue;
        }
        const json::Value* spec = rec.body.get("spec");
        if (spec == nullptr) {
          recovery_.log.push_back(strfmt(
              "admit record for '%s' carries no spec; skipping",
              rec.session.c_str()));
          continue;
        }
        Folded f;
        f.spec = JobSpec::from_json(*spec);
        order.push_back(rec.session);
        by_name.emplace(rec.session, std::move(f));
        continue;
      }
      Folded& f = it->second;
      if (rec.op == journal_op::kStart) {
        f.state = SessionState::kRunning;
      } else if (rec.op == journal_op::kCheckpoint) {
        f.sim_cycles = get_u64(rec.body, "sim_cycles");
        f.dump_files = get_u64(rec.body, "dump_files");
      } else if (rec.op == journal_op::kKill) {
        // The kill was requested; whether it landed shows up as a finish
        // record. Nothing to fold.
      } else if (rec.op == journal_op::kFinish) {
        f.terminal = true;
        f.state = state_from_string(get_str(rec.body, "state"));
        f.detail = get_str(rec.body, "detail");
        const json::Value* verified = rec.body.get("verified");
        f.verified = verified != nullptr && verified->as_bool();
        f.dump_files = get_u64(rec.body, "dump_files");
        f.trace_files = get_u64(rec.body, "trace_files");
        f.sim_cycles = get_u64(rec.body, "sim_cycles");
      } else if (rec.op == journal_op::kAbort) {
        f.terminal = true;
        f.state = SessionState::kAborted;
        f.detail = get_str(rec.body, "detail");
        f.dump_files = get_u64(rec.body, "salvaged");
        f.salvage_dir = get_str(rec.body, "salvage_dir");
      }
    } catch (const std::exception& e) {
      recovery_.log.push_back(strfmt("bad journal record for '%s': %s",
                                     rec.session.c_str(), e.what()));
    }
  }

  for (const std::string& name : order) {
    Folded& f = by_name.at(name);
    auto s = std::make_unique<ActiveSession>();
    s->name = name;
    s->spec = f.spec;
    s->spec.session = name;
    s->dir = config_.work_dir / name;
    s->snapshot_path = s->dir / "counters.bgpsnap";
    s->resident_bytes = estimate_resident_bytes(f.spec);
    s->recovered = true;
    unsigned counter = 0;
    if (parse_auto_name(name, &counter)) seq_ = std::max(seq_, counter + 1);

    if (f.terminal) {
      // A session that reached its terminal state in a previous life:
      // re-list it exactly as it ended.
      s->state = f.state;
      s->detail = f.detail;
      s->verified = f.verified;
      s->dump_files = f.dump_files;
      s->trace_files = f.trace_files;
      s->sim_cycles = f.sim_cycles;
      if (!f.salvage_dir.empty()) s->salvage_dir = f.salvage_dir;
      ++recovery_.relisted;
      recovered_sessions_->add();
      recovery_.log.push_back(strfmt("re-listed %s session '%s'",
                                     std::string(to_string(f.state)).c_str(),
                                     name.c_str()));
    } else {
      // Orphan: admitted (maybe started) but the daemon died before any
      // terminal record landed. Abort it and salvage the last checkpoint.
      const char* was =
          f.state == SessionState::kRunning ? "running" : "queued";
      const unsigned salvaged = salvage_session(*s);
      s->state = SessionState::kAborted;
      s->dump_files = salvaged;
      s->sim_cycles = std::max(s->sim_cycles, f.sim_cycles);
      s->detail = strfmt(
          "orphaned by daemon restart (was %s); %u node dump(s) salvaged "
          "from the last snapshot",
          was, salvaged);
      ++recovery_.orphans_aborted;
      recovery_.dumps_salvaged += salvaged;
      recovered_sessions_->add();
      recovery_.log.push_back(
          strfmt("aborted orphaned session '%s' (%s)", name.c_str(),
                 s->detail.c_str()));
      // Record the abort so the *next* restart re-lists it as terminal
      // instead of salvaging again (idempotent recovery).
      json::Value body = json::Value::object();
      body.set("detail", json::Value(s->detail));
      body.set("salvaged", json::Value(u64{salvaged}));
      body.set("salvage_dir", json::Value(s->salvage_dir.string()));
      journal_append(journal_op::kAbort, name, std::move(body));
    }
    sessions_.push_back(std::move(s));
  }
}

SubmitResult Service::submit(const JobSpec& spec, const std::string& req_id) {
  SubmitResult res;
  const auto reject = [&](const char* code, std::string detail) {
    res.ok = false;
    res.error_code = code;
    res.detail = std::move(detail);
    count_rejection(code);
    host_obs_->emit(obs::EventLevel::kWarn,
                    obs::HostEvent("session_reject")
                        .str("req", req_id)
                        .str("session", spec.session)
                        .str("code", code)
                        .str("detail", res.detail));
    return res;
  };

  if (!spec.session.empty() && !valid_session_name(spec.session)) {
    return reject("invalid_session",
                  strfmt("'%s' is not a valid session name",
                         spec.session.c_str()));
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) {
    return reject("draining", "the daemon is draining and admits no work");
  }
  {
    std::lock_guard<std::mutex> ro(ro_mu_);
    if (read_only_) {
      return reject(
          "journal_unwritable",
          strfmt("the session journal is unwritable (%s); the daemon is "
                 "read-only until the disk is fixed and it restarts",
                 read_only_reason_.c_str()));
    }
  }
  std::string name = spec.session;
  if (name.empty()) {
    do {
      name = strfmt("s%04u", seq_++);
    } while (std::any_of(sessions_.begin(), sessions_.end(),
                         [&](const auto& s) { return s->name == name; }));
  } else if (std::any_of(sessions_.begin(), sessions_.end(),
                         [&](const auto& s) { return s->name == name; })) {
    return reject("duplicate_session",
                  strfmt("session '%s' already exists", name.c_str()));
  }
  const unsigned live = live_sessions_locked();
  if (live >= config_.quotas.max_sessions) {
    return reject("over_quota_sessions",
                  strfmt("%u sessions live, quota is %u", live,
                         config_.quotas.max_sessions));
  }
  if (spec.effective_ranks() > config_.quotas.max_ranks) {
    return reject("over_quota_ranks",
                  strfmt("%u ranks requested, quota is %u per session",
                         spec.effective_ranks(), config_.quotas.max_ranks));
  }
  const u64 want = estimate_resident_bytes(spec);
  const u64 have = resident_now_locked();
  const u64 budget = config_.quotas.max_resident_bytes;
  if (want > budget || have > budget - want) {
    return reject(
        "over_quota_bytes",
        strfmt("job needs ~%llu bytes, %llu of the %llu-byte budget in use",
               static_cast<unsigned long long>(want),
               static_cast<unsigned long long>(have),
               static_cast<unsigned long long>(
                   config_.quotas.max_resident_bytes)));
  }

  auto s = std::make_unique<ActiveSession>();
  s->name = name;
  s->spec = spec;
  s->spec.session = name;
  s->dir = config_.work_dir / name;
  s->snapshot_path = s->dir / "counters.bgpsnap";
  s->resident_bytes = want;
  s->admit_host_ns = obs::host_now_ns();

  // Write-ahead: the admit record must be durable before the session
  // exists. A daemon killed immediately after this point re-lists the
  // session as an orphan at the next start instead of forgetting it; a
  // failed append refuses the admission (retryable) and degrades.
  json::Value admit_body = json::Value::object();
  admit_body.set("spec", s->spec.to_json());
  if (!req_id.empty()) admit_body.set("req", json::Value(req_id));
  journal_append(journal_op::kAdmit, name, std::move(admit_body));
  {
    std::lock_guard<std::mutex> ro(ro_mu_);
    if (read_only_) {
      return reject(
          "journal_unwritable",
          strfmt("could not journal the admission (%s); the daemon is now "
                 "read-only",
                 read_only_reason_.c_str()));
    }
  }

  ActiveSession& ref = *s;
  sessions_.push_back(std::move(s));
  admitted_->add();
  host_obs_->emit(obs::EventLevel::kInfo,
                  obs::HostEvent("session_admit")
                      .str("req", req_id)
                      .str("session", name)
                      .str("bench", std::string(nas::name(ref.spec.bench)))
                      .num("nodes", u64{ref.spec.machine.num_nodes})
                      .num("resident_bytes", ref.resident_bytes));
  ref.thread = std::thread([this, &ref] { run_session(ref); });

  res.ok = true;
  res.session = name;
  res.dump_dir = ref.dir;
  res.snapshot_path = ref.snapshot_path;
  return res;
}

void Service::run_session(ActiveSession& s) {
  const JobSpec& spec = s.spec;
  // Host queue wait: admission (in submit, under mu_) to here, where the
  // session thread actually starts doing work.
  const double waited = static_cast<double>(obs::host_now_ns() -
                                            s.admit_host_ns) /
                        obs::kNsPerSecond;
  host_obs_->queue_wait->observe(waited);
  // Builds the terminal-transition journal body from the session's fields;
  // call with s.mu held.
  const auto finish_body = [&s]() {
    json::Value body = json::Value::object();
    body.set("state", json::Value(std::string(to_string(s.state))));
    body.set("detail", json::Value(s.detail));
    body.set("verified", json::Value(s.verified));
    body.set("dump_files", json::Value(u64{s.dump_files}));
    body.set("trace_files", json::Value(u64{s.trace_files}));
    body.set("sim_cycles", json::Value(s.sim_cycles));
    return body;
  };
  // One structured line per lifecycle transition; call with s.mu held.
  const auto emit_finish = [this, &s]() {
    host_obs_->emit(obs::EventLevel::kInfo,
                    obs::HostEvent("session_finish")
                        .str("session", s.name)
                        .str("state", std::string(to_string(s.state)))
                        .str("detail", s.detail)
                        .num("dump_files", u64{s.dump_files})
                        .num("sim_cycles", s.sim_cycles));
  };
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.kill_requested) {
      s.state = SessionState::kKilled;
      s.detail = "killed before start";
      killed_->add();
      journal_append(journal_op::kFinish, s.name, finish_body());
      emit_finish();
      return;
    }
    s.state = SessionState::kRunning;
  }
  journal_append(journal_op::kStart, s.name, json::Value::object());
  host_obs_->emit(obs::EventLevel::kInfo,
                  obs::HostEvent("session_start")
                      .str("session", s.name)
                      .num("queue_wait_s", waited));
  try {
    // The same nas::Run as bgpc_run: a finished daemon session's dump
    // files are byte-identical to a same-seed batch run with the same
    // snapshot configuration.
    nas::Run run(spec, s.dir);
    PublisherConfig pub_cfg = config_.snapshot;
    if (spec.snapshot_period_cycles.has_value()) {
      pub_cfg.period_cycles = *spec.snapshot_period_cycles;
    }
    pub_cfg.faults = config_.faults;
    pub_cfg.host_publish_seconds = host_obs_->snapshot_publish;
    SnapshotPublisher publisher(run.session(), s.snapshot_path, s.name,
                                pub_cfg);

    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.machine = &run.machine();
      // A kill that arrived between thread start and here must not be lost.
      if (s.kill_requested) run.machine().request_stop();
    }
    // Null the machine handle before the Machine object dies — on every
    // exit path, including unwinding — so kill() never chases a dangling
    // pointer. Declared after `run`, so it runs first.
    struct MachineHandleGuard {
      ActiveSession* s;
      ~MachineHandleGuard() {
        std::lock_guard<std::mutex> lk(s->mu);
        s->machine = nullptr;
      }
    } unpublish{&s};

    const nas::RunResult result = run.execute();
    const pc::Session& session = run.session();
    if (result.stopped) {
      // Kill/drain checkpoint: execute() sealed the in-flight traces and
      // dumped every node that never reached its finalize.
      json::Value ckpt = json::Value::object();
      ckpt.set("sim_cycles", json::Value(run.machine().elapsed()));
      ckpt.set("dump_files", json::Value(u64{session.dump_files().size()}));
      journal_append(journal_op::kCheckpoint, s.name, std::move(ckpt));
    }
    publisher.publish_final();
    snapshots_->add(publisher.publishes());

    std::lock_guard<std::mutex> lk(s.mu);
    s.sim_cycles = run.machine().elapsed();
    s.dump_files = session.dump_files().size();
    s.trace_files = session.trace_files().size();
    if (result.stopped) {
      s.state = SessionState::kKilled;
      s.detail = strfmt("stopped mid-run; %zu checkpoint dump(s) written",
                        s.dump_files);
      killed_->add();
    } else {
      s.verified = result.ok();
      s.detail = result.degraded
                     ? strfmt("degraded FT run: %zu node death(s), %zu "
                              "survivor dump(s)",
                              result.dead_nodes.size(), s.dump_files)
                     : result.kernel.detail;
      s.state = SessionState::kFinished;
      finished_->add();
    }
    journal_append(journal_op::kFinish, s.name, finish_body());
    emit_finish();
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.machine = nullptr;
    s.state = SessionState::kFailed;
    s.detail = e.what();
    failed_->add();
    journal_append(journal_op::kFinish, s.name, finish_body());
    host_obs_->emit(obs::EventLevel::kError,
                    obs::HostEvent("session_finish")
                        .str("session", s.name)
                        .str("state", "failed")
                        .str("detail", s.detail));
  }
}

SessionStatus Service::snapshot_status(const ActiveSession& s) const {
  SessionStatus st;
  st.name = s.name;
  st.spec = s.spec;
  st.resident_bytes = s.resident_bytes;
  st.dump_dir = s.dir;
  st.snapshot_path = s.snapshot_path;
  std::lock_guard<std::mutex> lk(s.mu);
  st.state = s.state;
  st.detail = s.detail;
  st.verified = s.verified;
  st.dump_files = s.dump_files;
  st.trace_files = s.trace_files;
  st.sim_cycles = s.sim_cycles;
  st.salvage_dir = s.salvage_dir;
  st.recovered = s.recovered;
  return st;
}

std::vector<SessionStatus> Service::list() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SessionStatus> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) out.push_back(snapshot_status(*s));
  return out;
}

bool Service::status(const std::string& name, SessionStatus* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_) {
    if (s->name == name) {
      *out = snapshot_status(*s);
      return true;
    }
  }
  return false;
}

bool Service::kill(const std::string& name, std::string* err,
                   const std::string& req_id) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_) {
    if (s->name != name) continue;
    std::lock_guard<std::mutex> slk(s->mu);
    if (!is_live(s->state)) {
      if (err != nullptr) {
        *err = strfmt("session '%s' is already %s", name.c_str(),
                      std::string(to_string(s->state)).c_str());
      }
      return false;
    }
    s->kill_requested = true;
    if (s->machine != nullptr) s->machine->request_stop();
    json::Value body = json::Value::object();
    if (!req_id.empty()) body.set("req", json::Value(req_id));
    journal_append(journal_op::kKill, name, std::move(body));
    host_obs_->emit(obs::EventLevel::kInfo, obs::HostEvent("session_kill")
                                                .str("req", req_id)
                                                .str("session", name));
    return true;
  }
  if (err != nullptr) *err = strfmt("no session named '%s'", name.c_str());
  return false;
}

void Service::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) return;
    draining_ = true;
  }
  host_obs_->emit(obs::EventLevel::kInfo, obs::HostEvent("drain_begin"));
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

void Service::wait_idle() {
  // join_mu_ serializes concurrent waiters (joining one std::thread twice
  // is UB); mu_ is released during the joins so list()/status() stay
  // responsive while sessions wind down. sessions_ entries are append-only
  // and their addresses stable.
  std::lock_guard<std::mutex> jlk(join_mu_);
  std::vector<ActiveSession*> live;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& s : sessions_) live.push_back(s.get());
  }
  for (ActiveSession* s : live) {
    if (s->thread.joinable()) s->thread.join();
  }
}

u64 Service::resident_now_locked() const {
  u64 total = 0;
  for (const auto& s : sessions_) {
    std::lock_guard<std::mutex> slk(s->mu);
    if (is_live(s->state)) total += s->resident_bytes;
  }
  return total;
}

unsigned Service::live_sessions_locked() const {
  unsigned n = 0;
  for (const auto& s : sessions_) {
    std::lock_guard<std::mutex> slk(s->mu);
    if (is_live(s->state)) ++n;
  }
  return n;
}

void Service::update_metrics() {
  host_obs_->update_uptime();
  std::lock_guard<std::mutex> lk(mu_);
  running_->set(static_cast<double>(live_sessions_locked()));
  resident_->set(static_cast<double>(resident_now_locked()));
  draining_g_->set(draining_ ? 1.0 : 0.0);
  {
    std::lock_guard<std::mutex> ro(ro_mu_);
    read_only_g_->set(read_only_ ? 1.0 : 0.0);
  }
}

json::Value to_json(const SessionStatus& st) {
  json::Value v = json::Value::object();
  v.set("session", json::Value(st.name));
  v.set("state", json::Value(std::string(to_string(st.state))));
  v.set("spec", st.spec.to_json());
  if (!st.detail.empty()) v.set("detail", json::Value(st.detail));
  v.set("verified", json::Value(st.verified));
  v.set("dump_files", json::Value(u64{st.dump_files}));
  v.set("trace_files", json::Value(u64{st.trace_files}));
  v.set("resident_bytes", json::Value(st.resident_bytes));
  v.set("sim_cycles", json::Value(st.sim_cycles));
  v.set("dump_dir", json::Value(st.dump_dir.string()));
  v.set("snapshot", json::Value(st.snapshot_path.string()));
  if (!st.salvage_dir.empty()) {
    v.set("salvage_dir", json::Value(st.salvage_dir.string()));
  }
  if (st.recovered) v.set("recovered", json::Value(true));
  return v;
}

json::Value Service::sessions_json() const {
  json::Value arr = json::Value::array();
  for (const SessionStatus& st : list()) arr.push(to_json(st));
  return arr;
}

}  // namespace bgp::daemon
