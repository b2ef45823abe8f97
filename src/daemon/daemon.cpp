#include "daemon/daemon.hpp"

#include "common/strfmt.hpp"
#include "obs/promtext.hpp"

namespace bgp::daemon {

Daemon::Daemon(DaemonConfig config) : service_(std::move(config.service)) {
  std::filesystem::path sock = config.socket_path;
  if (sock.empty()) sock = service_.config().work_dir / "bgpcd.sock";
  control_.set_io_timeout_ms(config.control_io_timeout_ms);
  control_.set_fault_injector(service_.config().faults);
  control_.set_host_obs(&service_.host());
  control_.start(sock, [this](const json::Value& req, const ControlContext&
                                                         ctx) {
    return handle(req, ctx);
  });

  http_.set_io_timeout_ms(config.http_io_timeout_ms);
  http_.set_observer(
      [this](const std::string& path, int status, double seconds) {
        service_.host().http_request(path)->observe(seconds);
        if (status >= 400) {
          service_.host().emit(obs::EventLevel::kDebug,
                               obs::HostEvent("http_request")
                                   .str("path", path)
                                   .num("status", i64{status})
                                   .num("seconds", seconds));
        }
      });
  http_.route("/healthz", [this](const std::string&) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        service_.health_text() + "\n"};
  });
  http_.route("/metrics", [this](const std::string&) {
    service_.update_metrics();
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        obs::render_prometheus(service_.metrics())};
  });
  http_.route("/sessions", [this](const std::string&) {
    return HttpResponse{200, "application/json",
                        service_.sessions_json().dump() + "\n"};
  });
  http_.route("/debug/events", [this](const std::string&) {
    // The newest lines of events.jsonl, live: one JSON event per line,
    // oldest first.
    std::string body;
    for (const std::string& line : service_.host().recent_events()) {
      body += line;
      body += '\n';
    }
    return HttpResponse{200, "application/x-ndjson", std::move(body)};
  });
  try {
    http_.start(config.http_port, config.http_threads);
  } catch (...) {
    control_.stop();
    throw;
  }
}

Daemon::~Daemon() {
  http_.stop();
  control_.stop();
  // ~Service drains and joins the session threads.
}

void Daemon::begin_drain() {
  service_.begin_drain();
  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    drain_requested_ = true;
  }
  drain_cv_.notify_all();
}

unsigned Daemon::run_until_drained() {
  {
    std::unique_lock<std::mutex> lk(drain_mu_);
    drain_cv_.wait(lk, [this] { return drain_requested_; });
  }
  // Admissions are closed; the servers stay up while sessions finish so
  // scrapes and status queries keep working through the drain.
  service_.wait_idle();
  unsigned failed = 0;
  for (const SessionStatus& st : service_.list()) {
    if (st.state == SessionState::kFailed) ++failed;
  }
  http_.stop();
  control_.stop();
  return failed;
}

json::Value Daemon::handle(const json::Value& req, const ControlContext& ctx) {
  const json::Value* cmd_v = req.is_object() ? req.get("cmd") : nullptr;
  if (cmd_v == nullptr) {
    service_.count_rejection("bad_request");
    return control_error("bad_request", "request needs a 'cmd' member");
  }
  const std::string cmd = cmd_v->as_string();

  if (cmd == "ping") {
    json::Value v = control_ok();
    v.set("pong", json::Value(true));
    v.set("draining", json::Value(service_.draining()));
    return v;
  }
  if (cmd == "submit") {
    const json::Value* job = req.get("job");
    if (job == nullptr) {
      service_.count_rejection("bad_request");
      return control_error("bad_request", "submit needs a 'job' object");
    }
    JobSpec spec;
    try {
      spec = JobSpec::from_json(*job);
    } catch (const json::JsonError& e) {
      service_.count_rejection("bad_request");
      return control_error("bad_request", e.what());
    }
    const SubmitResult res = service_.submit(spec, ctx.request_id);
    if (!res.ok) return control_error(res.error_code, res.detail);
    json::Value v = control_ok();
    v.set("session", json::Value(res.session));
    v.set("dump_dir", json::Value(res.dump_dir.string()));
    v.set("snapshot", json::Value(res.snapshot_path.string()));
    return v;
  }
  if (cmd == "list") {
    json::Value v = control_ok();
    v.set("sessions", service_.sessions_json());
    return v;
  }
  if (cmd == "status") {
    const json::Value* name = req.get("session");
    if (name == nullptr) {
      return control_error("bad_request", "status needs a 'session' name");
    }
    SessionStatus st;
    if (!service_.status(name->as_string(), &st)) {
      return control_error(
          "not_found",
          strfmt("no session named '%s'", name->as_string().c_str()));
    }
    json::Value v = control_ok();
    v.set("session", to_json(st));
    return v;
  }
  if (cmd == "kill") {
    const json::Value* name = req.get("session");
    if (name == nullptr) {
      return control_error("bad_request", "kill needs a 'session' name");
    }
    std::string err;
    if (!service_.kill(name->as_string(), &err, ctx.request_id)) {
      return control_error("not_found", err);
    }
    return control_ok();
  }
  if (cmd == "drain" || cmd == "shutdown") {
    begin_drain();
    return control_ok();
  }
  service_.count_rejection("bad_request");
  return control_error("bad_request",
                       strfmt("unknown command '%s'", cmd.c_str()));
}

}  // namespace bgp::daemon
