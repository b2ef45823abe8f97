// bgpcd — the resident counter-service daemon. `bgpcd serve` hosts
// simulated sessions (the same Machine + interface-library construction
// bgpc_run does) behind a Unix-socket control channel and an HTTP
// observability surface; the other subcommands are thin control-channel
// clients:
//
//   bgpcd serve [--socket=P] [--dir=D] [--http=PORT] [--snapshot-period=DUR]
//               [--max-sessions=N] [--max-ranks=N] [--max-bytes=B]
//               [--preload=JSON]...
//   bgpcd submit JOBJSON [--socket=P] [--wait]
//   bgpcd list|drain|shutdown|ping [--socket=P]
//   bgpcd status|kill SESSION [--socket=P]
//
// SIGTERM/SIGINT drain gracefully: admissions stop, running sessions finish
// (or checkpoint when killed), the exit code is 0 when no session failed.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "cli.hpp"
#include "daemon/daemon.hpp"

using namespace bgp;
namespace json = bgp::daemon::json;

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_drain_signal(int) {
  const char byte = 1;
  // Async-signal-safe: just poke the drain waiter thread.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int serve(int argc, char** argv) {
  daemon::DaemonConfig cfg;
  cfg.service.work_dir = "bgpcd_work";
  unsigned http_port = 0;
  std::vector<std::string> preload;
  u64 max_bytes = 0;
  std::string log_level = "info";

  cli::FlagSet fs("bgpcd serve");
  fs.path_value("socket", "PATH",
                "control socket path (default DIR/bgpcd.sock)",
                &cfg.socket_path);
  fs.path_value("dir", "DIR", "session working directory (default bgpcd_work)",
                &cfg.service.work_dir);
  fs.unsigned_value("http", "PORT",
                    "HTTP port on 127.0.0.1 (default 0 = ephemeral)",
                    &http_port);
  fs.positive_value("http-threads", "N", "HTTP accept threads (default 2)",
                    &cfg.http_threads);
  fs.duration_cycles_value(
      "snapshot-period", "DUR",
      "default snapshot publication period in simulated time, with a "
      "mandatory unit suffix, e.g. 500us or 2ms (default 500us)",
      &cfg.service.snapshot.period_cycles);
  fs.positive_value("max-sessions", "N",
                    "admission quota: concurrent sessions (default 8)",
                    &cfg.service.quotas.max_sessions);
  fs.positive_value("max-ranks", "N",
                    "admission quota: ranks per session (default 1024)",
                    &cfg.service.quotas.max_ranks);
  fs.u64_value("max-bytes", "B",
               "admission quota: modeled resident bytes (default 2 GiB)",
               &max_bytes);
  fs.repeated_value("preload", "JSON",
                    "submit this job spec at startup (repeatable)", &preload);
  fs.string_value("log-level", "LEVEL",
                  "stderr threshold for structured host events: debug, "
                  "info, warn, error, or off (default info; events.jsonl "
                  "always gets everything)",
                  &log_level);
  if (const auto rc = fs.parse(argc, argv, 2)) return *rc;
  cfg.http_port = static_cast<unsigned short>(http_port);
  if (max_bytes != 0) cfg.service.quotas.max_resident_bytes = max_bytes;
  cfg.service.host.version = cli::version();
  if (log_level == "off" || log_level == "none") {
    cfg.service.host.stderr_level.reset();
  } else if (const auto lv = obs::parse_event_level(log_level)) {
    cfg.service.host.stderr_level = *lv;
  } else {
    std::fprintf(stderr,
                 "bgpcd serve: --log-level must be debug, info, warn, "
                 "error, or off; got '%s'\n",
                 log_level.c_str());
    return 2;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("bgpcd: pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_drain_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  daemon::Daemon d(cfg);
  const daemon::RecoveryReport& rec = d.service().recovery();
  if (rec.journal_found) {
    std::printf(
        "bgpcd: journal replayed %zu record(s): %u session(s) re-listed, "
        "%u orphan(s) aborted, %u dump(s) salvaged\n",
        rec.records_replayed, rec.relisted, rec.orphans_aborted,
        rec.dumps_salvaged);
    if (rec.bytes_dropped != 0) {
      std::printf("bgpcd: dropped %zu torn journal byte(s): %s\n",
                  rec.bytes_dropped, rec.tail_error.c_str());
    }
    for (const std::string& line : rec.log) {
      std::printf("bgpcd: recovery: %s\n", line.c_str());
    }
  }
  if (d.service().read_only()) {
    std::printf("bgpcd: WARNING: journal unwritable, serving read-only\n");
  }
  std::printf("bgpcd: control socket %s\n",
              d.socket_path().string().c_str());
  std::printf(
      "bgpcd: http://127.0.0.1:%u/metrics /sessions /healthz /debug/events\n",
      d.http_port());
  std::fflush(stdout);

  for (const std::string& text : preload) {
    json::Value req = json::Value::object();
    req.set("cmd", json::Value("submit"));
    req.set("job", json::Value::parse(text));
    const json::Value resp = daemon::control_request(d.socket_path(), req);
    std::printf("bgpcd: preload -> %s\n", resp.dump().c_str());
  }

  std::thread drain_waiter([&d] {
    char byte = 0;
    if (::read(g_signal_pipe[0], &byte, 1) == 1) {
      std::printf("bgpcd: drain requested, waiting for sessions\n");
      std::fflush(stdout);
      d.begin_drain();
    }
  });
  const unsigned failed = d.run_until_drained();
  ::close(g_signal_pipe[1]);  // wakes the waiter if a control drain got here
  drain_waiter.join();
  ::close(g_signal_pipe[0]);
  std::printf("bgpcd: drained, %u session(s) failed\n", failed);
  return failed == 0 ? 0 : 1;
}

/// Shared client plumbing: parse --socket/--retries/--timeout, send `req`
/// with jittered-backoff retries, print the response, exit 0 on
/// {"ok":true}.
int run_client(const char* sub, int argc, char** argv, int first,
               json::Value req, const std::filesystem::path& socket_default,
               bool* wait_out = nullptr) {
  std::filesystem::path socket = socket_default;
  daemon::ControlRetry retry;
  u64 timeout_ns = 0;
  cli::FlagSet fs(strfmt("bgpcd %s", sub));
  fs.path_value("socket", "PATH", "control socket (default bgpcd_work/bgpcd.sock)",
                &socket);
  fs.positive_value("retries", "N",
                    "attempts per request when the daemon is unreachable or "
                    "answers with a retryable error (default 5)",
                    &retry.attempts);
  fs.duration_ns_value("timeout", "DUR",
                       "per-request socket deadline, e.g. 5s or 500ms "
                       "(default 10s)",
                       &timeout_ns);
  if (wait_out != nullptr) {
    fs.toggle("wait", "poll until the session reaches a terminal state",
              wait_out);
  }
  if (const auto rc = fs.parse(argc, argv, first)) return *rc;
  if (timeout_ns != 0) {
    retry.timeout_ms = static_cast<unsigned>(
        std::min<u64>(timeout_ns / 1'000'000, ~0u));
  }
  try {
    json::Value resp = daemon::control_request_retry(socket, req, retry);
    std::printf("%s\n", resp.dump().c_str());
    const json::Value* ok = resp.get("ok");
    if (ok == nullptr || !ok->as_bool()) return 1;
    if (wait_out != nullptr && *wait_out) {
      const json::Value* session = resp.get("session");
      if (session == nullptr) return 1;
      json::Value status_req = json::Value::object();
      status_req.set("cmd", json::Value("status"));
      status_req.set("session", *session);
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        resp = daemon::control_request_retry(socket, status_req, retry);
        const json::Value* s = resp.get("session");
        const json::Value* state = s != nullptr ? s->get("state") : nullptr;
        if (state == nullptr) return 1;
        const std::string& st = state->as_string();
        if (st != "queued" && st != "running") {
          std::printf("%s\n", resp.dump().c_str());
          return st == "finished" ? 0 : 1;
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpcd %s: %s\n", sub, e.what());
    return 1;
  }
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bgpcd serve|submit|list|status|kill|drain|shutdown|"
               "ping [args] (see bgpcd SUBCOMMAND --help)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string sub = argv[1];
  const std::filesystem::path socket_default = "bgpcd_work/bgpcd.sock";
  if (sub == "--help") {
    usage(stdout);
    return 0;
  }
  if (sub == "--version") {
    std::printf("bgpcd %s\n", cli::version());
    return 0;
  }
  if (sub == "serve") return serve(argc, argv);
  if (sub == "submit") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "usage: bgpcd submit JOBJSON [--socket=P] [--wait]\n");
      return 2;
    }
    json::Value req = json::Value::object();
    req.set("cmd", json::Value("submit"));
    try {
      req.set("job", json::Value::parse(argv[2]));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bgpcd submit: %s\n", e.what());
      return 2;
    }
    bool wait = false;
    return run_client("submit", argc, argv, 3, std::move(req), socket_default,
                      &wait);
  }
  if (sub == "list" || sub == "drain" || sub == "shutdown" || sub == "ping") {
    json::Value req = json::Value::object();
    req.set("cmd", json::Value(sub));
    return run_client(sub.c_str(), argc, argv, 2, std::move(req),
                      socket_default);
  }
  if (sub == "status" || sub == "kill") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "usage: bgpcd %s SESSION [--socket=P]\n",
                   sub.c_str());
      return 2;
    }
    json::Value req = json::Value::object();
    req.set("cmd", json::Value(sub));
    req.set("session", json::Value(argv[2]));
    return run_client(sub.c_str(), argc, argv, 3, std::move(req),
                      socket_default);
  }
  usage(stderr);
  return 2;
}
