#include "daemon/control.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/strfmt.hpp"
#include "daemon/backoff.hpp"
#include "daemon/hostobs.hpp"
#include "fault/fault.hpp"
#include "obs/host_clock.hpp"

namespace bgp::daemon {

namespace {

/// Apply SO_RCVTIMEO/SO_SNDTIMEO; 0 leaves the socket blocking forever.
void set_io_deadline(int fd, unsigned timeout_ms) {
  if (timeout_ms == 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

int connect_unix(const std::filesystem::path& path) {
  const std::string p = path.string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (p.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error(
        strfmt("socket path too long (%zu bytes): %s", p.size(), p.c_str()));
  }
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(strfmt("socket: %s", std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(
        strfmt("cannot connect to %s: %s", p.c_str(), std::strerror(err)));
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw std::runtime_error("control socket write timed out");
    }
    if (n <= 0) throw std::runtime_error("control socket write failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Read up to the next '\n' (exclusive). False on EOF before any byte.
/// A receive deadline expiring mid-line throws (the peer stalled).
bool read_line(int fd, std::string& line) {
  line.clear();
  char c;
  for (;;) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw std::runtime_error("control socket read timed out");
    }
    if (n <= 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
    if (line.size() > 1 * MiB) {
      throw std::runtime_error("control request line too long");
    }
  }
}

}  // namespace

bool is_retryable_code(std::string_view code) noexcept {
  // Transient conditions: the same request may succeed once pressure
  // clears or an operator fixes the disk. Everything else (bad_request,
  // duplicate_session, not_found, over_quota_ranks — a spec bigger than
  // the machine never fits, draining — the daemon is going away) is final.
  return code == "journal_unwritable" || code == "over_quota_sessions" ||
         code == "over_quota_bytes";
}

json::Value control_error(const std::string& code, const std::string& detail) {
  json::Value err = json::Value::object();
  err.set("code", json::Value(code));
  err.set("detail", json::Value(detail));
  err.set("retryable", json::Value(is_retryable_code(code)));
  json::Value v = json::Value::object();
  v.set("ok", json::Value(false));
  v.set("error", std::move(err));
  return v;
}

json::Value control_ok() {
  json::Value v = json::Value::object();
  v.set("ok", json::Value(true));
  return v;
}

bool control_response_retryable(const json::Value& resp) {
  const json::Value* ok = resp.get("ok");
  if (!ok || ok->as_bool()) return false;
  const json::Value* err = resp.get("error");
  if (!err) return false;
  if (const json::Value* retryable = err->get("retryable")) {
    return retryable->as_bool();
  }
  const json::Value* code = err->get("code");
  return code != nullptr && is_retryable_code(code->as_string());
}

ControlServer::~ControlServer() { stop(); }

void ControlServer::start(const std::filesystem::path& socket_path,
                          ControlHandler handler) {
  handler_ = std::move(handler);
  path_ = socket_path;
  const std::string p = path_.string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (p.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error(
        strfmt("socket path too long (%zu bytes): %s", p.size(), p.c_str()));
  }
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  ::unlink(p.c_str());  // a stale socket from a dead daemon
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(strfmt("socket: %s", std::strerror(errno)));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(
        strfmt("cannot listen on %s: %s", p.c_str(), std::strerror(err)));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ControlServer::stop() {
  if (listen_fd_ < 0) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& t : conns) t.join();
  ::unlink(path_.string().c_str());
}

void ControlServer::accept_loop() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // shutdown() or a fatal error
    }
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns_.emplace_back([this, client] {
      serve(client);
      ::close(client);
    });
  }
}

void ControlServer::serve(int client_fd) {
  set_io_deadline(client_fd, io_timeout_ms_);
  std::string line;
  for (;;) {
    try {
      if (!read_line(client_fd, line)) return;
    } catch (const std::exception&) {
      return;  // oversized line or stalled client: drop the connection
    }
    if (line.empty()) continue;

    // Host-timeline request tracing: mint a correlation ID, time the
    // three phases (the read above is excluded — that clock would mostly
    // measure the client thinking), emit one structured event.
    ControlContext ctx;
    if (host_ != nullptr) ctx.request_id = host_->next_request_id();
    obs::HostTimer timer;
    double parse_s = 0.0;
    double dispatch_s = 0.0;
    std::string cmd;
    json::Value resp;
    try {
      const json::Value req = json::Value::parse(line);
      parse_s = timer.observe(host_ != nullptr ? host_->control_parse
                                               : nullptr);
      timer.restart();
      if (const json::Value* c = req.is_object() ? req.get("cmd") : nullptr) {
        cmd = c->as_string();
      }
      resp = handler_(req, ctx);
    } catch (const json::JsonError& e) {
      resp = control_error("bad_request", e.what());
    } catch (const std::exception& e) {
      resp = control_error("internal", e.what());
    }
    dispatch_s = timer.observe(host_ != nullptr ? host_->control_dispatch
                                                : nullptr);
    if (faults_ != nullptr && faults_->next_control_response_reset()) {
      return;  // injected reset: the client sees EOF instead of an answer
    }
    const std::string wire = resp.dump() + "\n";
    bool sent = true;
    timer.restart();
    try {
      send_all(client_fd, wire);
    } catch (const std::exception&) {
      sent = false;
    }
    const double respond_s =
        timer.observe(host_ != nullptr ? host_->control_respond : nullptr);
    if (host_ != nullptr) {
      bool req_ok = false;
      try {
        const json::Value* ok = resp.get("ok");
        req_ok = ok != nullptr && ok->as_bool();
      } catch (const json::JsonError&) {
        // a handler returning a non-standard shape; report ok=false
      }
      obs::HostEvent ev("control_request");
      ev.str("req", ctx.request_id)
          .str("cmd", cmd)
          .boolean("ok", req_ok)
          .num("bytes_in", u64{line.size()})
          .num("bytes_out", u64{wire.size()})
          .num("parse_s", parse_s)
          .num("dispatch_s", dispatch_s)
          .num("respond_s", respond_s);
      if (!sent) ev.boolean("send_failed", true);
      host_->emit(obs::EventLevel::kDebug, ev);
    }
    if (!sent) return;
  }
}

json::Value control_request(const std::filesystem::path& socket_path,
                            const json::Value& request, unsigned timeout_ms) {
  const int fd = connect_unix(socket_path);
  set_io_deadline(fd, timeout_ms);
  json::Value resp;
  try {
    send_all(fd, request.dump() + "\n");
    std::string line;
    if (!read_line(fd, line)) {
      throw std::runtime_error("daemon closed the control connection");
    }
    resp = json::Value::parse(line);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return resp;
}

json::Value control_request_retry(const std::filesystem::path& socket_path,
                                  const json::Value& request,
                                  const ControlRetry& retry) {
  const unsigned attempts = std::max(retry.attempts, 1u);
  Backoff backoff(retry.base_delay_ms, retry.max_delay_ms, retry.jitter_seed);
  std::string last_error;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    try {
      json::Value resp = control_request(socket_path, request,
                                         retry.timeout_ms);
      if (!control_response_retryable(resp)) return resp;
      const json::Value* err = resp.get("error");
      const json::Value* detail = err ? err->get("detail") : nullptr;
      last_error = strfmt("retryable response: %s",
                          detail ? detail->as_string().c_str() : "(no detail)");
      if (attempt + 1 == attempts) return resp;  // surface the real error
    } catch (const std::exception& e) {
      // Transport failure: the daemon may be restarting — retry.
      last_error = e.what();
    }
    if (attempt + 1 < attempts) backoff.sleep(attempt);
  }
  throw std::runtime_error(strfmt("control request failed after %u attempts: "
                                  "%s",
                                  attempts, last_error.c_str()));
}

}  // namespace bgp::daemon
