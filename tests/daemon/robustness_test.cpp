// Degradation and client-resilience behavior under injected daemon faults:
// a full disk (ENOSPC on the journal) turns the daemon read-only instead of
// killing it — /healthz says "degraded", /metrics and /sessions keep
// serving, submits get a structured retryable rejection; a reset control
// connection is survived by the retrying client; a server that never
// answers trips the client's socket deadline; and an attach against a
// snapshot whose writer died mid-publish fails with a clear "writer gone"
// error instead of spinning forever.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "daemon/attach.hpp"
#include "daemon/control.hpp"
#include "daemon/daemon.hpp"
#include "daemon/snapfile.hpp"
#include "fault/fault.hpp"
#include "nas/kernel.hpp"

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpcd_rob_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JobSpec quick_spec() {
  JobSpec spec;
  spec.bench = nas::Benchmark::kEP;
  spec.cls = nas::ProblemClass::kS;
  spec.machine.num_nodes = 2;
  return spec;
}

std::string http_get(unsigned short port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) all.append(buf, size_t(n));
  ::close(fd);
  const std::size_t split = all.find("\r\n\r\n");
  return split == std::string::npos ? all : all.substr(split + 4);
}

TEST(DaemonRobustness, JournalEnospcDegradesToReadOnlyNotACrash) {
  // The very first journal append (the first submit's admit record) hits a
  // persistent ENOSPC.
  std::vector<fault::DaemonFaultEvent> plan;
  fault::DaemonFaultEvent enospc;
  enospc.kind = fault::DaemonFaultKind::kJournalError;
  enospc.after = 0;
  enospc.persistent = true;
  plan.push_back(enospc);
  fault::DaemonFaultInjector faults(std::move(plan));

  DaemonConfig cfg;
  cfg.service.work_dir = test_dir();
  cfg.service.faults = &faults;
  Daemon d(cfg);
  ASSERT_EQ(http_get(d.http_port(), "/healthz"), "ok\n");

  json::Value req = json::Value::object();
  req.set("cmd", json::Value("submit"));
  req.set("job", quick_spec().to_json());
  const json::Value resp = control_request(d.socket_path(), req);
  ASSERT_FALSE(resp.get("ok")->as_bool());
  const json::Value* err = resp.get("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->get("code")->as_string(), "journal_unwritable");
  EXPECT_TRUE(err->get("retryable")->as_bool());
  EXPECT_TRUE(control_response_retryable(resp));

  // Degraded, not dead: health says so, reads keep working, and further
  // submits are rejected with the same retryable code.
  EXPECT_TRUE(d.service().read_only());
  EXPECT_EQ(http_get(d.http_port(), "/healthz"), "degraded\n");
  const std::string metrics = http_get(d.http_port(), "/metrics");
  EXPECT_NE(metrics.find("bgpcd_read_only 1"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("bgpcd_journal_append_errors_total 1"),
            std::string::npos);
  EXPECT_NE(http_get(d.http_port(), "/sessions").find("["),
            std::string::npos);
  const SubmitResult again = d.service().submit(quick_spec());
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error_code, "journal_unwritable");
}

TEST(DaemonRobustness, RetryableCodesAreExactlyTheTransientOnes) {
  EXPECT_TRUE(is_retryable_code("journal_unwritable"));
  EXPECT_TRUE(is_retryable_code("over_quota_sessions"));
  EXPECT_TRUE(is_retryable_code("over_quota_bytes"));
  EXPECT_FALSE(is_retryable_code("bad_request"));
  EXPECT_FALSE(is_retryable_code("duplicate_session"));
  EXPECT_FALSE(is_retryable_code("over_quota_ranks"));
  EXPECT_FALSE(is_retryable_code("draining"));
  EXPECT_FALSE(is_retryable_code("not_found"));
}

TEST(DaemonRobustness, ClientRetriesThroughAResetConnection) {
  // The first control response is dropped mid-flight (connection reset).
  std::vector<fault::DaemonFaultEvent> plan;
  fault::DaemonFaultEvent reset;
  reset.kind = fault::DaemonFaultKind::kSocketReset;
  reset.after = 0;
  plan.push_back(reset);
  fault::DaemonFaultInjector faults(std::move(plan));

  DaemonConfig cfg;
  cfg.service.work_dir = test_dir();
  cfg.service.faults = &faults;
  Daemon d(cfg);

  json::Value ping = json::Value::object();
  ping.set("cmd", json::Value("ping"));
  // The non-retrying client sees the reset as a transport error...
  EXPECT_THROW((void)control_request(d.socket_path(), ping),
               std::runtime_error);
  // ...the retrying client absorbs it and lands on the second attempt.
  ControlRetry retry;
  retry.base_delay_ms = 1;
  retry.jitter_seed = 7;
  const json::Value resp = control_request_retry(d.socket_path(), ping, retry);
  EXPECT_TRUE(resp.get("ok")->as_bool());
}

// One local client must not be able to kill the daemon: a request line of
// 100,000 '[' (well inside the 1 MiB line limit) is answered `bad_request`
// and the same connection keeps being served.
TEST(DaemonRobustness, DeeplyNestedRequestIsABadRequest) {
  ControlServer server;
  server.start(test_dir() / "ctl.sock",
               [](const json::Value&, const ControlContext&) {
                 return control_ok();
               });
  const std::string p = server.socket_path().string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto ask = [fd](const std::string& line) {
    const std::string wire = line + "\n";
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    std::string resp;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') resp.push_back(c);
    return json::Value::parse(resp);
  };

  const json::Value bad = ask(std::string(100'000, '['));
  EXPECT_FALSE(bad.get("ok")->as_bool());
  EXPECT_EQ(bad.get("error")->get("code")->as_string(), "bad_request");
  EXPECT_TRUE(ask("{\"cmd\":\"ping\"}").get("ok")->as_bool());
  ::close(fd);
  server.stop();
}

TEST(DaemonRobustness, ClientDeadlineTripsOnASilentServer) {
  // A unix socket that accepts and then never answers.
  const fs::path sock = test_dir() / "mute.sock";
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::thread accepter([listen_fd] {
    const int c = ::accept(listen_fd, nullptr, nullptr);
    if (c >= 0) {
      char buf[256];
      (void)::read(c, buf, sizeof(buf));  // swallow the request, say nothing
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      ::close(c);
    }
  });

  json::Value ping = json::Value::object();
  ping.set("cmd", json::Value("ping"));
  try {
    (void)control_request(sock, ping, /*timeout_ms=*/100);
    FAIL() << "expected a timeout";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  accepter.join();
}

TEST(DaemonRobustness, HttpServerDropsSlowClients) {
  DaemonConfig cfg;
  cfg.service.work_dir = test_dir();
  cfg.http_io_timeout_ms = 100;
  Daemon d(cfg);

  // Half a request, then silence: the server's receive deadline must close
  // the connection instead of pinning the worker forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(d.http_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /metr";
  ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0) << "server kept a half-open connection alive";
  ::close(fd);

  // And the server still answers well-formed requests afterwards.
  EXPECT_EQ(http_get(d.http_port(), "/healthz"), "ok\n");
}

TEST(DaemonRobustness, AttachReportsAWedgedWriterInsteadOfSpinning) {
  const fs::path dir = test_dir();
  const fs::path snap = dir / "counters.bgpsnap";

  // The second publication for a node dies mid-write, leaving its seqlock
  // odd forever — the writer then "crashes" (is destroyed).
  std::vector<fault::DaemonFaultEvent> plan;
  fault::DaemonFaultEvent torn;
  torn.kind = fault::DaemonFaultKind::kSnapshotTorn;
  torn.after = 2;
  plan.push_back(torn);
  fault::DaemonFaultInjector faults(std::move(plan));
  {
    SnapshotWriter w(snap, "ep", "wedged", 2, kSnapMetricsCapacity, &faults);
    std::array<u64, isa::kCountersPerUnit> counters{};
    counters[0] = 7;
    w.publish_node(0, 0, 0, 0, SnapState::kCounting, 100, counters);
    w.publish_node(1, 1, 0, 0, SnapState::kCounting, 100, counters);
    w.publish_node(0, 0, 0, 0, SnapState::kCounting, 200, counters);  // torn
  }

  // One-shot attach classifies the wedged node as busy, not corrupt.
  const AttachView once = attach_file(snap);
  ASSERT_EQ(once.busy.size(), 1u);
  EXPECT_EQ(once.busy[0], 0u);
  EXPECT_TRUE(once.corrupt.empty());
  ASSERT_EQ(once.nodes.size(), 1u);
  EXPECT_EQ(once.nodes[0].node_id, 1u);

  // The bounded-retry attach stops after its last attempt instead of
  // spinning, and still returns the readable node beside the busy one.
  AttachRetry retry;
  retry.attempts = 3;
  retry.base_delay_ms = 1;
  retry.jitter_seed = 11;
  const AttachView view = attach_file_retry(snap, retry);
  ASSERT_EQ(view.busy.size(), 1u);
  EXPECT_EQ(view.busy[0], 0u);
  EXPECT_TRUE(view.corrupt.empty());
  ASSERT_EQ(view.nodes.size(), 1u);
  EXPECT_EQ(view.nodes[0].node_id, 1u);
}

TEST(DaemonRobustness, AttachRetrySucceedsOnAHealthyFinalSnapshot) {
  const fs::path dir = test_dir();
  const fs::path snap = dir / "counters.bgpsnap";
  {
    SnapshotWriter w(snap, "ep", "done", 2);
    std::array<u64, isa::kCountersPerUnit> counters{};
    for (unsigned node = 0; node < 2; ++node) {
      w.publish_node(node, node, 0, 0, SnapState::kFinal, 500, counters);
    }
  }
  AttachRetry retry;
  retry.jitter_seed = 3;
  const AttachView view = attach_file_retry(snap, retry);
  EXPECT_EQ(view.nodes.size(), 2u);
  EXPECT_TRUE(view.busy.empty());
  EXPECT_TRUE(view.final_only);
}

}  // namespace
}  // namespace bgp::daemon
