// Crash-restart chaos harness: runs the real bgpcd binary, SIGKILLs it at
// five seeded points during a four-session workload, and asserts the
// recovery invariants after every restart — the journal replays, every
// finished session is re-listed exactly once, orphans are aborted with
// their last checkpoint salvaged into minable dumps, and the sessions that
// eventually run to completion produce dumps byte-identical to an
// uninterrupted same-seed in-process run.
//
// On failure the work directory (journal, events.jsonl with every
// generation's recovery events, per-epoch serve logs) is copied to
// $BGPC_CHAOS_ARTIFACT_DIR when set, so CI can upload it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strfmt.hpp"
#include "daemon/control.hpp"
#include "daemon/jobspec.hpp"
#include "daemon/service.hpp"
#include "nas/kernel.hpp"
#include "obs/promtext.hpp"
#include "postproc/loader.hpp"

#ifndef BGPCD_BINARY
#error "chaos_test needs -DBGPCD_BINARY=\"<path to bgpcd>\""
#endif

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir(const char* leaf) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (std::string("bgpcd_chaos_") + info->name()) / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

pid_t start_daemon(const fs::path& dir, const fs::path& sock,
                   const fs::path& log) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    const std::string dir_flag = "--dir=" + dir.string();
    const std::string sock_flag = "--socket=" + sock.string();
    ::execl(BGPCD_BINARY, "bgpcd", "serve", dir_flag.c_str(),
            sock_flag.c_str(), "--http=0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

json::Value request(const fs::path& sock, json::Value req) {
  ControlRetry retry;
  retry.attempts = 8;
  retry.base_delay_ms = 5;
  retry.jitter_seed = 0x5EED;
  return control_request_retry(sock, std::move(req), retry);
}

bool wait_ready(const fs::path& sock) {
  json::Value ping = json::Value::object();
  ping.set("cmd", json::Value("ping"));
  for (int i = 0; i < 2'000; ++i) {
    try {
      const json::Value resp = control_request(sock, ping, 1'000);
      const json::Value* ok = resp.get("ok");
      if (ok != nullptr && ok->as_bool()) return true;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

json::Value list_sessions(const fs::path& sock) {
  json::Value req = json::Value::object();
  req.set("cmd", json::Value("list"));
  const json::Value resp = request(sock, std::move(req));
  EXPECT_TRUE(resp.get("ok")->as_bool()) << resp.dump();
  return *resp.get("sessions");
}

void graceful_stop(const fs::path& sock, pid_t pid, int expect_code) {
  json::Value req = json::Value::object();
  req.set("cmd", json::Value("shutdown"));
  EXPECT_TRUE(request(sock, std::move(req)).get("ok")->as_bool());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), expect_code);
}

/// The four-session workload: distinct quick jobs so every epoch has real
/// work in flight to orphan.
std::vector<JobSpec> workload() {
  std::vector<JobSpec> specs(4);
  specs[0].bench = nas::Benchmark::kEP;
  specs[0].machine.num_nodes = 2;
  specs[1].bench = nas::Benchmark::kEP;
  specs[1].machine.num_nodes = 1;
  specs[1].trace.enabled = true;
  specs[2].bench = nas::Benchmark::kIS;
  specs[2].machine.num_nodes = 2;
  specs[3].bench = nas::Benchmark::kIS;
  specs[3].machine.num_nodes = 1;
  for (JobSpec& s : specs) s.cls = nas::ProblemClass::kS;
  return specs;
}

std::string gen_name(std::size_t spec, unsigned gen) {
  return strfmt("j%zug%u", spec, gen);
}

/// Parse "j<spec>g<gen>" back to the spec index; -1 for foreign names.
int spec_of(const std::string& name) {
  if (name.size() < 4 || name[0] != 'j') return -1;
  const std::size_t g = name.find('g');
  if (g == std::string::npos) return -1;
  return std::atoi(name.substr(1, g - 1).c_str());
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The ephemeral HTTP port from a serve log's
/// "bgpcd: http://127.0.0.1:PORT/metrics ..." line; 0 until printed.
unsigned short parse_http_port(const fs::path& log) {
  const std::string text = slurp(log);
  const std::string needle = "http://127.0.0.1:";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  return static_cast<unsigned short>(
      std::atoi(text.c_str() + at + needle.size()));
}

/// Minimal HTTP/1.0 GET body (empty string on any failure).
std::string http_get_body(unsigned short port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    all.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = all.find("\r\n\r\n");
  return split == std::string::npos ? "" : all.substr(split + 4);
}

std::map<std::string, std::string> artifact_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "counters.bgpsnap") continue;
    files[name] = slurp(entry.path());
  }
  return files;
}

void save_artifacts_on_failure(const fs::path& work) {
  if (!testing::Test::HasFailure()) return;
  const char* dest = std::getenv("BGPC_CHAOS_ARTIFACT_DIR");
  if (dest == nullptr || *dest == '\0') return;
  std::error_code ec;
  fs::create_directories(dest, ec);
  fs::copy(work, fs::path(dest) / work.filename(),
           fs::copy_options::recursive | fs::copy_options::overwrite_existing,
           ec);
  if (ec) {
    std::fprintf(stderr, "could not save chaos artifacts: %s\n",
                 ec.message().c_str());
  } else {
    std::fprintf(stderr, "chaos artifacts saved to %s\n", dest);
  }
}

TEST(DaemonChaos, SurvivesFiveSigkillsWithoutLosingOrDuplicatingASession) {
  const fs::path work = test_dir("work");
  const fs::path sock = work / "bgpcd.sock";
  const std::vector<JobSpec> specs = workload();

  // Five seeded kill points, spread from "sessions barely admitted" to
  // "most sessions finished". Same seed -> same schedule.
  std::mt19937_64 rng(0xB1E57);
  std::vector<unsigned> kill_delays_ms;
  const unsigned lo[] = {5, 20, 60, 150, 300};
  const unsigned hi[] = {15, 60, 150, 400, 800};
  for (int k = 0; k < 5; ++k) {
    kill_delays_ms.push_back(
        lo[k] + static_cast<unsigned>(rng() % (hi[k] - lo[k])));
  }

  std::map<std::size_t, std::string> finished_name;  // spec -> session
  unsigned gen = 0;
  pid_t pid = start_daemon(work, sock, work / "serve.0.log");
  ASSERT_TRUE(wait_ready(sock)) << "daemon never came up";

  const auto submit_pending = [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (finished_name.count(i)) continue;
      JobSpec spec = specs[i];
      spec.session = gen_name(i, gen);
      json::Value req = json::Value::object();
      req.set("cmd", json::Value("submit"));
      req.set("job", spec.to_json());
      const json::Value resp = request(sock, std::move(req));
      ASSERT_TRUE(resp.get("ok")->as_bool())
          << spec.session << ": " << resp.dump();
    }
  };
  const auto harvest_finished = [&] {
    const json::Value listed = list_sessions(sock);
    for (const json::Value& s : listed.items()) {
      if (s.get("state")->as_string() != "finished") continue;
      const int idx = spec_of(s.get("session")->as_string());
      ASSERT_GE(idx, 0);
      const auto [it, inserted] = finished_name.emplace(
          static_cast<std::size_t>(idx), s.get("session")->as_string());
      if (!inserted) {
        // Already finished in an earlier epoch: it must be the same
        // session re-listed, not a duplicate completion.
        EXPECT_EQ(it->second, s.get("session")->as_string())
            << "spec " << idx << " finished twice";
      }
    }
  };

  submit_pending();
  for (unsigned k = 0; k < 5; ++k) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kill_delays_ms[k]));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    ++gen;
    pid = start_daemon(work, sock,
                       work / ("serve." + std::to_string(gen) + ".log"));
    ASSERT_TRUE(wait_ready(sock))
        << "daemon did not recover after kill " << k;
    harvest_finished();
    submit_pending();
  }

  // events.jsonl is the one durable event record, appended across every
  // generation: one daemon_start per generation started so far, and every
  // line a whole JSON event except at most one torn line per SIGKILL.
  {
    unsigned starts = 0, torn = 0;
    std::ifstream in(work / "events.jsonl");
    for (std::string line; std::getline(in, line);) {
      try {
        const json::Value ev = json::Value::parse(line);
        ASSERT_NE(ev.get("ts_ns"), nullptr) << line;
        ASSERT_NE(ev.get("level"), nullptr) << line;
        ASSERT_NE(ev.get("event"), nullptr) << line;
        if (ev.get("event")->as_string() == "daemon_start") ++starts;
      } catch (const json::JsonError&) {
        ++torn;
      }
    }
    EXPECT_EQ(starts, gen + 1) << "daemon_start events vs generations";
    EXPECT_LE(torn, 5u) << "more torn lines than SIGKILLs";
  }

  // Final epoch: let every pending session run to completion, then stop
  // gracefully (exit 0: aborted sessions are not failures).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (finished_name.count(i)) continue;
    const std::string name = gen_name(i, gen);
    json::Value req = json::Value::object();
    req.set("cmd", json::Value("status"));
    req.set("session", json::Value(name));
    for (int tries = 0;; ++tries) {
      ASSERT_LT(tries, 60'000) << name << " never finished";
      const json::Value resp = request(sock, req);
      ASSERT_TRUE(resp.get("ok")->as_bool()) << resp.dump();
      const std::string state =
          resp.get("session")->get("state")->as_string();
      if (state == "finished") break;
      ASSERT_TRUE(state == "queued" || state == "running")
          << name << " ended " << state;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    finished_name[i] = name;
  }
  harvest_finished();
  ASSERT_EQ(finished_name.size(), specs.size());
  graceful_stop(sock, pid, 0);

  // One more restart: the journal must re-list every session of every
  // epoch — each finished exactly once, everything else aborted — and the
  // salvaged orphan dumps must be minable.
  ++gen;
  pid = start_daemon(work, sock,
                     work / ("serve." + std::to_string(gen) + ".log"));
  ASSERT_TRUE(wait_ready(sock));
  std::map<int, unsigned> finished_count;
  unsigned aborted = 0, salvaged_dirs = 0;
  const json::Value relisted = list_sessions(sock);
  for (const json::Value& s : relisted.items()) {
    const std::string name = s.get("session")->as_string();
    const std::string state = s.get("state")->as_string();
    EXPECT_TRUE(s.get("recovered") != nullptr &&
                s.get("recovered")->as_bool())
        << name << " not marked recovered";
    if (state == "finished") {
      ++finished_count[spec_of(name)];
      EXPECT_EQ(finished_name.at(
                    static_cast<std::size_t>(spec_of(name))),
                name);
    } else {
      EXPECT_EQ(state, "aborted") << name;
      ++aborted;
      const json::Value* sd = s.get("salvage_dir");
      if (sd != nullptr && !sd->as_string().empty()) {
        ++salvaged_dirs;
        const fs::path dir = sd->as_string();
        const std::string app{
            nas::name(specs[static_cast<std::size_t>(spec_of(name))].bench)};
        const post::LoadReport loaded = post::load_dumps_tolerant(dir, app);
        EXPECT_TRUE(loaded.ok()) << dir;
        EXPECT_FALSE(loaded.dumps.empty()) << dir;
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(finished_count[static_cast<int>(i)], 1u)
        << "spec " << i << " not re-listed exactly once";
  }
  // Early kills guarantee in-flight work was orphaned at least once.
  EXPECT_GT(aborted, 0u);

  // Final observability scrape over real HTTP: the exposition parses,
  // the host-latency families carry this epoch's control traffic, and
  // the raw text is kept as a CI artifact alongside the host event log
  // (saved always, not only on failure).
  {
    const fs::path log = work / ("serve." + std::to_string(gen) + ".log");
    unsigned short port = 0;
    for (int i = 0; i < 2'000 && port == 0; ++i) {
      port = parse_http_port(log);
      if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_NE(port, 0) << "no http port line in " << log;
    const std::string body = http_get_body(port, "/metrics");
    ASSERT_FALSE(body.empty());
    const auto hists = obs::parse_prometheus_histograms(body);
    const std::string key =
        "bgpcd_control_request_seconds{phase=\"dispatch\"}";
    ASSERT_TRUE(hists.count(key)) << body;
    EXPECT_GT(hists.at(key).count, 0u);
    if (const char* dest = std::getenv("BGPC_CHAOS_ARTIFACT_DIR");
        dest != nullptr && *dest != '\0') {
      std::error_code ec;
      fs::create_directories(dest, ec);
      std::ofstream(fs::path(dest) / "final_metrics.prom") << body;
      fs::copy_file(work / "events.jsonl", fs::path(dest) / "events.jsonl",
                    fs::copy_options::overwrite_existing, ec);
    }
  }
  graceful_stop(sock, pid, 0);

  // Determinism across all that chaos: each finished session's artifacts
  // are byte-identical to an uninterrupted same-spec in-process run.
  const fs::path ref_dir = test_dir("ref");
  ServiceConfig ref_cfg;
  ref_cfg.work_dir = ref_dir;
  ref_cfg.recover = false;
  Service ref(ref_cfg);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobSpec spec = specs[i];
    spec.session = "ref" + std::to_string(i);
    ASSERT_TRUE(ref.submit(spec).ok);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name = "ref" + std::to_string(i);
    SessionStatus st;
    for (int tries = 0;; ++tries) {
      ASSERT_LT(tries, 60'000);
      ASSERT_TRUE(ref.status(name, &st));
      if (st.state == SessionState::kFinished) break;
      ASSERT_TRUE(st.state == SessionState::kQueued ||
                  st.state == SessionState::kRunning)
          << st.detail;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto expect = artifact_bytes(ref_dir / name);
    const auto got = artifact_bytes(work / finished_name.at(i));
    ASSERT_FALSE(expect.empty());
    ASSERT_EQ(got.size(), expect.size()) << finished_name.at(i);
    for (const auto& [file, bytes] : expect) {
      ASSERT_TRUE(got.count(file)) << file;
      EXPECT_EQ(got.at(file), bytes)
          << file << " differs after crash-restart for "
          << finished_name.at(i);
    }
  }

  save_artifacts_on_failure(work);
}

}  // namespace
}  // namespace bgp::daemon
