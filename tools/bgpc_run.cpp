// bgpc_run — launch an instrumented NAS benchmark on a simulated Blue
// Gene/P partition (the moral equivalent of the paper's job submission):
// pick the benchmark, partition size, operating mode, problem class, boot
// options and compiler option set; the interface library is linked into
// MPI and per-node dump files are written for bgpc_mine. --trace
// additionally attaches the time-series tracer and writes .bgpt trace
// files for bgpc_trace --mine-only. The --obs-* flags attach the flight
// recorder and export a Chrome trace / Prometheus metrics view of the run
// (inspect span files with bgpc_obs).
//
//   bgpc_run BENCH [options]       (see --help for the full flag list)
//   bgpc_run --list                list benchmarks, modes, classes, presets
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "cli.hpp"
#include "common/strfmt.hpp"
#include "daemon/publisher.hpp"

using namespace bgp;

namespace {

/// SIGINT/SIGTERM turn into a cooperative Machine stop: the dispatcher
/// finishes the instruction block in flight, traces are sealed and every
/// initialized node checkpoint-dumps through the atomic write path, so an
/// interrupted run leaves minable files instead of torn ones.
std::atomic<rt::Machine*> g_machine{nullptr};
volatile std::sig_atomic_t g_signal = 0;

void on_stop_signal(int sig) {
  g_signal = sig;
  // Both the load and request_stop() are lock-free atomics —
  // async-signal-safe.
  if (rt::Machine* m = g_machine.load(std::memory_order_relaxed)) {
    m->request_stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  nas::RunSpec spec;
  spec.cls = nas::ProblemClass::kW;
  std::filesystem::path dump_dir = "bgpc_dumps";
  cli::ObsOutputs obs_out;
  std::filesystem::path snapshot_file;
  std::optional<cycles_t> snapshot_period;

  cli::FlagSet fs("bgpc_run", "BENCH");
  cli::add_run_flags(fs, spec, obs_out);
  fs.path_value("dumps", "DIR", "dump directory (default bgpc_dumps)",
                &dump_dir);
  fs.path_value("snapshot-file", "PATH",
                "publish live counter snapshots to this mmap-able file "
                "(attach with bgpc_mine/bgpc_obs --attach)",
                &snapshot_file);
  fs.value("snapshot-period", "DUR",
           "snapshot publication period as simulated time with a unit "
           "suffix (default 500us; needs --snapshot-file)",
           [&](const char* v) {
             snapshot_period = cli::duration_to_cycles(
                 cli::parse_duration_ns("--snapshot-period", v));
           });
  if (const auto rc = cli::parse_run_command(fs, argc, argv, spec)) return *rc;
  if (snapshot_period && snapshot_file.empty()) {
    std::fprintf(stderr, "bgpc_run: --snapshot-period needs --snapshot-file\n");
    fs.print_usage(stderr);
    return 2;
  }

  nas::Run run(spec, dump_dir);
  rt::Machine& machine = run.machine();
  pc::Session& session = run.session();
  const std::string& app = session.options().app_name;
  const rt::MachineConfig& mc = spec.machine;
  const unsigned nodes = mc.num_nodes;

  std::printf("%s class %s | %u nodes %s (%u ranks) | L3 %s | prefetch %s | "
              "%s%s\n",
              app.c_str(), std::string(nas::name(spec.cls)).c_str(), nodes,
              std::string(sys::to_string(mc.mode)).c_str(),
              machine.num_ranks(),
              mc.boot.l3_size_bytes
                  ? human_bytes((double)mc.boot.l3_size_bytes).c_str()
                  : "off",
              mc.boot.prefetch.depth
                  ? strfmt("depth %u", mc.boot.prefetch.depth).c_str()
                  : "off",
              mc.opt.name().c_str(),
              spec.trace.enabled
                  ? strfmt(" | tracing every %llu cycles (%s)",
                           static_cast<unsigned long long>(
                               spec.trace.interval_cycles),
                           spec.trace.preset.c_str())
                        .c_str()
                  : "");

  if (spec.deaths > 0) {
    std::printf("fault plan (seed %llu): %u node death(s)%s\n",
                static_cast<unsigned long long>(spec.fault_seed), spec.deaths,
                spec.ft.enabled ? ", FT recovery enabled" : "");
  }

  std::unique_ptr<daemon::SnapshotPublisher> publisher;
  if (!snapshot_file.empty()) {
    daemon::PublisherConfig snap_cfg;
    if (snapshot_period) snap_cfg.period_cycles = *snapshot_period;
    publisher = std::make_unique<daemon::SnapshotPublisher>(
        session, snapshot_file, app, snap_cfg);
    std::printf("publishing snapshots to %s every %llu cycles\n",
                snapshot_file.string().c_str(),
                static_cast<unsigned long long>(snap_cfg.period_cycles));
  }

  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  g_machine.store(&machine, std::memory_order_relaxed);
  const nas::RunResult result = run.execute();
  g_machine.store(nullptr, std::memory_order_relaxed);
  if (publisher) publisher->publish_final();

  if (result.stopped) {
    std::printf("interrupted at %llu cycles: sealed %zu trace(s), wrote %zu "
                "checkpoint dump(s) to %s\n",
                static_cast<unsigned long long>(machine.elapsed()),
                session.trace_files().size(), session.dump_files().size(),
                dump_dir.string().c_str());
    return 128 + static_cast<int>(g_signal);
  }

  const std::vector<unsigned>& dead = result.dead_nodes;
  if (result.degraded) {
    std::printf("verification: SKIPPED (degraded FT run: %zu node(s) died, "
                "the dead ranks never contributed)\n",
                dead.size());
  } else {
    std::printf("verification: %s (%s)\n",
                result.kernel.verified ? "PASSED" : "FAILED",
                result.kernel.detail.c_str());
  }
  if (!machine.recovery_log().empty()) {
    std::printf("recovery log (%zu events):\n", machine.recovery_log().size());
    for (const ft::RecoveryEvent& e : machine.recovery_log()) {
      std::printf("  %s\n", ft::describe(e).c_str());
    }
  }
  if (!dead.empty()) {
    std::printf("%zu node(s) lost:", dead.size());
    for (const unsigned n : dead) std::printf(" %u", n);
    std::printf("  (survivor dumps: %zu)\n", session.dump_files().size());
  }
  std::printf("simulated time: %.3f ms (%llu cycles on the slowest node)\n",
              1e3 * cycles_to_seconds(machine.elapsed()),
              static_cast<unsigned long long>(machine.elapsed()));
  std::printf("wrote %zu dump files to %s — mine them with:\n"
              "  bgpc_mine %s %s --metrics=metrics.csv%s\n",
              session.dump_files().size(), dump_dir.string().c_str(),
              dump_dir.string().c_str(), app.c_str(),
              spec.ft.enabled
                  ? strfmt(" --ft --expected-nodes=%u", nodes).c_str()
                  : "");
  if (spec.trace.enabled) {
    std::printf("wrote %zu trace files — mine them with:\n"
                "  bgpc_trace --mine-only %s %s --phases=phases.csv\n",
                session.trace_files().size(), dump_dir.string().c_str(),
                app.c_str());
  }
  const int obs_rc =
      cli::write_obs_outputs(obs_out, session.flight_recorder(), app);
  if (spec.obs.enabled && !session.span_files().empty()) {
    std::printf("wrote %zu span files — inspect them with:\n"
                "  bgpc_obs %s %s\n",
                session.span_files().size(), dump_dir.string().c_str(),
                app.c_str());
  }
  return result.ok() && obs_rc == 0 ? 0 : 1;
}
