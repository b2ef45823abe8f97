// bgpc_mine — the post-processing / data-mining tool of the paper's §IV as
// a command-line program: reads the per-node binary dumps an instrumented
// application wrote, validates them, aggregates the counters across nodes
// and emits the metrics / statistics / full-counter .csv files usable "with
// Microsoft Excel or Open office calc".
//
// By default the miner runs in degraded mode: dumps that are missing,
// truncated or checksum-corrupt are skipped and reported, and the metrics
// are mined from the surviving quorum (at least --min-coverage of the
// expected nodes), with the coverage annotated in the output. --strict
// inverts this: any problem at all refuses to mine.
//
//   bgpc_mine DIR APP [options]       (see --help for the full flag list)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cli.hpp"
#include "common/strfmt.hpp"
#include "daemon/attach.hpp"
#include "postproc/aggregate.hpp"
#include "postproc/pipeline.hpp"
#include "postproc/report.hpp"

using namespace bgp;

namespace {

/// The node count of each counter mode.
void print_mode_counts(const post::Aggregate& agg) {
  std::printf("  mode-0 nodes (per-core events): %zu\n",
              agg.dumps_in_mode(0).size());
  std::printf("  mode-1 nodes (memory events):   %zu\n",
              agg.dumps_in_mode(1).size());
}

/// The memory metrics, which only nodes that counted mode 1 measure.
void print_memory_metrics(const post::Aggregate& agg,
                          const post::AppRecord& rec) {
  if (agg.dumps_in_mode(1).empty()) {
    constexpr const char* kNone = "not measured (no node counted mode 1)";
    std::printf("  L3<->DDR traffic/node:       %s\n", kNone);
    std::printf("  L3 read miss ratio:          %s\n", kNone);
    return;
  }
  std::printf("  L3<->DDR traffic/node:       %s\n",
              human_bytes(rec.ddr_traffic_bytes).c_str());
  std::printf("  L3 read miss ratio:          %.2f%%\n",
              100.0 * rec.l3_read_miss_ratio);
}

/// --attach: mine a live (or final) snapshot file instead of a dump
/// directory. The snapshot's raw counters reconstruct as one open set-0
/// pair per node, so the standard aggregate/record pipeline applies
/// mid-flight.
int attach_mine(const std::filesystem::path& snap, unsigned set, bool quiet,
                unsigned retries) {
  daemon::AttachView view;
  try {
    daemon::AttachRetry retry;
    if (retries != 0) retry.attempts = retries;
    view = daemon::attach_file_retry(snap, retry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpc_mine --attach: %s\n", e.what());
    return 1;
  }
  const std::vector<pc::NodeDump> dumps = daemon::to_node_dumps(view);
  std::size_t counting = 0, final_count = 0;
  for (const daemon::NodeSnapshot& n : view.nodes) {
    if (n.state == daemon::SnapState::kCounting) ++counting;
    if (n.state == daemon::SnapState::kFinal) ++final_count;
  }
  const post::Aggregate agg(dumps, set);
  const post::AppRecord rec = post::make_record(view.app, agg);
  if (!quiet) {
    std::printf("attached to %s: session %s, app %s — %s\n",
                snap.string().c_str(), view.session.c_str(),
                view.app.c_str(),
                view.nodes.empty()  ? "no readable node"
                : view.final_only ? "run finished (final snapshot)"
                                  : "LIVE mid-run snapshot");
    std::printf("  nodes: %zu readable (%zu counting, %zu final), %zu "
                "busy, %zu corrupt\n",
                view.nodes.size(), counting, final_count, view.busy.size(),
                view.corrupt.size());
    if (view.nodes.empty()) return 1;  // no metric was measured
    print_mode_counts(agg);
    cycles_t newest = 0;
    for (const daemon::NodeSnapshot& n : view.nodes) {
      newest = std::max(newest, n.published_cycle);
    }
    std::printf("  newest publication: cycle %llu (%.3f ms simulated)\n",
                static_cast<unsigned long long>(newest),
                1e3 * static_cast<double>(newest) / kCoreClockHz);
    std::printf("  exec cycles (mean node max): %.0f\n", rec.exec_cycles);
    std::printf("  MFLOPS/node so far:          %.2f\n", rec.mflops_per_node);
    print_memory_metrics(agg, rec);
  }
  return view.busy.empty() && view.corrupt.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  post::MineOptions opts;
  std::string metrics_file, stats_file, full_file;
  std::filesystem::path attach_path;
  bool quiet = false;
  obs::ObsConfig obs_cfg;
  cli::ObsOutputs obs_out;

  cli::FlagSet fs("bgpc_mine", "DIR APP");
  fs.path_value("attach", "SNAPFILE",
                "mine a daemon/bgpc_run snapshot file (live attach) instead "
                "of a dump directory",
                &attach_path);
  unsigned attach_retries = 0;
  fs.positive_value("attach-retries", "N",
                    "--attach: re-read attempts while the writer holds a "
                    "node's seqlock (default 8; each backs off with jitter)",
                    &attach_retries);
  fs.unsigned_value("set", "N", "instrumentation set to mine (default 0)",
                    &opts.set);
  fs.string_value("metrics", "FILE", "write the per-application metrics record",
                  &metrics_file);
  fs.string_value("stats", "FILE",
                  "write min/max/mean of all monitored counters", &stats_file);
  fs.string_value("full", "FILE",
                  "write every counter value read on every node", &full_file);
  fs.toggle("strict", "refuse to mine unless every node's dump is clean",
            &opts.strict);
  fs.double_value("min-coverage", "F",
                  "degraded-mode quorum fraction (default 0.9)", 0.0, 1.0,
                  &opts.min_coverage);
  fs.unsigned_value("expected-nodes", "N",
                    "nodes the run should have dumped (default: infer)",
                    &opts.expected_nodes);
  fs.toggle("ft",
            "FT run: deaths the dumps' recovery logs account for are "
            "expected casualties, not problems",
            &opts.ft);
  fs.toggle("quiet", "suppress the stdout summary", &quiet);
  cli::add_obs_flags(fs, obs_cfg, obs_out);

  if (argc >= 2 && argv[1][0] == '-') {
    if (const auto rc = fs.parse(argc, argv, 1)) return *rc;
    if (!attach_path.empty()) {
      return attach_mine(attach_path, opts.set, quiet, attach_retries);
    }
    fs.print_usage(stderr);
    return 2;
  }
  if (argc < 3) {
    fs.print_usage(stderr);
    return 2;
  }
  const std::filesystem::path dir = argv[1];
  const std::string app = argv[2];
  if (const auto rc = fs.parse(argc, argv, 3)) return *rc;

  // The miner has no Machine, but its pipeline still reports into the
  // flight recorder's metrics registry when one is installed (how many
  // mines ran, problems found, last coverage). A 1x1 recorder is enough.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (obs_cfg.enabled) {
    recorder = std::make_unique<obs::FlightRecorder>(1, 1, obs_cfg);
    obs::set_recorder(recorder.get());
  }

  const post::MineResult res = post::mine(dir, app, opts);

  const int obs_rc = cli::write_obs_outputs(obs_out, recorder.get(), app,
                                            quiet);
  obs::set_recorder(nullptr);

  if (!res.problems.empty()) {
    std::fprintf(stderr, "%zu problem(s) with the dump batch:\n",
                 res.problems.size());
    for (const auto& p : res.problems) {
      std::fprintf(stderr, "  %s\n", p.c_str());
    }
  }
  if (!res.ok) {
    std::fprintf(stderr, "%s: refusing to mine (coverage %s)\n",
                 opts.strict ? "strict mode" : "below quorum",
                 res.coverage.to_string().c_str());
    return 1;
  }

  const post::AppRecord& rec = res.record;
  const post::Aggregate agg(res.dumps, opts.set);

  if (!quiet) {
    const bool complete =
        opts.ft ? res.coverage.accounted() || res.coverage.full()
                : res.coverage.full();
    std::printf("coverage %s, set %u%s\n", res.coverage.to_string().c_str(),
                opts.set, complete ? ", sanity OK" : " — DEGRADED mine");
    if (opts.ft && !res.recovery.empty()) {
      std::printf("  FT recovery (%zu events):\n", res.recovery.size());
      for (const auto& e : res.recovery) {
        std::printf("    %s\n", ft::describe(e).c_str());
      }
    }
    print_mode_counts(agg);
    std::printf("  exec cycles (mean node max): %.0f (%.3f ms at 850 MHz)\n",
                rec.exec_cycles,
                1e3 * rec.exec_cycles / kCoreClockHz);
    std::printf("  MFLOPS/node:                 %.2f\n", rec.mflops_per_node);
    print_memory_metrics(agg, rec);
    std::printf("  dynamic FP mix:");
    for (unsigned i = 0; i < isa::kNumFpOps; ++i) {
      const auto op = static_cast<isa::FpOp>(i);
      if (rec.fp.fraction(op) < 0.005) continue;
      std::printf(" %s=%.1f%%", std::string(isa::to_string(op)).c_str(),
                  100.0 * rec.fp.fraction(op));
    }
    std::printf("\n");
  }

  if (!metrics_file.empty()) {
    CsvWriter csv;
    post::write_metrics_csv(csv, {rec});
    csv.write_file(metrics_file);
    if (!quiet) std::printf("wrote %s\n", metrics_file.c_str());
  }
  if (!stats_file.empty()) {
    CsvWriter csv;
    post::write_counter_stats_csv(csv, agg);
    csv.write_file(stats_file);
    if (!quiet) std::printf("wrote %s\n", stats_file.c_str());
  }
  if (!full_file.empty()) {
    CsvWriter csv;
    post::write_full_csv(csv, res.dumps, opts.set);
    csv.write_file(full_file);
    if (!quiet) std::printf("wrote %s\n", full_file.c_str());
  }
  return obs_rc;
}
