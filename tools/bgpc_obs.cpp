// bgpc_obs — flight-recorder span miner: merge the per-node .bgps span
// files a run wrote (bgpc_run --obs / --obs-trace) and print a self-profile
// of where the simulated cycles and the host time went, one row per span
// name. Optionally re-exports the merged spans as a single Chrome
// trace-event JSON for Perfetto. The upc.* rows reproduce the paper's §IV
// library overhead figure (initialize+start+stop = 196 cycles per call)
// from span data alone.
//
//   bgpc_obs DIR APP [--trace=FILE] [--top=N] [--quiet]
#include <algorithm>
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "common/strfmt.hpp"
#include "daemon/attach.hpp"
#include "obs/span_io.hpp"

using namespace bgp;

namespace {

/// --attach: print a live view of a session's snapshot file — per-node
/// lifecycle state and publication cycle, plus the metrics exposition the
/// publisher mirrored into the file.
int attach_view(const std::filesystem::path& snap, bool quiet,
                unsigned retries) {
  daemon::AttachView view;
  try {
    daemon::AttachRetry retry;
    if (retries != 0) retry.attempts = retries;
    view = daemon::attach_file_retry(snap, retry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpc_obs --attach: %s\n", e.what());
    return 1;
  }
  std::printf("%s: session %s, app %s — %s\n", snap.string().c_str(),
              view.session.c_str(), view.app.c_str(),
              view.nodes.empty()  ? "no readable node"
              : view.final_only ? "final"
                                : "LIVE");
  for (const daemon::NodeSnapshot& n : view.nodes) {
    const char* state = n.state == daemon::SnapState::kIdle ? "idle"
                        : n.state == daemon::SnapState::kCounting
                            ? "counting"
                            : "final";
    std::printf("  node %3u card %3u mode %u  %-8s @ cycle %llu\n", n.node_id,
                n.card_id, n.mode, state,
                static_cast<unsigned long long>(n.published_cycle));
  }
  for (const unsigned n : view.busy) {
    std::printf("  node %3u BUSY (seqlock never settled: writer mid-publish "
                "or gone)\n", n);
  }
  for (const unsigned n : view.corrupt) {
    std::printf("  node %3u CORRUPT (slot CRC mismatch)\n", n);
  }
  if (!quiet && !view.metrics_text.empty()) {
    std::printf("\npublished metrics exposition:\n%s",
                view.metrics_text.c_str());
  }
  return view.busy.empty() && view.corrupt.empty() ? 0 : 1;
}

void print_profile(const std::vector<obs::ProfileRow>& rows, unsigned top) {
  std::printf("%-22s %-10s %10s %14s %10s %12s\n", "span", "cat", "calls",
              "cycles", "cyc/call", "host ms");
  unsigned shown = 0;
  for (const obs::ProfileRow& r : rows) {
    if (top != 0 && shown++ >= top) {
      std::printf("  ... %zu more row(s), raise --top to see them\n",
                  rows.size() - top);
      break;
    }
    std::printf("%-22s %-10s %10llu %14llu %10.1f %12.3f\n", r.name.c_str(),
                std::string(obs::to_string(r.cat)).c_str(),
                static_cast<unsigned long long>(r.calls),
                static_cast<unsigned long long>(r.cycles),
                r.calls ? static_cast<double>(r.cycles) / r.calls : 0.0,
                1e-6 * static_cast<double>(r.host_ns));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path trace_file;
  unsigned top = 20;
  bool quiet = false;

  std::filesystem::path attach_path;
  cli::FlagSet fs("bgpc_obs", "DIR APP");
  fs.path_value("attach", "SNAPFILE",
                "inspect a daemon/bgpc_run snapshot file (live attach) "
                "instead of span files",
                &attach_path);
  unsigned attach_retries = 0;
  fs.positive_value("attach-retries", "N",
                    "--attach: re-read attempts while the writer holds a "
                    "node's seqlock (default 8; each backs off with jitter)",
                    &attach_retries);
  fs.path_value("trace", "FILE",
                "re-export the merged spans as Chrome trace-event JSON",
                &trace_file);
  fs.unsigned_value("top", "N",
                    "self-profile rows to print, 0 for all (default 20)",
                    &top);
  fs.toggle("quiet", "suppress the self-profile tables", &quiet);

  if (argc >= 2 && argv[1][0] == '-') {
    if (const auto rc = fs.parse(argc, argv, 1)) return *rc;
    if (!attach_path.empty()) {
      return attach_view(attach_path, quiet, attach_retries);
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

  obs::SpanSet set;
  try {
    set = obs::load_span_dir(dir, app);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpc_obs: %s\n", e.what());
    return 1;
  }
  if (set.nodes.empty()) {
    std::fprintf(stderr, "bgpc_obs: no %s.node*.bgps files in %s\n",
                 app.c_str(), dir.string().c_str());
    return 1;
  }

  if (!quiet) {
    std::printf("%s: %zu node(s), %zu span(s), %zu instant(s)",
                app.c_str(), set.nodes.size(), set.spans.size(),
                set.instants.size());
    if (set.dropped > 0) {
      std::printf(", %llu DROPPED (ring too small — raise "
                  "--obs-span-capacity)",
                  static_cast<unsigned long long>(set.dropped));
    }
    std::printf("\n\nself-profile by inclusive simulated cycles:\n");
    print_profile(obs::self_profile(set.spans), top);

    // The paper's §IV library-overhead figure, recovered from span data
    // alone: mean cycles per call of the three hot interface calls.
    u64 calls = 0, cycles = 0;
    double per_call = 0.0;
    for (const obs::ProfileRow& r : obs::self_profile(set.spans)) {
      if (r.name == "upc.initialize" || r.name == "upc.start" ||
          r.name == "upc.stop") {
        calls = std::max(calls, r.calls);
        per_call += r.calls ? static_cast<double>(r.cycles) / r.calls : 0.0;
        cycles += r.cycles;
      }
    }
    if (calls > 0) {
      std::printf("\nlibrary overhead (initialize+start+stop): %.0f "
                  "cycles/call (%llu cycles over %llu calls)\n",
                  per_call, static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(calls));
    }
    if (!set.instants.empty()) {
      std::printf("\ninstants:\n");
      for (const obs::InstantRec& i : set.instants) {
        std::printf("  node %u core %u @ %llu: %s\n", i.node, i.core,
                    static_cast<unsigned long long>(i.cycles),
                    i.name.c_str());
      }
    }
  }

  if (!trace_file.empty()) {
    try {
      obs::write_chrome_trace_file(trace_file, set.spans, set.instants, app);
      if (!quiet) std::printf("wrote %s\n", trace_file.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bgpc_obs: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
