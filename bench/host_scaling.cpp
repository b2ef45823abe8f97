// Host-scaling curve for the epoch scheduler (docs/parallel-scheduler.md):
// run one benchmark under --sched=parallel at each worker count in the
// --jobs list, and report host wall-clock, speedup over the first row
// (jobs=1 in the default list), and the simulated cycle count of every
// run. Every row's simulated cycles must equal the first row's — the
// worker count trades host time, never simulated behaviour — and the
// harness fails if they do not.
//
// Defaults reproduce the acceptance configuration (CG class A on 64 VNM
// nodes = 256 ranks); --nodes/--class/--jobs scale it down for quick runs.
// Speedup is only meaningful on a multi-core host: with one core the
// workers serialize and the curve is flat (the JSON records host_cores so
// readers can tell).
//
// With BGPC_BENCH_ARTIFACT_DIR set the same rows are written to
// $BGPC_BENCH_ARTIFACT_DIR/BENCH_scaling.json (the CI artifact); otherwise
// BENCH_scaling.json lands in the working directory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/util.hpp"

using namespace bgp;

namespace {

std::vector<unsigned> parse_jobs_list(const char* v) {
  std::vector<unsigned> jobs;
  for (const char* p = v; *p != '\0';) {
    char* end = nullptr;
    const unsigned long j = std::strtoul(p, &end, 10);
    if (end == p || j == 0 || j > ~0u) {
      throw std::invalid_argument(strfmt("bad --jobs list: %s", v));
    }
    jobs.push_back(static_cast<unsigned>(j));
    p = *end == ',' ? end + 1 : end;
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  nas::RunSpec spec;
  spec.cls = nas::ProblemClass::kA;
  spec.machine.num_nodes = 64;
  spec.machine.sched = rt::SchedMode::kParallel;
  bool allow_oversub = false;
  std::vector<unsigned> jobs_list = {1, 2, 4, 8};
  cli::FlagSet fs(argv[0]);
  fs.value("bench", "B", "NAS benchmark (default CG)",
           [&](const char* v) { spec.bench = nas::parse_benchmark(v); });
  fs.positive_value("nodes", "N", "VNM partition size (default 64)",
                    &spec.machine.num_nodes);
  fs.value("class", "C", "problem class S|W|A (default A)",
           [&](const char* v) { spec.cls = nas::parse_class(v); });
  fs.value("jobs", "LIST", "worker counts to time (default 1,2,4,8)",
           [&](const char* v) { jobs_list = parse_jobs_list(v); });
  fs.toggle("allow-oversubscribed",
            "run worker counts above the host core count (flagged)",
            &allow_oversub);
  if (const auto rc = fs.parse(argc, argv, 1)) return *rc;
  const unsigned nodes = spec.machine.num_nodes;

  const unsigned host_cores = std::thread::hardware_concurrency();

  // Datapoints with more workers than host cores measure scheduler noise,
  // not scaling: skip them by default (they stay in the JSON as skipped),
  // or run-but-flag them under --allow-oversubscribed. host_cores == 0
  // means the host could not report a count — run everything, flag nothing.
  std::vector<unsigned> skipped_jobs;
  if (host_cores != 0 && !allow_oversub) {
    std::vector<unsigned> kept;
    for (const unsigned j : jobs_list) {
      (j > host_cores ? skipped_jobs : kept).push_back(j);
    }
    jobs_list = std::move(kept);
  }
  const auto oversubscribed = [&](unsigned j) {
    return host_cores != 0 && j > host_cores;
  };
  const unsigned ranks = nodes * sys::processes_per_node(sys::OpMode::kVnm);
  bench::banner("Host scaling (epoch scheduler)",
                "wall-clock vs worker count at fixed simulated behaviour",
                "simulated cycles identical on every row; wall-clock falls "
                "with --jobs up to min(host cores, nodes)");
  std::printf("%s class %s | %u VNM nodes (%u ranks) | host cores %u\n",
              std::string(nas::name(spec.bench)).c_str(),
              std::string(nas::name(spec.cls)).c_str(), nodes, ranks,
              host_cores);
  for (const unsigned j : skipped_jobs) {
    std::printf("skipping jobs=%u: oversubscribed (host has %u cores; "
                "--allow-oversubscribed to run anyway)\n",
                j, host_cores);
  }
  std::printf("\n");
  if (jobs_list.empty()) {
    std::fprintf(stderr, "no runnable --jobs datapoints\n");
    return 2;
  }

  bench::Table t({"jobs", "wall ms", "speedup vs jobs=1", "sim cycles"});
  struct Row {
    double wall_ms;
    cycles_t sim_cycles;
    bool verified;
  };
  std::vector<Row> rows;
  for (const unsigned j : jobs_list) {
    spec.machine.jobs = j;
    nas::Run run(spec);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = run.execute().ok();
    const auto t1 = std::chrono::steady_clock::now();
    rows.push_back({std::chrono::duration<double, std::milli>(t1 - t0).count(),
                    run.machine().elapsed(), ok});
  }
  const Row& base = rows.front();

  bool cycles_ok = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.row({strfmt(oversubscribed(jobs_list[i]) ? "%u (oversub)" : "%u",
                  jobs_list[i]),
           strfmt("%.1f", rows[i].wall_ms),
           strfmt("%.2fx", base.wall_ms / rows[i].wall_ms),
           strfmt("%llu",
                  static_cast<unsigned long long>(rows[i].sim_cycles))});
    cycles_ok = cycles_ok && rows[i].verified &&
                rows[i].sim_cycles == base.sim_cycles;
  }
  t.print();
  if (!cycles_ok) {
    std::printf("FAIL: simulated cycles differ across worker counts (or a "
                "run failed verification)\n");
  }

  std::string json = "{\n";
  json += strfmt("  \"bench\": \"%s\",\n",
                 std::string(nas::name(spec.bench)).c_str());
  json += strfmt("  \"class\": \"%s\",\n",
                 std::string(nas::name(spec.cls)).c_str());
  json += strfmt("  \"nodes\": %u,\n  \"ranks\": %u,\n  \"host_cores\": %u,\n",
                 nodes, ranks, host_cores);
  json += "  \"parallel\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += strfmt("    {\"jobs\": %u, \"wall_ms\": %.3f, "
                   "\"speedup_vs_jobs1\": %.3f, \"sim_cycles\": %llu, "
                   "\"oversubscribed\": %s}%s\n",
                   jobs_list[i], rows[i].wall_ms, base.wall_ms / rows[i].wall_ms,
                   static_cast<unsigned long long>(rows[i].sim_cycles),
                   oversubscribed(jobs_list[i]) ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"skipped_oversubscribed\": [";
  for (std::size_t i = 0; i < skipped_jobs.size(); ++i) {
    json += strfmt("%s%u", i == 0 ? "" : ", ", skipped_jobs[i]);
  }
  json += "],\n";
  json += strfmt("  \"sim_cycles_identical\": %s\n}\n",
                 cycles_ok ? "true" : "false");

  std::filesystem::path out = "BENCH_scaling.json";
  if (const char* dir = std::getenv("BGPC_BENCH_ARTIFACT_DIR")) {
    std::filesystem::create_directories(dir);
    out = std::filesystem::path(dir) / "BENCH_scaling.json";
  }
  std::FILE* f = std::fopen(out.string().c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.string().c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out.string().c_str());
  return cycles_ok ? 0 : 1;
}
