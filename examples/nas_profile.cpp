// Profile a NAS benchmark end to end the way the paper does it (Fig 5):
// link the interface library into MPI so the application needs no code
// changes, run it, dump per-node binary files, post-process them into the
// metrics .csv records.
//
//   build/examples/nas_profile [BENCH] [nodes] [vnm|smp1|dual] [S|W|A]
//   e.g. build/examples/nas_profile FT 8 vnm W
#include <cstdio>
#include <filesystem>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"
#include "postproc/loader.hpp"
#include "postproc/sanity.hpp"
#include "tools/cli.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  nas::RunSpec spec;
  try {
    spec.bench =
        argc > 1 ? nas::parse_benchmark(argv[1]) : nas::Benchmark::kCG;
    spec.machine.num_nodes =
        argc > 2 ? cli::parse_positive("nodes", argv[2]) : 4;
    spec.machine.mode =
        argc > 3 ? sys::parse_mode(argv[3]) : sys::OpMode::kVnm;
    spec.cls = argc > 4 ? nas::parse_class(argv[4]) : nas::ProblemClass::kW;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "nas_profile: %s\n"
                 "usage: nas_profile [BENCH] [nodes] [vnm|smp1|dual] "
                 "[S|W|A]\n",
                 e.what());
    return 2;
  }

  // Build the machine, instrument "MPI" with the interface library, run.
  const auto dump_dir = std::filesystem::path("bgpc_dumps");
  nas::Run run(spec, dump_dir);
  const std::string& app = run.session().options().app_name;
  std::printf("running %s class %s on %u nodes (%s, %u ranks)...\n",
              app.c_str(), std::string(nas::name(spec.cls)).c_str(),
              spec.machine.num_nodes,
              std::string(sys::to_string(spec.machine.mode)).c_str(),
              run.machine().num_ranks());
  const nas::RunResult result = run.execute();
  std::printf("verification: %s (%s)\n",
              result.kernel.verified ? "PASSED" : "FAILED",
              result.kernel.detail.c_str());

  // Post-process the dump files exactly like the paper's tools.
  const auto dumps = post::load_dumps(dump_dir, app);
  std::printf("loaded %zu per-node dump files from %s\n", dumps.size(),
              dump_dir.string().c_str());
  const auto sanity = post::check(dumps);
  if (!sanity.ok()) {
    for (const auto& p : sanity.problems)
      std::printf("sanity: %s\n", p.text.c_str());
    return 1;
  }

  const post::Aggregate agg(dumps, 0);
  const auto rec = post::make_record(app, agg);

  CsvWriter metrics;
  post::write_metrics_csv(metrics, {rec});
  metrics.write_file(dump_dir / "metrics.csv");
  CsvWriter stats;
  post::write_counter_stats_csv(stats, agg);
  stats.write_file(dump_dir / "counter_stats.csv");

  std::printf("\nmetrics record:\n%s", metrics.text().c_str());
  std::printf("\nMFLOPS/node=%.1f  exec=%.2f Mcycles (%.2f ms at 850 MHz)\n",
              rec.mflops_per_node, rec.exec_cycles / 1e6,
              1e3 * cycles_to_seconds(
                        static_cast<cycles_t>(rec.exec_cycles)));
  std::printf("L3<->DDR traffic: %s/node\n",
              human_bytes(rec.ddr_traffic_bytes).c_str());
  std::printf("wrote %s and %s\n", (dump_dir / "metrics.csv").string().c_str(),
              (dump_dir / "counter_stats.csv").string().c_str());
  return result.ok() ? 0 : 1;
}
