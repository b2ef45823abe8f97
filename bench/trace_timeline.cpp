// Tracing-subsystem harness: run NAS kernels with threshold-driven counter
// tracing on, mine the per-node traces into a merged timeline, and print
// the recovered phase structure. The paper characterizes workloads from
// whole-run aggregates; the time-series layer shows the same metrics
// resolved over execution time.
#include <filesystem>

#include "bench/util.hpp"
#include "postproc/timeline.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse_flags(argc, argv)
                        .over(8, nas::ProblemClass::kS);
  bench::banner("Timeline (tracing subsystem)",
                "Phase structure mined from per-node counter traces",
                "iterative kernels alternate compute and communicate; the "
                "change-point miner should recover a multi-phase timeline "
                "with full coverage and plausible per-phase MFLOPS");

  nas::RunSpec spec;
  spec.cls = args.cls;
  spec.machine.num_nodes = args.nodes;
  spec.machine.mode = sys::OpMode::kSmp1;
  spec.trace.enabled = true;
  spec.trace.interval_cycles = 4'000;
  post::TimelineOptions mine;
  mine.expected_nodes = args.nodes;
  int rc = 0;
  for (const nas::Benchmark b : {nas::Benchmark::kFT, nas::Benchmark::kCG}) {
    const std::string app(nas::name(b));
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("bgpc_trace_timeline_bench_" + app);
    std::filesystem::remove_all(dir);
    spec.bench = b;
    nas::Run run(spec, dir);
    const bool verified = run.execute().ok();
    const post::TimelineReport report = post::mine_timeline(dir, app, mine);
    std::filesystem::remove_all(dir);

    std::printf("\n%s class %s, %u nodes SMP/1, interval 4000 cycles:\n",
                app.c_str(), std::string(nas::name(args.cls)).c_str(),
                args.nodes);
    std::fputs(post::render_timeline(report).c_str(), stdout);

    const bool shape_ok = report.ok && report.phases.size() >= 2 &&
                          report.coverage.mined == args.nodes && verified;
    if (!shape_ok) {
      std::printf("FAIL: expected a verified run mining to >= 2 phases with "
                  "full coverage\n");
      rc = 1;
    }
  }
  return rc;
}
