// Run the same benchmark in the node's operating modes (paper Fig 3 /
// §VIII): Virtual Node Mode with four processes per chip, Dual mode with
// two, SMP/1 with one — same total rank count, different chips used — and
// compare per-chip efficiency.
//
//   build/examples/modes_demo [BENCH]
#include <cstdio>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  nas::Benchmark bench = nas::Benchmark::kCG;
  try {
    if (argc > 1) bench = nas::parse_benchmark(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "modes_demo: %s\nusage: modes_demo [BENCH]\n",
                 e.what());
    return 2;
  }
  constexpr unsigned kRanks = 16;

  std::printf("%s class A, %u ranks in each operating mode\n\n",
              std::string(nas::name(bench)).c_str(), kRanks);
  std::printf("%-8s %8s %8s %14s %14s %14s\n", "mode", "nodes", "ranks",
              "exec Mcyc", "MFLOPS/chip", "DDR/node");

  struct ModeRun {
    sys::OpMode mode;
    unsigned nodes;
  };
  for (const ModeRun m : {ModeRun{sys::OpMode::kVnm, kRanks / 4},
                          ModeRun{sys::OpMode::kDual, kRanks / 2},
                          ModeRun{sys::OpMode::kSmp1, kRanks}}) {
    nas::RunSpec cfg;
    cfg.bench = bench;
    cfg.cls = nas::ProblemClass::kA;
    cfg.machine.num_nodes = m.nodes;
    cfg.machine.mode = m.mode;
    const auto out = nas::run_benchmark(cfg);
    std::printf("%-8s %8u %8u %14.2f %14.1f %14s %s\n",
                std::string(sys::to_string(m.mode)).c_str(), m.nodes, kRanks,
                out.record.exec_cycles / 1e6, out.record.mflops_per_node,
                human_bytes(out.record.ddr_traffic_bytes).c_str(),
                out.result.verified ? "" : "(verification FAILED)");
  }
  std::printf("\nVNM delivers the most work per chip; SMP/1 the most per "
              "process — the paper's §VIII trade-off.\n");
  return 0;
}
