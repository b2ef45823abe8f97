// Explore a workload's sensitivity to the shared-L3 size and the L2
// prefetch depth (the hardware parameters the paper varies in §VII and
// flags as future work in §IX). Demonstrates the svchost-style boot options.
//
//   build/examples/l3_explorer [BENCH] [nodes]
#include <cstdio>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"
#include "tools/cli.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  nas::Benchmark bench = nas::Benchmark::kMG;
  // At least 4 nodes so both node-card parities exist: memory metrics come
  // from the odd-card (mode 1) nodes (paper's 512-events-per-run scheme).
  unsigned nodes = 4;
  try {
    if (argc > 1) bench = nas::parse_benchmark(argv[1]);
    if (argc > 2) nodes = cli::parse_positive("nodes", argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "l3_explorer: %s\nusage: l3_explorer [BENCH] [nodes]\n",
                 e.what());
    return 2;
  }

  std::printf("%s, %u nodes VNM, class W — boot-option exploration\n\n",
              std::string(nas::name(bench)).c_str(), nodes);

  std::printf("%-14s %14s %14s %12s\n", "L3 size", "DDR traffic", "exec Mcyc",
              "L3 miss%");
  for (u64 mb : {0, 1, 2, 4, 8}) {
    nas::RunSpec cfg;
    cfg.bench = bench;
    cfg.cls = nas::ProblemClass::kW;
    cfg.machine.num_nodes = nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.boot.l3_size_bytes = mb * MiB;
    const auto out = nas::run_benchmark(cfg);
    std::printf("%-14s %14s %14.2f %11.1f%%\n",
                mb ? strfmt("%llu MiB", (unsigned long long)mb).c_str()
                   : "disabled",
                human_bytes(out.record.ddr_traffic_bytes).c_str(),
                out.record.exec_cycles / 1e6,
                100.0 * out.record.l3_read_miss_ratio);
  }

  std::printf("\n%-14s %14s %14s\n", "L2 prefetch", "DDR traffic",
              "exec Mcyc");
  for (unsigned depth : {0u, 2u, 8u}) {
    nas::RunSpec cfg;
    cfg.bench = bench;
    cfg.cls = nas::ProblemClass::kW;
    cfg.machine.num_nodes = nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.boot.prefetch.depth = depth;
    const auto out = nas::run_benchmark(cfg);
    std::printf("%-14s %14s %14.2f\n",
                depth ? strfmt("depth %u", depth).c_str() : "off",
                human_bytes(out.record.ddr_traffic_bytes).c_str(),
                out.record.exec_cycles / 1e6);
  }
  return 0;
}
