// Shared execution-time-vs-optimization sweep for Figures 9 and 10.
#pragma once

#include "bench/util.hpp"

namespace bgp::bench {

inline int run_exec_time_sweep(const char* figure,
                               const std::vector<nas::Benchmark>& apps,
                               const char* expectation, int argc,
                               char** argv) {
  const auto args =
      HarnessArgs::parse(argc, argv, /*nodes=*/4, nas::ProblemClass::kW);
  banner(figure, "Execution time vs compiler optimization (VNM)",
         expectation);

  std::vector<std::string> headers{"option set"};
  for (nas::Benchmark b : apps) {
    headers.push_back(std::string(nas::name(b)) + " Mcyc");
    headers.push_back("vs base");
  }
  Table t(headers);

  // exec cycles per (config, app)
  std::vector<std::vector<double>> cycles;
  bool all_ok = true;
  for (const auto& cfg_opt : opt::OptConfig::paper_set()) {
    std::vector<double> per_app;
    for (nas::Benchmark b : apps) {
      nas::RunSpec cfg = args.spec(b);
      cfg.machine.opt = cfg_opt;
      cfg.machine.num_ranks_override = ranks_for(cfg);
      const auto out = nas::run_benchmark(cfg);
      all_ok = all_ok && out.result.verified;
      per_app.push_back(out.record.exec_cycles);
    }
    cycles.push_back(per_app);
  }

  for (std::size_t c = 0; c < cycles.size(); ++c) {
    std::vector<std::string> row{opt::OptConfig::paper_set()[c].name()};
    for (std::size_t a = 0; a < apps.size(); ++a) {
      row.push_back(fmt_double(cycles[c][a] / 1e6));
      row.push_back(strfmt("%+.1f%%",
                           100.0 * (cycles[c][a] / cycles[0][a] - 1.0)));
    }
    t.row(row);
  }
  t.print();

  // Shape check: the best configuration (-O5 -qarch440d, last in the set)
  // must beat the baseline for every app.
  bool improved = true;
  std::printf("\nreduction at -O5 -qarch440d:");
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double red = 1.0 - cycles.back()[a] / cycles.front()[a];
    std::printf(" %s=%.0f%%", std::string(nas::name(apps[a])).c_str(),
                100.0 * red);
    improved = improved && red > 0.0;
  }
  std::printf("\n");
  return (all_ok && improved) ? 0 : 1;
}

}  // namespace bgp::bench
