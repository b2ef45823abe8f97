// Figure 14: increase in delivered MFLOPS per chip when using all four
// processors instead of one — the paper's headline for the Virtual Node
// Mode (~2.5x in their runs; 4x is the upper bound, the difference being
// the resource-sharing penalty of Figure 13).
#include "bench/mode_compare.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv, /*nodes=*/4,
                                              nas::ProblemClass::kA);
  bench::banner("Figure 14", "MFLOPS per chip, VNM vs SMP-1",
                "~2.5x more MFLOPS per chip with all four cores (the paper's "
                "evidence that VNM sharply increases resource utilization)");

  const auto pairs = bench::run_mode_comparison(args);
  bench::Table t({"app", "VNM MFLOPS/chip", "SMP MFLOPS/chip", "ratio",
                  "verified"});
  double ratio_sum = 0;
  bool all_ok = true;
  for (const auto& mp : pairs) {
    const double ratio = mp.vnm.record.mflops_per_node /
                         std::max(1.0, mp.smp.record.mflops_per_node);
    ratio_sum += ratio;
    all_ok = all_ok && mp.vnm.result.verified && mp.smp.result.verified;
    t.row({std::string(nas::name(mp.bench)),
           bench::fmt_double(mp.vnm.record.mflops_per_node, "%.1f"),
           bench::fmt_double(mp.smp.record.mflops_per_node, "%.1f"),
           bench::fmt_double(ratio),
           mp.vnm.result.verified && mp.smp.result.verified ? "yes" : "NO"});
  }
  t.print();
  const double avg = ratio_sum / pairs.size();
  std::printf("\naverage MFLOPS-per-chip ratio = %.2f (paper: ~2.5x; "
              "bounded by 4x, reduced by the Figure 13 penalty)\n", avg);
  const bool shape_ok = avg > 2.0 && avg <= 4.4;
  return (all_ok && shape_ok) ? 0 : 1;
}
