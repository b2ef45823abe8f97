// Figure 11: L3<->DDR traffic while the shared L3 is swept from 0 MB (no
// L3 at all — every request goes to the off-chip DDR) to 8 MB in 2 MB
// steps, via the boot options the paper sets "using the svchost options
// while booting a node".
#include "bench/util.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv, /*nodes=*/4,
                                              nas::ProblemClass::kW);
  bench::banner("Figure 11", "DDR traffic vs L3 cache size (VNM)",
                "steep drop 0->2->4 MB; ~10% L3 read miss ratio at 4 MB; "
                "little further benefit beyond 4 MB — \"4 MB is optimal\"");

  const std::vector<u64> sizes_mb{0, 2, 4, 6, 8};
  std::vector<std::string> headers{"app"};
  for (u64 mb : sizes_mb) headers.push_back(strfmt("%lluMB (MB to DDR)",
                                                   (unsigned long long)mb));
  headers.push_back("miss ratio @4MB");
  bench::Table t(headers);

  bool shape_ok = true;
  for (nas::Benchmark b : nas::all_benchmarks()) {
    std::vector<std::string> row{std::string(nas::name(b))};
    std::vector<double> traffic;
    double miss_at_4mb = 0;
    for (u64 mb : sizes_mb) {
      nas::RunSpec cfg = args.spec(b);
      cfg.machine.boot.l3_size_bytes = mb * MiB;
      cfg.machine.num_ranks_override = bench::ranks_for(cfg);
      const auto out = nas::run_benchmark(cfg);
      traffic.push_back(out.record.ddr_traffic_bytes);
      row.push_back(bench::fmt_double(out.record.ddr_traffic_bytes / 1e6));
      if (mb == 4) miss_at_4mb = out.record.l3_read_miss_ratio;
    }
    row.push_back(strfmt("%.1f%%", 100.0 * miss_at_4mb));
    t.row(row);
    // Shape: monotone non-increasing, and the 4->8 MB benefit must be small
    // relative to the 0->4 MB drop.
    for (std::size_t i = 1; i < traffic.size(); ++i) {
      if (traffic[i] > traffic[i - 1] * 1.02) shape_ok = false;
    }
    const double drop_to_4 = traffic[0] - traffic[2];
    const double drop_beyond = traffic[2] - traffic[4];
    if (drop_to_4 > 0 && drop_beyond > 0.25 * drop_to_4) shape_ok = false;
  }
  t.print();
  std::printf("\nshape check (monotone decrease, knee at 4 MB): %s\n",
              shape_ok ? "OK" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
