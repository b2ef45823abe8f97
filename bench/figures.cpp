#include "bench/figures.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>

#include "bench/util.hpp"
#include "postproc/metrics.hpp"
#include "sys/partition.hpp"

namespace bgp::bench {

namespace {

using nas::Benchmark;
using Specs = std::span<const nas::RunSpec>;
using Outs = std::span<const nas::RunOutput* const>;

struct Figure {
  const char* name;  ///< its binary
  const char* figure;
  const char* title;
  const char* expectation;
  unsigned default_nodes;
  nas::ProblemClass default_cls;
  std::vector<nas::RunSpec> (*runs)(const HarnessArgs& args);
  /// Print the table and shape line from `outs[i]`, the output of
  /// `specs[i]` (what runs() returned); true when the paper's shape holds.
  bool (*render)(Specs specs, Outs outs);
};

const char* yes_no(bool ok) { return ok ? "yes" : "NO"; }

/// The paper's rank count: every rank, except that SP and BT take the
/// largest square count (121 of 128 processes). 0 means all.
unsigned paper_ranks(const nas::RunSpec& s) {
  if (s.bench != Benchmark::kSP && s.bench != Benchmark::kBT) return 0;
  const auto side = static_cast<unsigned>(std::sqrt(
      s.machine.num_nodes * sys::processes_per_node(s.machine.mode)));
  return side * side;
}

/// Every (app, setting) run, app-major: a VNM run of the app at the
/// harness's class and partition size, `set(spec, i)` applied, on the
/// paper's rank count.
template <typename Set>
std::vector<nas::RunSpec> sweep(const HarnessArgs& args,
                                const std::vector<Benchmark>& apps,
                                std::size_t settings, Set set) {
  std::vector<nas::RunSpec> specs;
  for (Benchmark b : apps) {
    for (std::size_t i = 0; i < settings; ++i) {
      nas::RunSpec s;
      s.bench = b;
      s.cls = args.cls;
      s.machine.num_nodes = args.nodes;
      s.machine.mode = sys::OpMode::kVnm;
      set(s, i);
      s.machine.num_ranks_override = paper_ranks(s);
      specs.push_back(s);
    }
  }
  return specs;
}

/// `apps` under each of the paper's compiler option sets.
template <Benchmark... apps>
std::vector<nas::RunSpec> opt_runs(const HarnessArgs& args) {
  const auto& sets = opt::OptConfig::paper_set();
  return sweep(args, {apps...}, sets.size(), [&](nas::RunSpec& s, auto i) {
    s.machine.opt = sets[i];
  });
}

// Figure 3 needs no runs: the mode table, plus the rank placement the
// runtime derives from Virtual Node Mode.
std::vector<nas::RunSpec> fig03_runs(const HarnessArgs&) { return {}; }

bool fig03_render(Specs, Outs) {
  Table t({"mode", "processes/node", "threads/process", "cores used",
           "ranks on 32 nodes"});
  for (sys::OpMode m : {sys::OpMode::kSmp1, sys::OpMode::kSmp4,
                        sys::OpMode::kDual, sys::OpMode::kVnm}) {
    const unsigned ppn = sys::processes_per_node(m);
    const unsigned tpp = sys::threads_per_process(m);
    t.row({std::string(sys::to_string(m)), strfmt("%u", ppn),
           strfmt("%u", tpp), strfmt("%u", ppn * tpp),
           strfmt("%u", 32 * ppn)});
  }
  t.print();

  std::printf("\nplacement check (VNM, 2 nodes):\n");
  sys::Partition part(2, sys::OpMode::kVnm);
  for (unsigned r = 0; r < part.num_ranks(); ++r) {
    const auto pl = part.placement(r);
    std::printf("  rank %u -> node %u core %u\n", r, pl.node, pl.core);
  }
  return true;
}

// Figure 6: the paper runs class C with 128 processes (121 for SP/BT) on
// 32 nodes; pass --nodes=32 to match that scale.
std::vector<nas::RunSpec> fig06_runs(const HarnessArgs& args) {
  return sweep(args, nas::all_benchmarks(), 1, [](nas::RunSpec&, auto) {});
}

bool fig06_render(Specs specs, Outs outs) {
  Table t({"app", "ranks", "add-sub", "mult", "fma", "div", "simd add-sub",
           "simd mult", "simd fma", "verified"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& fp = outs[i]->record.fp;
    auto frac = [&](isa::FpOp op) {
      return strfmt("%5.1f%%", 100.0 * fp.fraction(op));
    };
    t.row({std::string(nas::name(specs[i].bench)),
           strfmt("%u", specs[i].effective_ranks()), frac(isa::FpOp::kAddSub),
           frac(isa::FpOp::kMult), frac(isa::FpOp::kFma),
           frac(isa::FpOp::kDiv), frac(isa::FpOp::kSimdAddSub),
           frac(isa::FpOp::kSimdMult), frac(isa::FpOp::kSimdFma),
           yes_no(outs[i]->result.verified)});
  }
  t.print();
  return true;
}

// Figures 7 (FT) and 8 (MG): SIMD instructions per XL option set, plus
// the share of quadword load/stores the SIMDizer adds.
bool simd_render(Specs specs, Outs outs) {
  Table t({"option set", "simd add-sub", "simd mult", "simd fma",
           "quad l/s fraction", "exec Mcycles", "verified"});
  double simd_without_440d = 0, best_simd = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& cfg_opt = specs[i].machine.opt;
    const nas::RunOutput& out = *outs[i];
    const auto& fp = out.record.fp;
    if (!cfg_opt.qarch440d) {
      simd_without_440d += fp.simd_instructions();
    } else {
      best_simd = std::max(best_simd, fp.simd_instructions());
    }
    t.row({cfg_opt.name(),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdAddSub], "%.0f"),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdMult], "%.0f"),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdFma], "%.0f"),
           strfmt("%.1f%%", 100.0 * out.record.ls.quad_fraction()),
           fmt_double(out.record.exec_cycles / 1e6),
           yes_no(out.result.verified)});
  }
  t.print();
  std::printf("\nshape check: SIMD without -qarch440d = %.0f (expect 0), "
              "best SIMD with it = %.0f (expect > 0)\n",
              simd_without_440d, best_simd);
  return simd_without_440d == 0 && best_simd > 0;
}

// Figures 9 and 10: cycle counts come from the CYCLE_COUNT counter exactly
// as in the paper; "vs base" is relative to the "-O -qstrict" baseline.
bool exec_time_render(Specs specs, Outs outs) {
  const auto& sets = opt::OptConfig::paper_set();
  const std::size_t configs = sets.size();
  const std::size_t apps = specs.size() / configs;
  auto cycles = [&](std::size_t c, std::size_t a) {
    return outs[a * configs + c]->record.exec_cycles;
  };
  auto app_name = [&](std::size_t a) {
    return std::string(nas::name(specs[a * configs].bench));
  };
  std::vector<std::string> headers{"option set"};
  for (std::size_t a = 0; a < apps; ++a) {
    headers.push_back(app_name(a) + " Mcyc");
    headers.push_back("vs base");
  }
  Table t(headers);
  for (std::size_t c = 0; c < configs; ++c) {
    std::vector<std::string> row{sets[c].name()};
    for (std::size_t a = 0; a < apps; ++a) {
      row.push_back(fmt_double(cycles(c, a) / 1e6));
      row.push_back(
          strfmt("%+.1f%%", 100.0 * (cycles(c, a) / cycles(0, a) - 1.0)));
    }
    t.row(row);
  }
  t.print();

  // Shape check: the best configuration (-O5 -qarch440d, last in the set)
  // must beat the baseline for every app.
  bool improved = true;
  std::printf("\nreduction at -O5 -qarch440d:");
  for (std::size_t a = 0; a < apps; ++a) {
    const double red = 1.0 - cycles(configs - 1, a) / cycles(0, a);
    std::printf(" %s=%.0f%%", app_name(a).c_str(), 100.0 * red);
    improved = improved && red > 0.0;
  }
  std::printf("\n");
  return improved;
}

// Figure 11: L3<->DDR traffic while the shared L3 is swept from 0 MB (no
// L3 at all — every request goes to the off-chip DDR) to 8 MB in 2 MB
// steps, via the boot options the paper sets "using the svchost options
// while booting a node".
constexpr std::array<u64, 5> kL3SizesMb{0, 2, 4, 6, 8};

std::vector<nas::RunSpec> fig11_runs(const HarnessArgs& args) {
  return sweep(args, nas::all_benchmarks(), kL3SizesMb.size(),
               [](nas::RunSpec& s, std::size_t i) {
                 s.machine.boot.l3_size_bytes = kL3SizesMb[i] * MiB;
               });
}

bool fig11_render(Specs specs, Outs outs) {
  std::vector<std::string> headers{"app"};
  for (u64 mb : kL3SizesMb) {
    headers.push_back(strfmt("%lluMB (MB to DDR)", (unsigned long long)mb));
  }
  headers.push_back("miss ratio @4MB");
  Table t(headers);

  bool shape_ok = true;
  const std::size_t n = kL3SizesMb.size();
  for (std::size_t app = 0; app < specs.size() / n; ++app) {
    std::vector<std::string> row{std::string(nas::name(specs[app * n].bench))};
    std::vector<double> traffic;
    for (std::size_t i = 0; i < n; ++i) {
      traffic.push_back(outs[app * n + i]->record.ddr_traffic_bytes);
      row.push_back(fmt_double(traffic.back() / 1e6));
    }
    row.push_back(strfmt(
        "%.1f%%", 100.0 * outs[app * n + 2]->record.l3_read_miss_ratio));
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
  return shape_ok;
}

// Figures 12-14 compare Virtual Node Mode against SMP/1. The paper compares
// the class C benchmarks with 128 processes on 32 nodes (VNM) against the
// same 128 processes on 128 nodes (SMP/1, L3 reduced to 2 MB per node for
// a fair per-process cache): we run the same process-count comparison at
// configurable scale, as a (VNM, SMP/1) pair per benchmark.
std::vector<nas::RunSpec> mode_pair_runs(const HarnessArgs& args) {
  return sweep(args, nas::all_benchmarks(), 2,
               [](nas::RunSpec& s, std::size_t i) {
                 if (i == 0) return;
                 // 4x the VNM node count hosts the same number of ranks.
                 s.machine.num_nodes *= 4;
                 s.machine.mode = sys::OpMode::kSmp1;
                 // Paper §VIII: "we reduced the L3 cache size to 2 MB per
                 // node using the svchost options" so one process sees the
                 // same cache as a VNM share.
                 s.machine.boot.l3_size_bytes = 2 * MiB;
               });
}

/// One table row per (VNM, SMP/1) pair: app, the VNM and SMP values of
/// `metric`, `ratio_cell(vnm / smp)` and whether both runs verified.
/// Returns vnm / smp per pair.
template <typename Metric, typename Fmt, typename RatioCell>
std::vector<double> mode_pair_table(std::vector<std::string> headers,
                                    Specs specs, Outs outs, Metric metric,
                                    Fmt fmt, RatioCell ratio_cell) {
  Table t(std::move(headers));
  std::vector<double> ratios;
  for (std::size_t p = 0; p < specs.size() / 2; ++p) {
    const nas::RunOutput& vnm = *outs[2 * p];
    const nas::RunOutput& smp = *outs[2 * p + 1];
    ratios.push_back(metric(vnm) / std::max(1.0, metric(smp)));
    t.row({std::string(nas::name(specs[2 * p].bench)), fmt(metric(vnm)),
           fmt(metric(smp)), ratio_cell(ratios.back()),
           yes_no(vnm.result.verified && smp.result.verified)});
  }
  t.print();
  return ratios;
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

bool fig12_render(Specs specs, Outs outs) {
  const double avg = mean(mode_pair_table(
      {"app", "VNM MB", "SMP MB", "ratio", "verified"}, specs, outs,
      [](const nas::RunOutput& o) { return o.record.ddr_traffic_bytes; },
      [](double v) { return fmt_double(v / 1e6); },
      [](double r) { return fmt_double(r); }));
  std::printf("\naverage ratio = %.2f (paper: ~3x; 4 ranks/chip bound the "
              "trivial ratio at 4x, shared-L3 reuse pulls it below)\n", avg);
  return avg > 2.0 && avg <= 4.3;
}

bool fig13_render(Specs specs, Outs outs) {
  const std::vector<double> ratios = mode_pair_table(
      {"app", "VNM Mcyc", "SMP Mcyc", "increase", "verified"}, specs, outs,
      [](const nas::RunOutput& o) { return o.record.exec_cycles; },
      [](double v) { return fmt_double(v / 1e6); },
      [](double r) { return strfmt("%+.1f%%", 100.0 * (r - 1.0)); });
  double sum_incr = 0;
  for (double r : ratios) sum_incr += r - 1.0;
  const double avg = 100.0 * sum_incr / ratios.size();
  std::printf("\naverage increase = %+.1f%% (paper: ~30%%; compute-bound "
              "apps sit near 0%%, memory-bound ones carry the penalty)\n",
              avg);
  // Shape: the penalty must be far below the 300% worst case of packing
  // four processes per chip.
  return avg < 100.0;
}

bool fig14_render(Specs specs, Outs outs) {
  const double avg = mean(mode_pair_table(
      {"app", "VNM MFLOPS/chip", "SMP MFLOPS/chip", "ratio", "verified"},
      specs, outs,
      [](const nas::RunOutput& o) { return o.record.mflops_per_node; },
      [](double v) { return fmt_double(v, "%.1f"); },
      [](double r) { return fmt_double(r); }));
  std::printf("\naverage MFLOPS-per-chip ratio = %.2f (paper: ~2.5x; "
              "bounded by 4x, reduced by the Figure 13 penalty)\n", avg);
  return avg > 2.0 && avg <= 4.4;
}

// Ablation (paper §IX future work): "vary the hardware parameters like
// prefetch amount in L2 ... and conclude on the optimal values for the
// modern workloads". Sweeps the L2 stream-prefetcher depth and reports
// execution time for the memory-sensitive kernels.
constexpr std::array<unsigned, 5> kPrefetchDepths{0, 1, 2, 4, 8};

std::vector<nas::RunSpec> prefetch_runs(const HarnessArgs& args) {
  return sweep(args, {Benchmark::kCG, Benchmark::kMG, Benchmark::kFT,
                      Benchmark::kLU},
               kPrefetchDepths.size(), [](nas::RunSpec& s, std::size_t i) {
                 s.machine.boot.prefetch.depth = kPrefetchDepths[i];
               });
}

bool prefetch_render(Specs specs, Outs outs) {
  std::vector<std::string> headers{"app"};
  for (unsigned d : kPrefetchDepths) headers.push_back(strfmt("d=%u Mcyc", d));
  headers.push_back("best depth");
  Table t(headers);

  bool ok = true;
  const std::size_t n = kPrefetchDepths.size();
  for (std::size_t app = 0; app < specs.size() / n; ++app) {
    std::vector<std::string> row{std::string(nas::name(specs[app * n].bench))};
    double best = 1e300;
    unsigned best_depth = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double cycles = outs[app * n + i]->record.exec_cycles;
      row.push_back(fmt_double(cycles / 1e6));
      if (cycles < best) {
        best = cycles;
        best_depth = kPrefetchDepths[i];
      }
    }
    row.push_back(strfmt("%u", best_depth));
    t.row(row);
    // Shape: prefetching must help streaming kernels.
    if (best >= outs[app * n]->record.exec_cycles) ok = false;
  }
  t.print();
  return ok;
}

constexpr const char* kSimdExpectation =
    "-qarch440d introduces large SIMD counts (zero without it); higher "
    "levels with 440d SIMDize the most; quad load/stores appear alongside";

const Figure kFigures[] = {
    {"fig03_modes", "Figure 3", "Modes of operation of a Blue Gene/P node",
     "SMP/1: 1 proc x 1 thread; SMP/4: 1 x 4; DUAL: 2 x 2; VNM: 4 x 1", 4,
     nas::ProblemClass::kW, fig03_runs, fig03_render},
    {"fig06_instr_profile", "Figure 6", "Dynamic FP instruction profile (VNM)",
     "MG and FT dominated by SIMD add-sub + SIMD FMA; EP, CG, IS, LU, SP, BT "
     "dominated by single FMA; div negligible",
     8, nas::ProblemClass::kW, fig06_runs, fig06_render},
    {"fig07_ft_simd", "Figure 7",
     "FT — SIMD instructions vs compiler optimization", kSimdExpectation, 4,
     nas::ProblemClass::kW, opt_runs<Benchmark::kFT>, simd_render},
    {"fig08_mg_simd", "Figure 8",
     "MG — SIMD instructions vs compiler optimization", kSimdExpectation, 4,
     nas::ProblemClass::kW, opt_runs<Benchmark::kMG>, simd_render},
    {"fig09_exec_time_opts", "Figure 9",
     "Execution time vs compiler optimization (VNM)",
     "FT/EP reach up to ~60% reduction at -O5 -qarch440d; CG and IS benefit "
     "less",
     4, nas::ProblemClass::kW,
     opt_runs<Benchmark::kFT, Benchmark::kEP, Benchmark::kCG, Benchmark::kIS>,
     exec_time_render},
    {"fig10_exec_time_opts", "Figure 10",
     "Execution time vs compiler optimization (VNM)",
     "MG gains strongly from SIMDization; LU/SP/BT benefit more modestly", 4,
     nas::ProblemClass::kW,
     opt_runs<Benchmark::kMG, Benchmark::kLU, Benchmark::kSP, Benchmark::kBT>,
     exec_time_render},
    {"fig11_l3_sweep", "Figure 11", "DDR traffic vs L3 cache size (VNM)",
     "steep drop 0->2->4 MB; ~10% L3 read miss ratio at 4 MB; little further "
     "benefit beyond 4 MB — \"4 MB is optimal\"",
     4, nas::ProblemClass::kW, fig11_runs, fig11_render},
    {"fig12_ddr_traffic_ratio", "Figure 12", "DDR traffic ratio, VNM / SMP-1",
     "~3x on average; memory-intensive apps with cache interference (FT, IS "
     "in the paper) approach or exceed 4x",
     4, nas::ProblemClass::kA, mode_pair_runs, fig12_render},
    {"fig13_exec_time_ratio", "Figure 13",
     "Execution-time increase per node, VNM vs SMP-1",
     "sharing the chip costs ~30% on average — far below the 4x worst case, "
     "confirming the CMP architecture's effectiveness",
     4, nas::ProblemClass::kA, mode_pair_runs, fig13_render},
    {"fig14_mflops_per_chip", "Figure 14", "MFLOPS per chip, VNM vs SMP-1",
     "~2.5x more MFLOPS per chip with all four cores (the paper's evidence "
     "that VNM sharply increases resource utilization)",
     4, nas::ProblemClass::kA, mode_pair_runs, fig14_render},
    {"abl_prefetch_sweep", "Ablation A1",
     "L2 prefetch depth sweep (paper section IX)",
     "deeper sequential prefetch hides DDR latency for streaming kernels up "
     "to a knee; depth 0 disables the prefetcher",
     4, nas::ProblemClass::kW, prefetch_runs, prefetch_render},
};

}  // namespace

int run_figures(std::string_view only, int argc, char** argv) {
  const HarnessArgs::Flags flags = HarnessArgs::parse_flags(argc, argv);

  // Each requested figure's specs; `distinct` holds every spec once, in
  // the order first requested.
  std::vector<std::pair<const Figure*, std::vector<nas::RunSpec>>> requested;
  std::vector<nas::RunSpec> distinct;
  std::size_t total = 0;
  for (const Figure& fig : kFigures) {
    if (!only.empty() && only != fig.name) continue;
    requested.emplace_back(
        &fig, fig.runs(flags.over(fig.default_nodes, fig.default_cls)));
    for (const nas::RunSpec& s : requested.back().second) {
      if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
        distinct.push_back(s);
      }
    }
    total += requested.back().second.size();
  }
  if (requested.empty()) {
    std::fprintf(stderr, "unknown figure: %s\n", std::string(only).c_str());
    return 2;
  }
  std::fprintf(stderr, "%zu distinct runs for %zu requested\n",
               distinct.size(), total);

  std::vector<nas::RunOutput> outputs;
  outputs.reserve(distinct.size());
  for (const nas::RunSpec& s : distinct) {
    outputs.push_back(nas::run_benchmark(s));
    outputs.back().dumps = {};  // the renders read only record and result
  }

  int rc = 0;
  for (const auto& [fig, specs] : requested) {
    banner(fig->figure, fig->title, fig->expectation);
    std::vector<const nas::RunOutput*> outs;
    bool verified = true;
    for (const nas::RunSpec& s : specs) {
      outs.push_back(&outputs[static_cast<std::size_t>(
          std::find(distinct.begin(), distinct.end(), s) - distinct.begin())]);
      verified = verified && outs.back()->result.verified;
    }
    if (!fig->render(specs, outs) || !verified) rc = 1;
  }
  return rc;
}

}  // namespace bgp::bench
