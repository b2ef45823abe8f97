// Shared helpers for the experiment harnesses: consistent headers, aligned
// table printing, and command-line scaling knobs. Every harness prints the
// paper artifact it regenerates plus the expectation its shape is checked
// against (EXPERIMENTS.md records the outcomes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"
#include "tools/cli.hpp"

namespace bgp::bench {

/// Print the standard harness banner.
inline void banner(const char* figure, const char* title,
                   const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("paper expectation: %s\n", expectation);
  std::printf("================================================================\n");
}

/// Minimal aligned-table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), v.c_str());
      }
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Command-line scaling: --nodes=N, --class=S|W|A. Defaults keep each
/// harness in the tens-of-seconds range; pass bigger values to approach the
/// paper's 32-node/128-rank configuration. A bad value or an unknown flag
/// prints usage and exits 2.
struct HarnessArgs {
  unsigned nodes = 4;
  nas::ProblemClass cls = nas::ProblemClass::kW;

  static HarnessArgs parse(int argc, char** argv, unsigned default_nodes,
                           nas::ProblemClass default_cls) {
    HarnessArgs a{default_nodes, default_cls};
    cli::FlagSet fs(argv[0]);
    fs.positive_value("nodes", "N", "partition size", &a.nodes);
    fs.value("class", "C", "problem class S|W|A",
             [&a](const char* v) { a.cls = nas::parse_class(v); });
    if (const auto rc = fs.parse(argc, argv, 1)) std::exit(*rc);
    return a;
  }

  /// A VNM run of `b` at the harness's class and partition size.
  [[nodiscard]] nas::RunSpec spec(nas::Benchmark b) const {
    nas::RunSpec s;
    s.bench = b;
    s.cls = cls;
    s.machine.num_nodes = nodes;
    s.machine.mode = sys::OpMode::kVnm;
    return s;
  }
};

/// The paper's square-rank convention for SP and BT (121 of 128 processes).
inline unsigned square_ranks(unsigned total) {
  unsigned s = 1;
  while ((s + 1) * (s + 1) <= total) ++s;
  return s * s;
}

/// Rank override for a run under the paper's conventions.
inline unsigned ranks_for(const nas::RunSpec& s) {
  const unsigned total =
      s.machine.num_nodes * sys::processes_per_node(s.machine.mode);
  if (s.bench == nas::Benchmark::kSP || s.bench == nas::Benchmark::kBT) {
    return square_ranks(total);
  }
  return 0;  // all
}

inline std::string fmt_double(double v, const char* fmt = "%.2f") {
  return strfmt(fmt, v);
}

}  // namespace bgp::bench
