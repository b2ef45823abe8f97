// Shared helpers for the experiment harnesses: consistent headers, aligned
// table printing, and command-line scaling knobs. Every harness prints the
// paper artifact it regenerates plus the expectation its shape is checked
// against (EXPERIMENTS.md records the outcomes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
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

  /// The flags as given; an absent one stays empty.
  struct Flags {
    std::optional<unsigned> nodes;
    std::optional<nas::ProblemClass> cls;

    [[nodiscard]] HarnessArgs over(unsigned default_nodes,
                                   nas::ProblemClass default_cls) const {
      return {nodes.value_or(default_nodes), cls.value_or(default_cls)};
    }
  };

  static Flags parse_flags(int argc, char** argv) {
    Flags f;
    cli::FlagSet fs(argv[0]);
    fs.value("nodes", "N", "partition size", [&f](const char* v) {
      f.nodes = cli::parse_positive("--nodes", v);
    });
    fs.value("class", "C", "problem class S|W|A",
             [&f](const char* v) { f.cls = nas::parse_class(v); });
    if (const auto rc = fs.parse(argc, argv, 1)) std::exit(*rc);
    return f;
  }
};

inline std::string fmt_double(double v, const char* fmt = "%.2f") {
  return strfmt(fmt, v);
}

}  // namespace bgp::bench
