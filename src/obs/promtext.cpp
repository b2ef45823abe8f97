#include "obs/promtext.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace bgp::obs {

namespace {

std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string escape_help(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_value(double v) { return strfmt("%.17g", v); }

std::string label_block(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

LabelSet with_le(const LabelSet& labels, const std::string& le) {
  LabelSet out = labels;
  out.emplace_back("le", le);
  return out;
}

/// A bucket or _count sample's value as a count: a whole number that fits
/// a u64, or a malformed exposition.
u64 count_of(const PromSample& s, std::string_view line) {
  if (!(s.value >= 0) || s.value >= 0x1p64 || s.value != std::floor(s.value)) {
    throw std::runtime_error("malformed count sample: " + std::string(line));
  }
  return static_cast<u64>(s.value);
}

}  // namespace

std::string prometheus_key(std::string_view name, const LabelSet& labels) {
  return std::string(name) + label_block(labels);
}

std::string render_prometheus(const MetricsRegistry& reg) {
  std::string out;
  // Renders may race registration (the daemon registers per-session series
  // while /metrics scrapes run); hold the registration lock across the
  // iteration.
  const auto lock = reg.families_lock();
  for (const auto& fam : reg.families()) {
    out += "# HELP " + fam.name + " " + escape_help(fam.help) + "\n";
    out += "# TYPE " + fam.name + " " +
           std::string(to_string(fam.type)) + "\n";
    for (const auto& inst : fam.instances) {
      switch (fam.type) {
        case MetricType::kCounter:
          out += prometheus_key(fam.name, inst.labels) + " " +
                 strfmt("%llu",
                        static_cast<unsigned long long>(inst.counter.value())) +
                 "\n";
          break;
        case MetricType::kGauge:
          out += prometheus_key(fam.name, inst.labels) + " " +
                 format_value(inst.gauge.value()) + "\n";
          break;
        case MetricType::kHistogram: {
          if (inst.histogram == nullptr) break;
          const Histogram& h = *inst.histogram;
          u64 cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket(i);
            out += prometheus_key(fam.name + "_bucket",
                                  with_le(inst.labels,
                                          format_value(h.bounds()[i]))) +
                   " " + strfmt("%llu",
                                static_cast<unsigned long long>(cumulative)) +
                   "\n";
          }
          // Read the count once and clamp to the finite cumulative sum:
          // relaxed bucket/count updates racing this walk could otherwise
          // render a +Inf bucket below the last finite bucket (the bucket
          // increment lands before the count increment in observe()).
          // Quiescent registries are unaffected: count >= cumulative.
          const u64 total = std::max(cumulative, h.count());
          out += prometheus_key(fam.name + "_bucket",
                                with_le(inst.labels, "+Inf")) +
                 " " + strfmt("%llu",
                              static_cast<unsigned long long>(total)) +
                 "\n";
          out += prometheus_key(fam.name + "_sum", inst.labels) + " " +
                 format_value(h.sum()) + "\n";
          out += prometheus_key(fam.name + "_count", inst.labels) + " " +
                 strfmt("%llu",
                        static_cast<unsigned long long>(total)) +
                 "\n";
          break;
        }
      }
    }
  }
  return out;
}

void write_prometheus_file(const std::filesystem::path& path,
                           const MetricsRegistry& reg) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << render_prometheus(reg);
  out.flush();
  if (!out) {
    throw std::runtime_error(
        strfmt("failed to write %s", path.string().c_str()));
  }
}

PromSample parse_prometheus_sample(std::string_view line) {
  const auto malformed = [&line]() -> std::runtime_error {
    return std::runtime_error("malformed sample line: " + std::string(line));
  };
  PromSample out;
  std::size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  if (pos == 0 || pos == line.size()) throw malformed();
  out.name = std::string(line.substr(0, pos));

  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      if (line[pos] == ',') {
        ++pos;
        continue;
      }
      const std::size_t eq = line.find('=', pos);
      if (eq == std::string_view::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        throw malformed();
      }
      std::string key(line.substr(pos, eq - pos));
      std::string value;
      pos = eq + 2;
      // Unescape the quoted label value (\\, \", \n are the renderer's
      // full escape alphabet).
      for (;;) {
        if (pos >= line.size()) throw malformed();
        const char c = line[pos];
        if (c == '"') {
          ++pos;
          break;
        }
        if (c == '\\') {
          if (pos + 1 >= line.size()) throw malformed();
          const char esc = line[pos + 1];
          if (esc == 'n') {
            value += '\n';
          } else {
            value += esc;
          }
          pos += 2;
        } else {
          value += c;
          ++pos;
        }
      }
      out.labels.emplace_back(std::move(key), std::move(value));
    }
    if (pos >= line.size() || line[pos] != '}') throw malformed();
    ++pos;
  }

  if (pos >= line.size() || line[pos] != ' ') throw malformed();
  const std::string value_text(line.substr(pos + 1));
  char* end = nullptr;
  out.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    if (value_text == "+Inf") {
      out.value = std::numeric_limits<double>::infinity();
    } else {
      throw std::runtime_error("malformed sample value: " +
                               std::string(line));
    }
  }
  return out;
}

std::map<std::string, ParsedHistogram> parse_prometheus_histograms(
    std::string_view text) {
  std::map<std::string, ParsedHistogram> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;
    const PromSample s = parse_prometheus_sample(line);

    const auto strip_suffix = [&s](std::string_view suffix)
        -> std::optional<std::string> {
      if (s.name.size() <= suffix.size() ||
          s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
        return std::nullopt;
      }
      return s.name.substr(0, s.name.size() - suffix.size());
    };

    if (const auto base = strip_suffix("_bucket")) {
      double le = 0.0;
      bool have_le = false;
      LabelSet rest;
      for (const auto& [k, v] : s.labels) {
        if (k == "le") {
          le = v == "+Inf" ? std::numeric_limits<double>::infinity()
                           : std::strtod(v.c_str(), nullptr);
          have_le = true;
        } else {
          rest.emplace_back(k, v);
        }
      }
      if (!have_le) continue;  // a counter that merely ends in _bucket
      out[prometheus_key(*base, rest)].buckets[le] = count_of(s, line);
    } else if (const auto base_sum = strip_suffix("_sum")) {
      auto it = out.find(prometheus_key(*base_sum, s.labels));
      if (it != out.end()) it->second.sum = s.value;
    } else if (const auto base_count = strip_suffix("_count")) {
      auto it = out.find(prometheus_key(*base_count, s.labels));
      if (it != out.end()) it->second.count = count_of(s, line);
    }
  }
  return out;
}

double histogram_quantile(const ParsedHistogram& h, double q) {
  if (h.count == 0 || h.buckets.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(h.count);
  double prev_bound = 0.0;
  u64 prev_cum = 0;
  double highest_finite = 0.0;
  for (const auto& [bound, cum] : h.buckets) {
    if (std::isfinite(bound)) highest_finite = bound;
    if (static_cast<double>(cum) >= rank && cum > prev_cum) {
      if (!std::isfinite(bound)) return highest_finite;
      const double in_bucket = static_cast<double>(cum - prev_cum);
      const double frac = (rank - static_cast<double>(prev_cum)) / in_bucket;
      return prev_bound + (bound - prev_bound) * frac;
    }
    prev_bound = std::isfinite(bound) ? bound : prev_bound;
    prev_cum = cum;
  }
  return highest_finite;
}

std::map<std::string, double> parse_prometheus(std::string_view text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;
    // The value is the text after the last space outside the label block
    // (label values are quoted, so the last '}' splits reliably; bare
    // samples split at the last space).
    const std::size_t close = line.rfind('}');
    const std::size_t split = line.find(' ', close == std::string_view::npos
                                                  ? 0
                                                  : close);
    if (split == std::string_view::npos || split == 0) {
      throw std::runtime_error("malformed sample line: " + std::string(line));
    }
    const std::string key(line.substr(0, split));
    const std::string value_text(line.substr(split + 1));
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      throw std::runtime_error("malformed sample value: " + std::string(line));
    }
    out[key] = value;
  }
  return out;
}

}  // namespace bgp::obs
