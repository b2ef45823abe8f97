#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/promtext.hpp"

namespace bgp {
namespace {

using obs::LabelSet;
using obs::MetricsRegistry;

TEST(MetricsRegistry, FetchOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("bgpc_widgets_total", "widgets");
  obs::Counter& b = reg.counter("bgpc_widgets_total", "widgets");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);

  // Distinct label sets are distinct series under one family.
  obs::Counter& red =
      reg.counter("bgpc_labeled_total", "labeled", {{"color", "red"}});
  obs::Counter& blue =
      reg.counter("bgpc_labeled_total", "labeled", {{"color", "blue"}});
  EXPECT_NE(&red, &blue);
  EXPECT_EQ(reg.num_series(), 3u);
  EXPECT_EQ(reg.families().size(), 2u);
}

TEST(MetricsRegistry, TypeMismatchAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("bgpc_thing_total", "thing");
  EXPECT_THROW(reg.gauge("bgpc_thing_total", "thing"), std::logic_error);
  EXPECT_THROW(reg.histogram("bgpc_thing_total", "thing", {1.0}),
               std::logic_error);
  EXPECT_THROW(reg.counter("0bad", "bad name"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "bad name"), std::invalid_argument);
  EXPECT_THROW(reg.counter("bgpc_ok_total", "bad label", {{"0bad", "v"}}),
               std::invalid_argument);
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(obs::valid_metric_name("bgpc_upc_calls_total"));
  EXPECT_TRUE(obs::valid_metric_name("ns:sub:metric"));  // colons allowed
  EXPECT_TRUE(obs::valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_FALSE(obs::valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(obs::valid_metric_name("has-dash"));
  EXPECT_TRUE(obs::valid_label_name("call"));
  EXPECT_FALSE(obs::valid_label_name("with:colon"));  // labels: no colons
}

TEST(Histogram, BucketsAreCumulativeOnlyAtRenderTime) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  h.observe(5);     // bucket 0
  h.observe(10);    // le=10 -> still bucket 0
  h.observe(50);    // bucket 1
  h.observe(5000);  // +Inf bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
}

TEST(Promtext, RoundTripsEveryValueExactly) {
  MetricsRegistry reg;
  reg.counter("bgpc_runs_total", "runs").add(7);
  reg.counter("bgpc_calls_total", "calls", {{"call", "start"}}).add(41);
  reg.counter("bgpc_calls_total", "calls", {{"call", "stop"}}).add(40);
  // A value that needs all 17 significant digits to survive.
  reg.gauge("bgpc_ratio", "ratio").set(0.1 + 0.2);
  reg.gauge("bgpc_negative", "negative").set(-1234.5);
  obs::Histogram& h =
      reg.histogram("bgpc_lat_cycles", "latency", {100.0, 1000.0});
  h.observe(50);
  h.observe(500);
  h.observe(5000);

  const std::string text = obs::render_prometheus(reg);
  const std::map<std::string, double> parsed = obs::parse_prometheus(text);

  EXPECT_EQ(parsed.at("bgpc_runs_total"), 7.0);
  EXPECT_EQ(parsed.at(obs::prometheus_key("bgpc_calls_total",
                                          {{"call", "start"}})),
            41.0);
  EXPECT_EQ(parsed.at(obs::prometheus_key("bgpc_calls_total",
                                          {{"call", "stop"}})),
            40.0);
  EXPECT_EQ(parsed.at("bgpc_ratio"), 0.1 + 0.2);
  EXPECT_EQ(parsed.at("bgpc_negative"), -1234.5);
  // Histogram series render cumulative.
  EXPECT_EQ(parsed.at("bgpc_lat_cycles_bucket{le=\"100\"}"), 1.0);
  EXPECT_EQ(parsed.at("bgpc_lat_cycles_bucket{le=\"1000\"}"), 2.0);
  EXPECT_EQ(parsed.at("bgpc_lat_cycles_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_EQ(parsed.at("bgpc_lat_cycles_count"), 3.0);
  EXPECT_EQ(parsed.at("bgpc_lat_cycles_sum"), 5550.0);

  // The exposition carries HELP/TYPE headers for every family.
  EXPECT_NE(text.find("# HELP bgpc_runs_total runs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpc_runs_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpc_ratio gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpc_lat_cycles histogram"), std::string::npos);
}

TEST(Promtext, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("bgpc_esc_total", "escapes",
              {{"path", "a\"b\\c\nd"}})
      .add(1);
  const std::string text = obs::render_prometheus(reg);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
  // And the parser still sees exactly one sample.
  EXPECT_EQ(obs::parse_prometheus(text).size(), 1u);
}

TEST(Promtext, ParserRejectsMalformedSamples) {
  EXPECT_THROW((void)obs::parse_prometheus("bgpc_x not_a_number\n"),
               std::runtime_error);
  // Blank lines and comments are fine.
  const auto parsed = obs::parse_prometheus("\n# a comment\nbgpc_x 4\n");
  EXPECT_EQ(parsed.at("bgpc_x"), 4.0);
  // A histogram count must be a whole number that fits a u64; casting
  // anything else to u64 is undefined.
  for (const char* count : {"-5", "1e30", "2.5", "nan"}) {
    EXPECT_THROW((void)obs::parse_prometheus_histograms(
                     std::string("h_bucket{le=\"+Inf\"} ") + count + "\n"),
                 std::runtime_error)
        << count;
    EXPECT_THROW((void)obs::parse_prometheus_histograms(
                     std::string("h_bucket{le=\"1\"} 1\nh_count ") + count +
                     "\n"),
                 std::runtime_error)
        << count;
  }
}

TEST(Promtext, SampleDecoderInvertsTheRendererExactly) {
  // Label values with every escapable character must survive the
  // render -> parse_prometheus_sample round trip byte-for-byte.
  MetricsRegistry reg;
  const LabelSet labels = {{"path", "a\"b\\c\nd"}, {"phase", "parse"}};
  reg.counter("bgpc_rt_total", "round trip", labels).add(3);
  const std::string text = obs::render_prometheus(reg);

  std::string sample_line;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') sample_line = line;
  }
  ASSERT_FALSE(sample_line.empty());
  const obs::PromSample s = obs::parse_prometheus_sample(sample_line);
  EXPECT_EQ(s.name, "bgpc_rt_total");
  EXPECT_EQ(s.labels, labels);
  EXPECT_EQ(s.value, 3.0);

  EXPECT_THROW((void)obs::parse_prometheus_sample("name{unclosed=\"v\" 1"),
               std::runtime_error);
  EXPECT_THROW((void)obs::parse_prometheus_sample("justaname"),
               std::runtime_error);
  // +Inf bucket bounds decode to infinity.
  const obs::PromSample inf =
      obs::parse_prometheus_sample("h_bucket{le=\"+Inf\"} 9");
  ASSERT_EQ(inf.labels.size(), 1u);
  EXPECT_TRUE(std::isinf(obs::parse_prometheus_sample(
                             "h 1e999")  // overflowing value -> inf
                             .value));
  EXPECT_EQ(inf.labels[0].second, "+Inf");
}

TEST(Promtext, HistogramExpositionIsCumulativeAndMonotone) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram(
      "bgpc_hist_seconds", "hist", {0.001, 0.01, 0.1, 1.0},
      {{"phase", "dispatch"}});
  h.observe(0.0005);
  h.observe(0.005);
  h.observe(0.005);
  h.observe(0.5);
  h.observe(50.0);  // +Inf bucket

  const std::string text = obs::render_prometheus(reg);
  const auto hists = obs::parse_prometheus_histograms(text);
  const std::string key =
      "bgpc_hist_seconds{phase=\"dispatch\"}";
  ASSERT_TRUE(hists.count(key)) << text;
  const obs::ParsedHistogram& p = hists.at(key);

  // Buckets are cumulative and monotone non-decreasing in bound order,
  // and the +Inf bucket equals _count.
  ASSERT_EQ(p.buckets.size(), 5u);
  u64 prev = 0;
  for (const auto& [bound, cum] : p.buckets) {
    EXPECT_GE(cum, prev) << "bucket le=" << bound << " went backwards";
    prev = cum;
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(p.buckets.at(0.001), 1u);
  EXPECT_EQ(p.buckets.at(0.01), 3u);
  EXPECT_EQ(p.buckets.at(0.1), 3u);
  EXPECT_EQ(p.buckets.at(1.0), 4u);
  EXPECT_EQ(p.buckets.at(inf), 5u);
  EXPECT_EQ(p.count, 5u);
  EXPECT_DOUBLE_EQ(p.sum, 0.0005 + 0.005 + 0.005 + 0.5 + 50.0);
}

TEST(Promtext, HistogramQuantileInterpolatesLinearly) {
  obs::ParsedHistogram h;
  const double inf = std::numeric_limits<double>::infinity();
  // 10 observations uniform in (0, 1]: bucket bounds 0.5 and 1.0 get 5
  // each; quantiles interpolate inside the containing bucket.
  h.buckets[0.5] = 5;
  h.buckets[1.0] = 10;
  h.buckets[inf] = 10;
  h.count = 10;
  h.sum = 5.0;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 1.0);
  // q clamps; rank in the +Inf bucket returns the highest finite bound.
  obs::ParsedHistogram tail;
  tail.buckets[0.5] = 0;
  tail.buckets[inf] = 4;
  tail.count = 4;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(tail, 0.99), 0.5);
  // Empty histogram: NaN.
  obs::ParsedHistogram empty;
  EXPECT_TRUE(std::isnan(obs::histogram_quantile(empty, 0.5)));
}

}  // namespace
}  // namespace bgp
