// The shared CLI helpers: duration parsing with mandatory unit suffixes,
// the exact ns -> simulated-cycles conversion, FlagSet's typed flag table
// (duration flags, repeated flags, error exits), the run-flag binding's
// parity with the job-spec keys, and the harnesses' strict flags and
// figure names.
#include <gtest/gtest.h>

#include <string>

#include "bench/figures.hpp"
#include "bench/util.hpp"
#include "cli.hpp"
#include "daemon/jobspec.hpp"

namespace bgp::cli {
namespace {

TEST(ParseDuration, AcceptsEveryUnitSuffix) {
  EXPECT_EQ(parse_duration_ns("--t", "425000ns"), 425'000u);
  EXPECT_EQ(parse_duration_ns("--t", "800us"), 800'000u);
  EXPECT_EQ(parse_duration_ns("--t", "250ms"), 250'000'000u);
  EXPECT_EQ(parse_duration_ns("--t", "2s"), 2'000'000'000u);
  EXPECT_EQ(parse_duration_ns("--t", "0ns"), 0u);
}

TEST(ParseDuration, AcceptsFractionsRoundedToWholeNs) {
  EXPECT_EQ(parse_duration_ns("--t", "1.5ms"), 1'500'000u);
  EXPECT_EQ(parse_duration_ns("--t", "0.5us"), 500u);
  EXPECT_EQ(parse_duration_ns("--t", "2.6ns"), 3u);  // rounds, not truncates
}

TEST(ParseDuration, RejectsBareNumbersJunkAndNegatives) {
  EXPECT_THROW((void)parse_duration_ns("--t", "500"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "5m"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "ms"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "-1s"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", ""), std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "1e12s"),
               std::invalid_argument);  // overflows the ns range
  try {
    (void)parse_duration_ns("--t", "1e12s");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
  try {
    (void)parse_duration_ns("--snapshot-period", "500");
    FAIL();
  } catch (const std::invalid_argument& e) {
    // The message names the flag and the accepted units.
    EXPECT_NE(std::string(e.what()).find("--snapshot-period"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ns, us, ms, s"), std::string::npos);
  }
}

TEST(ParseDuration, RejectsValuesPastInt64AndNaN) {
  // 9.3e18 ns fits u64 but not int64: a silent wrap downstream. Rejected.
  EXPECT_THROW((void)parse_duration_ns("--t", "9300000000000000000ns"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "1.8e19ns"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "10000000000s"),
               std::invalid_argument);
  // NaN fails every comparison — it must not sneak past the negative check
  // into an undefined float->integer cast.
  EXPECT_THROW((void)parse_duration_ns("--t", "nans"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_duration_ns("--t", "infs"),
               std::invalid_argument);
  // The largest representable duration still parses (~292 years).
  EXPECT_GT(parse_duration_ns("--t", "9000000000000000000ns"), 0u);
}

TEST(DurationToCycles, ExactAt850MHz) {
  // 17 cycles per 20 ns, computed in integers: no floating-point drift.
  EXPECT_EQ(duration_to_cycles(0), 0u);
  EXPECT_EQ(duration_to_cycles(20), 17u);
  EXPECT_EQ(duration_to_cycles(1'000'000'000), 850'000'000u);  // 1 s
  EXPECT_EQ(duration_to_cycles(500'000), 425'000u);            // 500 us
  // A full hour of simulated time stays exact (no u64 overflow en route).
  EXPECT_EQ(duration_to_cycles(u64{3'600} * 1'000'000'000),
            u64{3'060'000'000'000});
}

TEST(FlagSet, DurationAndRepeatedFlags) {
  cycles_t period = 0;
  u64 ns = 0;
  std::vector<std::string> preloads;
  FlagSet fs("t");
  fs.duration_cycles_value("snapshot-period", "DUR", "", &period)
      .duration_ns_value("timeout", "DUR", "", &ns)
      .repeated_value("preload", "JOB", "", &preloads);

  const char* argv[] = {"t", "--snapshot-period=500us", "--timeout=2s",
                        "--preload=a", "--preload=b"};
  EXPECT_EQ(fs.parse(5, const_cast<char**>(argv), 1), std::nullopt);
  EXPECT_EQ(period, 425'000u);
  EXPECT_EQ(ns, 2'000'000'000u);
  EXPECT_EQ(preloads, (std::vector<std::string>{"a", "b"}));
}

TEST(FlagSet, BadDurationValueExitsTwo) {
  cycles_t period = 0;
  FlagSet fs("t");
  fs.duration_cycles_value("snapshot-period", "DUR", "", &period);
  const char* argv[] = {"t", "--snapshot-period=500"};
  EXPECT_EQ(fs.parse(2, const_cast<char**>(argv), 1), std::optional<int>{2});
  const char* unknown[] = {"t", "--frobnicate"};
  EXPECT_EQ(fs.parse(2, const_cast<char**>(unknown), 1),
            std::optional<int>{2});
}

/// argv for `args`, which must outlive it.
std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

/// Parse one argument list with the run flags bound to a fresh RunSpec.
nas::RunSpec parse_run_flags(std::vector<std::string> args) {
  nas::RunSpec spec;
  ObsOutputs out;
  FlagSet fs("t");
  add_run_flags(fs, spec, out);
  args.insert(args.begin(), "t");
  std::vector<char*> argv = argv_of(args);
  EXPECT_EQ(fs.parse(static_cast<int>(argv.size()), argv.data(), 1),
            std::nullopt);
  return spec;
}

nas::RunSpec parse_job(const char* text) {
  return daemon::JobSpec::from_json(daemon::json::Value::parse(text));
}

// Setting a field with its flag and with its job-spec key gives the same
// RunSpec, for every key the two surfaces share.
TEST(RunFlags, EveryFlagMatchesItsJobSpecKey) {
  const std::pair<const char*, const char*> pairs[] = {
      {"--nodes=8", R"({"nodes":8})"},
      {"--mode=dual", R"({"mode":"dual"})"},
      {"--class=W", R"({"class":"W"})"},
      {"--ranks=3", R"({"ranks":3})"},
      {"--l3=2", R"({"l3":2})"},
      {"--l3=0", R"({"l3":0})"},
      {"--prefetch=4", R"({"prefetch":4})"},
      {"--prefetch=0", R"({"prefetch":0})"},
      {"--opt=-O3 -qarch440d", R"({"opt":"-O3 -qarch440d"})"},
      {"--sched=parallel", R"({"sched":"parallel"})"},
      {"--jobs=2", R"({"jobs":2})"},
      {"--deaths=2", R"({"deaths":2})"},
      {"--fault-seed=9", R"({"fault_seed":9})"},
      {"--ft", R"({"ft":true})"},
      {"--ft-detect-latency=3000", R"({"ft_detect_latency":3000})"},
      {"--trace", R"({"trace":true})"},
      {"--interval-cycles=5000", R"({"interval_cycles":5000})"},
      {"--events=mem", R"({"preset":"mem"})"},
      {"--obs", R"({"obs":true})"},
      {"--obs-span-capacity=1024", R"({"obs_span_capacity":1024})"},
  };
  for (const auto& [flag, key] : pairs) {
    const nas::RunSpec from_flag = parse_run_flags({flag});
    EXPECT_FALSE(from_flag == nas::RunSpec{}) << flag << " changed nothing";
    EXPECT_TRUE(from_flag == parse_job(key)) << flag << " vs " << key;
  }
  // And all of them at once.
  std::vector<std::string> flags;
  std::string body = "{";
  for (const auto& [flag, key] : pairs) {
    flags.push_back(flag);
    const std::string k(key);
    if (body.size() > 1) body += ",";
    body += k.substr(1, k.size() - 2);
  }
  body += "}";
  EXPECT_TRUE(parse_run_flags(flags) == parse_job(body.c_str())) << body;
}

TEST(RunFlags, L3SizeThatOverflowsBytesIsRejected) {
  nas::RunSpec spec;
  ObsOutputs out;
  FlagSet fs("t");
  add_run_flags(fs, spec, out);
  std::vector<std::string> args{"t", "--l3=17592186044416"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_EQ(fs.parse(2, argv.data(), 1), std::optional<int>{2});
  EXPECT_EQ(spec.machine.boot.l3_size_bytes, 8 * MiB);
}

TEST(RunFlags, DurationIntervalIsTheCycleFlagsTwin) {
  EXPECT_EQ(parse_run_flags({"--interval=100us"}).trace.interval_cycles,
            85'000u);
  EXPECT_TRUE(parse_run_flags({"--obs-metrics=m.prom"}).obs.enabled);
}

bench::HarnessArgs parse_harness(std::vector<std::string> args) {
  args.insert(args.begin(), "fig");
  std::vector<char*> argv = argv_of(args);
  return bench::HarnessArgs::parse_flags(static_cast<int>(argv.size()),
                                         argv.data())
      .over(4, nas::ProblemClass::kS);
}

TEST(HarnessArgsDeathTest, BadValuesExitTwoWithUsage) {
  EXPECT_EXIT(parse_harness({"--nodes=abc"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_harness({"--nodes=-1"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_harness({"--nodes=0"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_harness({"--class=Q"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_harness({"--frobnicate"}), ::testing::ExitedWithCode(2),
              "usage");
  const bench::HarnessArgs ok = parse_harness({"--nodes=8", "--class=A"});
  EXPECT_EQ(ok.nodes, 8u);
  EXPECT_EQ(ok.cls, nas::ProblemClass::kA);
  EXPECT_EQ(parse_harness({}).nodes, 4u);
}

// A figure binary built with a name the figure table lacks fails instead
// of rendering nothing and exiting 0.
TEST(HarnessFigures, AnUnknownFigureNameExitsTwo) {
  std::vector<std::string> args{"fig99_none"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_EQ(bench::run_figures("fig99_none", 1, argv.data()), 2);
}

}  // namespace
}  // namespace bgp::cli
