// The control-protocol JSON value: parse/dump round trips, strict error
// reporting, and the JobSpec wire form (unknown keys and bad values are
// structured errors, never silent defaults).
#include <gtest/gtest.h>

#include "daemon/jobspec.hpp"
#include "daemon/json.hpp"

namespace bgp::daemon {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::Value::parse("null").is_null());
  EXPECT_TRUE(json::Value::parse("true").as_bool());
  EXPECT_FALSE(json::Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::Value::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(json::Value::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
  EXPECT_EQ(json::Value::parse("18014398509481984").as_u64(),
            u64{18014398509481984});
}

TEST(Json, ParsesNestedStructures) {
  const json::Value v =
      json::Value::parse(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_TRUE(a->items()[2].get("b")->as_bool());
  EXPECT_TRUE(v.get("c")->get("d")->is_null());
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, DumpRoundTripsAndKeepsMemberOrder) {
  const char* text = R"({"z":1,"a":[true,null,"x"],"m":{"k":2.5}})";
  const json::Value v = json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order, compact integers
  const json::Value again = json::Value::parse(v.dump());
  EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, EscapesControlCharactersOnDump) {
  json::Value v = json::Value::object();
  v.set("s", json::Value(std::string("a\tb\x01" "c")));
  EXPECT_EQ(v.dump(), "{\"s\":\"a\\tb\\u0001c\"}");
  EXPECT_EQ(json::Value::parse(v.dump()).get("s")->as_string(),
            "a\tb\x01" "c");
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(json::Value::parse("\"\\u00e9\\u20ac\"").as_string(),
            "\xc3\xa9\xe2\x82\xac");  // é €
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  try {
    (void)json::Value::parse("{\"a\": tru}");
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW((void)json::Value::parse(""), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("{\"a\":1} junk"), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("[1,]"), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("\"unterminated"), json::JsonError);
}

// The parser recurses once per array or object, so nesting is bounded: a
// request line of 100,000 '[' must be an error, not a stack overflow.
TEST(Json, RejectsNestingDeeperThanTheLimit) {
  const auto nested = [](unsigned depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const json::Value deepest = json::Value::parse(nested(json::kMaxDepth));
  EXPECT_EQ(deepest.dump(), nested(json::kMaxDepth));
  EXPECT_THROW((void)json::Value::parse(nested(json::kMaxDepth + 1)),
               json::JsonError);
  EXPECT_THROW(
      (void)json::Value::parse("{\"a\":" + nested(json::kMaxDepth) + "}"),
      json::JsonError);
  try {
    (void)json::Value::parse(std::string(100'000, '['));
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(Json, TypeMismatchesThrow) {
  const json::Value v = json::Value::parse("{\"n\":-1}");
  EXPECT_THROW((void)v.get("n")->as_u64(), json::JsonError);
  EXPECT_THROW((void)v.get("n")->as_string(), json::JsonError);
  EXPECT_THROW((void)v.get("n")->as_bool(), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("1.5").as_u64(), json::JsonError);
}

TEST(JobSpec, RoundTripsThroughJson) {
  JobSpec spec;
  spec.session = "night-run.7";
  spec.bench = nas::Benchmark::kLU;
  spec.cls = nas::ProblemClass::kW;
  rt::MachineConfig& mc = spec.machine;
  mc.num_nodes = 8;
  mc.mode = sys::OpMode::kDual;
  mc.num_ranks_override = 12;
  mc.boot.l3_size_bytes = 2 * MiB;
  mc.boot.prefetch.depth = 4;
  mc.opt = opt::OptConfig::parse("-O3 -qarch440d");
  mc.sched = rt::SchedMode::kParallel;
  mc.jobs = 4;
  spec.deaths = 2;
  spec.fault_seed = 99;
  spec.ft.enabled = true;
  spec.ft.detect_latency = 3000;
  spec.trace.enabled = true;
  spec.trace.interval_cycles = 5000;
  spec.trace.preset = "mem";
  spec.obs.enabled = true;
  spec.obs.span_capacity = 1024;
  spec.snapshot_period_cycles = 100'000;

  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(back.session, spec.session);
  EXPECT_TRUE(static_cast<const nas::RunSpec&>(back) == spec);
  EXPECT_EQ(back.machine, spec.machine);
  EXPECT_EQ(back.trace, spec.trace);
  EXPECT_EQ(back.obs, spec.obs);
  EXPECT_EQ(back.ft, spec.ft);
  ASSERT_TRUE(back.snapshot_period_cycles.has_value());
  EXPECT_EQ(*back.snapshot_period_cycles, *spec.snapshot_period_cycles);

  // The off forms: L3 and prefetch disabled.
  mc.boot.l3_size_bytes = 0;
  mc.boot.prefetch.depth = 0;
  EXPECT_EQ(JobSpec::from_json(spec.to_json()).machine, spec.machine);
}

TEST(JobSpec, RejectsUnknownKeysAndBadValues) {
  const auto parse = [](const char* text) {
    return JobSpec::from_json(json::Value::parse(text));
  };
  EXPECT_THROW((void)parse(R"({"bennch":"CG"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"session":5})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"bench":"XX"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"class":"Z"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"nodes":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"nodes":-1})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"mode":"quad"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"ranks":1.5})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"l3":-8})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"l3":"8MB"})"), json::JsonError);
  // 2^44 MiB is 2^64 bytes: rejected, not wrapped to an L3 of zero.
  EXPECT_THROW((void)parse(R"({"l3":17592186044416})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"prefetch":-1})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"prefetch":true})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"opt":"-O9"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"opt":5})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"sched":"turbo"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"jobs":"two"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"deaths":-1})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"fault_seed":1.5})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"ft":"yes"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"ft_detect_latency":-5})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"trace":1})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"session":".hidden"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"session":"a/b"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"interval_cycles":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"preset":"nope"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"buffer":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"obs":"on"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"obs_span_capacity":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"snapshot_period_cycles":-1})"),
               json::JsonError);
  // Ranks beyond the partition's capacity (4 nodes VNM = 16).
  EXPECT_THROW((void)parse(R"({"nodes":4,"ranks":17})"), json::JsonError);
  EXPECT_THROW((void)parse(R"(["not","an","object"])"), json::JsonError);
  try {
    (void)parse(R"({"opt":"-O9"})");
    FAIL();
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("'opt'"), std::string::npos)
        << e.what();
  }
}

// Bodies in the shape older daemons journaled: each parses, and
// re-serializes to the same bytes, so a journal replays unchanged and new
// keys appear only where a field differs from its default.
TEST(JobSpec, OlderJournalBodiesRoundTripByteForByte) {
  const char* const corpus[] = {
      R"({"bench":"CG","class":"S","nodes":4,"mode":"vnm","sched":"serial"})",
      R"({"session":"p1","bench":"EP","class":"S","nodes":2,"mode":"vnm",)"
      R"("sched":"parallel","jobs":2})",
      R"({"bench":"CG","class":"W","nodes":8,"mode":"vnm","sched":"serial",)"
      R"("deaths":2,"fault_seed":7})",
      R"({"bench":"MG","class":"S","nodes":4,"mode":"dual","ranks":6,)"
      R"("sched":"serial","deaths":1,"fault_seed":3,"ft":true,)"
      R"("ft_detect_latency":2000})",
      R"({"bench":"FT","class":"S","nodes":2,"mode":"smp1",)"
      R"("sched":"serial","trace":true,"interval_cycles":5000,)"
      R"("preset":"mem"})",
      R"({"bench":"LU","class":"A","nodes":16,"mode":"smp4",)"
      R"("sched":"serial","obs":true,"snapshot_period_cycles":85000})",
      R"({"session":"all.1","bench":"BT","class":"W","nodes":32,)"
      R"("mode":"vnm","ranks":121,"sched":"parallel","jobs":4,"deaths":1,)"
      R"("fault_seed":11,"ft":true,"ft_detect_latency":1500,"trace":true,)"
      R"("interval_cycles":10000,"preset":"default","obs":true,)"
      R"("snapshot_period_cycles":0})",
  };
  for (const char* body : corpus) {
    EXPECT_EQ(JobSpec::from_json(json::Value::parse(body)).to_json().dump(),
              body);
  }
}

// "buffer" sized a per-node trace ring that no longer exists. Journals that
// carry it still replay: the key parses (0 is still rejected, see above),
// changes nothing and is not written back.
TEST(JobSpec, BufferKeyOfOlderJournalsParsesAndIsIgnored) {
  const char* body =
      R"({"bench":"FT","class":"S","nodes":2,"mode":"smp1",)"
      R"("sched":"serial","trace":true,"interval_cycles":5000,)"
      R"("preset":"mem"})";
  const char* with_buffer =
      R"({"bench":"FT","class":"S","nodes":2,"mode":"smp1",)"
      R"("sched":"serial","trace":true,"interval_cycles":5000,)"
      R"("preset":"mem","buffer":128})";
  const JobSpec plain = JobSpec::from_json(json::Value::parse(body));
  const JobSpec old = JobSpec::from_json(json::Value::parse(with_buffer));
  EXPECT_TRUE(static_cast<const nas::RunSpec&>(old) == plain);
  EXPECT_EQ(old.to_json().dump(), body);
}

TEST(JobSpec, EffectiveRanksFollowsModeAndOverride) {
  JobSpec spec;
  spec.machine.num_nodes = 4;
  spec.machine.mode = sys::OpMode::kVnm;
  EXPECT_EQ(spec.effective_ranks(), 16u);
  spec.machine.mode = sys::OpMode::kSmp1;
  EXPECT_EQ(spec.effective_ranks(), 4u);
  spec.machine.num_ranks_override = 3;
  EXPECT_EQ(spec.effective_ranks(), 3u);
}

TEST(JobSpec, ResidentEstimateScalesWithPartition) {
  JobSpec small, big;
  small.machine.num_nodes = 2;
  big.machine.num_nodes = 32;
  EXPECT_LT(estimate_resident_bytes(small), estimate_resident_bytes(big));
  EXPECT_GT(estimate_resident_bytes(small), 0u);
  // The simulated L3 is counted at its configured size, saturating.
  JobSpec big_l3 = small;
  big_l3.machine.boot.l3_size_bytes = 64 * MiB;
  EXPECT_GE(estimate_resident_bytes(big_l3),
            estimate_resident_bytes(small) + 2 * 56 * MiB);
  big_l3.machine.boot.l3_size_bytes = ~u64{0} / MiB * MiB;
  EXPECT_EQ(estimate_resident_bytes(big_l3), ~u64{0});
}

TEST(JobSpec, SessionNameValidation) {
  EXPECT_TRUE(valid_session_name("run-1.A_b"));
  EXPECT_FALSE(valid_session_name(""));
  EXPECT_FALSE(valid_session_name(".dot"));
  EXPECT_FALSE(valid_session_name("a b"));
  EXPECT_FALSE(valid_session_name("a/b"));
  EXPECT_FALSE(valid_session_name(std::string(65, 'x')));
}

}  // namespace
}  // namespace bgp::daemon
