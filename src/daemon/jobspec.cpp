#include "daemon/jobspec.hpp"

#include <cctype>

#include "common/strfmt.hpp"
#include "trace/tracer.hpp"

namespace bgp::daemon {

namespace {

unsigned get_unsigned(const json::Value& v, const char* key) {
  const u64 n = v.as_u64();
  if (n > ~0u) {
    throw json::JsonError(strfmt("'%s' is out of range", key));
  }
  return static_cast<unsigned>(n);
}

unsigned get_positive(const json::Value& v, const char* key) {
  const unsigned n = get_unsigned(v, key);
  if (n == 0) throw json::JsonError(strfmt("'%s' must be positive", key));
  return n;
}

/// The wire token parse_mode() accepts (sys::to_string's display form,
/// "SMP/1", is not parseable).
const char* mode_token(sys::OpMode m) {
  switch (m) {
    case sys::OpMode::kSmp1: return "smp1";
    case sys::OpMode::kSmp4: return "smp4";
    case sys::OpMode::kDual: return "dual";
    case sys::OpMode::kVnm: return "vnm";
  }
  return "?";
}

}  // namespace

JobSpec JobSpec::from_json(const json::Value& v) {
  if (!v.is_object()) {
    throw json::JsonError("job spec must be a JSON object");
  }
  JobSpec spec;
  rt::MachineConfig& mc = spec.machine;
  for (const auto& [key, val] : v.members()) {
    try {
      if (key == "session") {
        spec.session = val.as_string();
        if (!valid_session_name(spec.session)) {
          throw json::JsonError(
              "session names are [A-Za-z0-9._-], no leading dot, <= 64 "
              "chars");
        }
      } else if (key == "bench") {
        spec.bench = nas::parse_benchmark(val.as_string());
      } else if (key == "class") {
        spec.cls = nas::parse_class(val.as_string());
      } else if (key == "nodes") {
        mc.num_nodes = get_positive(val, key.c_str());
      } else if (key == "mode") {
        mc.mode = sys::parse_mode(val.as_string());
      } else if (key == "ranks") {
        mc.num_ranks_override = get_unsigned(val, key.c_str());
      } else if (key == "l3") {
        const u64 mib = val.as_u64();
        if (mib > ~u64{0} / MiB) throw json::JsonError("'l3' is out of range");
        mc.boot.l3_size_bytes = mib * MiB;
      } else if (key == "prefetch") {
        mc.boot.prefetch.depth = get_unsigned(val, key.c_str());
      } else if (key == "opt") {
        mc.opt = opt::OptConfig::parse(val.as_string());
      } else if (key == "sched") {
        mc.sched = rt::parse_sched_mode(val.as_string());
      } else if (key == "jobs") {
        mc.jobs = get_unsigned(val, key.c_str());
      } else if (key == "deaths") {
        spec.deaths = get_unsigned(val, key.c_str());
      } else if (key == "fault_seed") {
        spec.fault_seed = val.as_u64();
      } else if (key == "ft") {
        spec.ft.enabled = val.as_bool();
      } else if (key == "ft_detect_latency") {
        spec.ft.detect_latency = val.as_u64();
      } else if (key == "trace") {
        spec.trace.enabled = val.as_bool();
      } else if (key == "interval_cycles") {
        spec.trace.interval_cycles = val.as_u64();
        if (spec.trace.interval_cycles == 0) {
          throw json::JsonError("'interval_cycles' must be positive");
        }
      } else if (key == "preset") {
        spec.trace.preset = val.as_string();
        (void)trace::preset_trace_events(spec.trace.preset, 0);
      } else if (key == "buffer") {
        // The per-node trace ring this sized is gone; the key still parses
        // so journals that carry it replay.
        (void)get_positive(val, key.c_str());
      } else if (key == "obs") {
        spec.obs.enabled = val.as_bool();
      } else if (key == "obs_span_capacity") {
        spec.obs.span_capacity = get_positive(val, key.c_str());
      } else if (key == "snapshot_period_cycles") {
        spec.snapshot_period_cycles = val.as_u64();
      } else {
        throw json::JsonError(strfmt("unknown key '%s'", key.c_str()));
      }
    } catch (const json::JsonError&) {
      throw;
    } catch (const std::exception& e) {
      // Normalize parse_benchmark/parse_mode/... failures into the
      // structured bad_request path with the key named.
      throw json::JsonError(strfmt("'%s': %s", key.c_str(), e.what()));
    }
  }
  const unsigned capacity = mc.num_nodes * sys::processes_per_node(mc.mode);
  if (mc.num_ranks_override > capacity) {
    throw json::JsonError(
        strfmt("'ranks' %u exceeds the partition capacity %u",
               mc.num_ranks_override, capacity));
  }
  return spec;
}

json::Value JobSpec::to_json() const {
  const rt::MachineConfig& mc = machine;
  const rt::MachineConfig dflt;
  json::Value v = json::Value::object();
  if (!session.empty()) v.set("session", json::Value(session));
  v.set("bench", json::Value(std::string(nas::name(bench))));
  v.set("class", json::Value(std::string(nas::name(cls))));
  v.set("nodes", json::Value(u64{mc.num_nodes}));
  v.set("mode", json::Value(mode_token(mc.mode)));
  if (mc.num_ranks_override != 0) {
    v.set("ranks", json::Value(u64{mc.num_ranks_override}));
  }
  if (mc.boot.l3_size_bytes != dflt.boot.l3_size_bytes) {
    v.set("l3", json::Value(mc.boot.l3_size_bytes / MiB));
  }
  if (mc.boot.prefetch != dflt.boot.prefetch) {
    v.set("prefetch", json::Value(u64{mc.boot.prefetch.depth}));
  }
  if (mc.opt != dflt.opt) v.set("opt", json::Value(mc.opt.name()));
  v.set("sched", json::Value(mc.sched == rt::SchedMode::kParallel
                                 ? "parallel"
                                 : "serial"));
  if (mc.jobs != 0) v.set("jobs", json::Value(u64{mc.jobs}));
  if (deaths != 0) {
    v.set("deaths", json::Value(u64{deaths}));
    v.set("fault_seed", json::Value(fault_seed));
  }
  if (ft.enabled) {
    v.set("ft", json::Value(true));
    v.set("ft_detect_latency", json::Value(ft.detect_latency));
  }
  if (trace.enabled) {
    v.set("trace", json::Value(true));
    v.set("interval_cycles", json::Value(trace.interval_cycles));
    v.set("preset", json::Value(trace.preset));
  }
  if (obs.enabled) {
    v.set("obs", json::Value(true));
    if (obs.span_capacity != obs::ObsConfig{}.span_capacity) {
      v.set("obs_span_capacity", json::Value(u64{obs.span_capacity}));
    }
  }
  if (snapshot_period_cycles.has_value()) {
    v.set("snapshot_period_cycles", json::Value(*snapshot_period_cycles));
  }
  return v;
}

u64 estimate_resident_bytes(const nas::RunSpec& spec) {
  // Per node: the modeled L3 array dominates (its simulated size, 8 MiB by
  // default) plus 2 MiB of DDR/snoop/core structures. Per rank: a fiber
  // stack plus mailbox slack; 1 MiB covers the default fiber stack. The
  // snapshot mapping adds two full counter slots per node plus the metrics
  // text (~4.2 KiB + 128 KiB). Saturates instead of wrapping, so an
  // outsized L3 lands over any byte quota.
  using u128 = unsigned __int128;
  const u128 nodes = spec.machine.num_nodes;
  const u128 per_node = 2 * MiB + u128{spec.machine.boot.l3_size_bytes};
  const u128 per_rank = 1 * MiB;
  const u128 snapshot = nodes * 4352 + 160 * 1024;
  const u128 total =
      nodes * per_node + spec.effective_ranks() * per_rank + snapshot;
  return total > ~u64{0} ? ~u64{0} : static_cast<u64>(total);
}

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

}  // namespace bgp::daemon
