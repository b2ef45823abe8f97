// A job submission on the daemon's control channel: a nas::RunSpec plus
// the session name and the snapshot period. The JSON form has one key per
// run flag that bgpc_run and bgpc_trace share (docs/bgpcd.md lists the
// pairs), and a submitted job runs through the same nas::Run as a batch
// run, so a daemon-hosted session reproduces a batch run exactly.
// Parsing is strict: unknown keys and malformed values are structured
// errors, never silent defaults.
#pragma once

#include <optional>
#include <string>

#include "daemon/json.hpp"
#include "nas/runner.hpp"

namespace bgp::daemon {

struct JobSpec : nas::RunSpec {
  /// Session name (path-safe: [A-Za-z0-9._-]); empty = daemon assigns one.
  std::string session;

  /// Periodic snapshot publication period in simulated cycles; nullopt =
  /// the daemon's default, 0 = final-only snapshots.
  std::optional<cycles_t> snapshot_period_cycles;

  /// Strict parse of a control-protocol submit object. Throws
  /// json::JsonError (with a human detail) on unknown keys or bad values.
  [[nodiscard]] static JobSpec from_json(const json::Value& v);
  /// The wire form (round-trips through from_json). `bench`, `class`,
  /// `nodes`, `mode` and `sched` are always written; any other key only
  /// when it differs from its default (the fault, FT and tracing keys only
  /// while their feature is on), so bodies journaled by older daemons
  /// re-serialize to the same bytes.
  [[nodiscard]] json::Value to_json() const;
};

/// Admission-control budgets, enforced per submit.
struct Quotas {
  unsigned max_sessions = 8;        ///< concurrently queued/running
  unsigned max_ranks = 1024;        ///< per session
  u64 max_resident_bytes = u64{2} << 30;  ///< sum over live sessions
};

/// Deterministic resident-memory model for admission control: the simulated
/// L3 + DDR structures per node, a fiber stack per rank, and the snapshot
/// file mapping. Intentionally a coarse upper-bound model — the point is a
/// stable, explainable admission decision.
[[nodiscard]] u64 estimate_resident_bytes(const nas::RunSpec& spec);

/// True when `name` is a safe session name (nonempty, [A-Za-z0-9._-],
/// no leading dot, at most 64 chars).
[[nodiscard]] bool valid_session_name(const std::string& name);

}  // namespace bgp::daemon
