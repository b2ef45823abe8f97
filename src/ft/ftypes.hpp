// ULFM-style fault-tolerance vocabulary shared between the MiniMPI runtime
// and the recovery layer (src/ft/ftcomm.*). Header-only so bgp_runtime can
// speak these types without linking against bgp_ft.
//
// The model follows User-Level Failure Mitigation (the fault-tolerant Open
// MPI lineage): a communication call involving a failed peer returns an
// error (ProcFailedError ~ MPI_ERR_PROC_FAILED) instead of hanging or
// killing the caller; any survivor may then revoke the communicator
// (RevokedError ~ MPI_ERR_REVOKED interrupts everyone else's pending
// calls), after which the survivors agree on the failed set and shrink the
// communicator to continue. Every step is billed deterministic cycle costs
// and logged as a RecoveryEvent so the dump/mining pipeline can account for
// the ranks the run lost.
#pragma once

#include <stdexcept>
#include <string>

#include "common/strfmt.hpp"
#include "common/types.hpp"

namespace bgp::ft {

/// Runtime knobs for the failure-detection layer (Machine::set_ft_params).
struct FtParams {
  /// Off by default: without FT an injected death cascades exactly as in
  /// the plain fault-injection layer (blocked peers inherit the death).
  bool enabled = false;
  /// Cycles between a peer's failure becoming observable at a blocked or
  /// communicating rank and that rank's call raising ProcFailedError —
  /// the heartbeat/timeout latency of a real detector, billed to the
  /// detecting core.
  cycles_t detect_latency = 2000;

  bool operator==(const FtParams&) const = default;
};

/// One step of a recovery episode, in simulated time.
enum class RecoveryKind : u32 {
  kDeathDetected = 0,  ///< first survivor observed this node's death
  kRevoke = 1,         ///< communicator revoked over the barrier network
  kAgree = 2,          ///< reduction-based consensus on the failed set
  kShrink = 3,         ///< communicator rebuilt over the survivors
};

[[nodiscard]] constexpr const char* to_string(RecoveryKind kind) noexcept {
  switch (kind) {
    case RecoveryKind::kDeathDetected: return "death-detected";
    case RecoveryKind::kRevoke: return "revoke";
    case RecoveryKind::kAgree: return "agree";
    case RecoveryKind::kShrink: return "shrink";
  }
  return "?";
}

/// Recovery log entry; serialized verbatim into dump v3's recovery section.
struct RecoveryEvent {
  static constexpr u32 kNoNode = ~u32{0};
  static constexpr u32 kNoRank = ~u32{0};

  RecoveryKind kind = RecoveryKind::kDeathDetected;
  u32 node = kNoNode;  ///< dead node (kDeathDetected), else kNoNode
  u32 rank = kNoRank;  ///< detecting/initiating global rank, if any
  u64 cycle = 0;       ///< simulated cycle the step completed
  u64 cost = 0;        ///< cycles billed for the step
  /// kDeathDetected: the node's injected death cycle. kAgree: agreed failed
  /// rank count. kShrink: communicator size after the shrink.
  u64 aux = 0;

  friend bool operator==(const RecoveryEvent&,
                         const RecoveryEvent&) = default;
};

[[nodiscard]] inline std::string describe(const RecoveryEvent& e) {
  switch (e.kind) {
    case RecoveryKind::kDeathDetected:
      return strfmt("node %u death (cycle %llu) detected by rank %u at cycle "
                    "%llu (+%llu cycles)",
                    e.node, static_cast<unsigned long long>(e.aux), e.rank,
                    static_cast<unsigned long long>(e.cycle),
                    static_cast<unsigned long long>(e.cost));
    case RecoveryKind::kRevoke:
      return strfmt("communicator revoked by rank %u at cycle %llu (+%llu "
                    "cycles over the barrier network)",
                    e.rank, static_cast<unsigned long long>(e.cycle),
                    static_cast<unsigned long long>(e.cost));
    case RecoveryKind::kAgree:
      return strfmt("agreement on %llu failed rank(s) at cycle %llu (+%llu "
                    "cycles, two tree reductions)",
                    static_cast<unsigned long long>(e.aux),
                    static_cast<unsigned long long>(e.cycle),
                    static_cast<unsigned long long>(e.cost));
    case RecoveryKind::kShrink:
      return strfmt("communicator shrunk to %llu rank(s) at cycle %llu "
                    "(+%llu cycles)",
                    static_cast<unsigned long long>(e.aux),
                    static_cast<unsigned long long>(e.cycle),
                    static_cast<unsigned long long>(e.cost));
  }
  return "?";
}

/// A communication call observed a failed peer (~ MPI_ERR_PROC_FAILED).
/// Without a recovery handler (ft::run_guarded) this is fatal to the rank,
/// matching ULFM's default MPI_ERRORS_ARE_FATAL.
struct ProcFailedError : std::runtime_error {
  explicit ProcFailedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The communicator was revoked by a survivor (~ MPI_ERR_REVOKED): every
/// pending or future plain communication call on it raises this until a
/// shrink installs the survivor communicator.
struct RevokedError : std::runtime_error {
  explicit RevokedError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace bgp::ft
