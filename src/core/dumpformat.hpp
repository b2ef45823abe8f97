// The per-node dump files written by BGP_Finalize() and read by the
// post-processing tools (paper §IV). Layout, in the record codec's terms,
// and version history: docs/formats.md. Version 2 seals the header and
// every set; version 3 appends the fault-tolerance recovery log and is
// written only when a run recovered. Readers accept both; version 1, which
// carried no checksums, is rejected as unsupported.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ft/ftypes.hpp"
#include "isa/events.hpp"

namespace bgp::pc {

inline constexpr u32 kDumpMagic = 0x43504742;  // "BGPC" little-endian
inline constexpr u32 kDumpVersion = 2;         ///< per-section CRC32
inline constexpr u32 kDumpVersionFt = 3;       ///< + recovery-event section

struct SetDump {
  u32 set_id = 0;
  u32 pairs = 0;  ///< completed start/stop pairs accumulated into deltas
  u64 first_start_cycle = 0;
  u64 last_stop_cycle = 0;
  std::array<u64, isa::kCountersPerUnit> deltas{};
};

struct NodeDump {
  u32 node_id = 0;
  u32 card_id = 0;
  u32 counter_mode = 0;
  std::string app_name;
  std::vector<SetDump> sets;
  /// FT recovery log at this node's finalize (empty for non-FT or
  /// fault-free runs; serialized as the v3 recovery section).
  std::vector<ft::RecoveryEvent> recovery;

  /// Event id of physical counter `i` under this dump's mode.
  [[nodiscard]] isa::EventId event_of(unsigned counter) const {
    return static_cast<isa::EventId>(counter_mode * isa::kCountersPerUnit +
                                     counter);
  }
};

}  // namespace bgp::pc
