// The Blue Gene/P UPC event space: 1024 possible events organized as four
// counter modes of 256 events each (paper §III-A). A UPC unit set to mode M
// maps event id E (with E/256 == M) onto physical counter E%256.
//
// Mode 0: per-core events — FPU op classes, load/store classes, integer and
//         branch classes, cycle/instruction counts, L1 and L2 cache events.
//         Each of the four cores owns a 64-event slice.
// Mode 1: chip-level memory events — shared L3, the two DDR controllers and
//         the snoop filter.
// Mode 2: network events — torus, collective and barrier networks.
// Mode 3: system/instrumentation events — Time Base reads, UPC interface
//         calls and overhead, MPI activity, rank active/idle cycles.
#pragma once

#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "isa/ops.hpp"

namespace bgp::isa {

/// Global event identifier in [0, 1024).
using EventId = u16;

inline constexpr u16 kNumEvents = 1024;
inline constexpr u16 kNumCounterModes = 4;
inline constexpr u16 kCountersPerUnit = 256;
inline constexpr unsigned kCoresPerNode = 4;

/// Counter mode that owns an event.
[[nodiscard]] constexpr u8 event_mode(EventId id) noexcept {
  return static_cast<u8>(id / kCountersPerUnit);
}
/// Sentinel meaning "this hook is not wired to an event line".
inline constexpr EventId kNoEvent = 0xFFFF;

/// Physical counter index an event maps to within its mode.
[[nodiscard]] constexpr u8 event_counter(EventId id) noexcept {
  return static_cast<u8>(id % kCountersPerUnit);
}

/// Hardware unit an event originates from.
enum class Unit : u8 {
  kFpu,
  kCore,
  kL1d,
  kL1i,
  kL2,
  kL3,
  kDdr,
  kSnoop,
  kTorus,
  kCollective,
  kBarrier,
  kSystem,
  kReserved,
};

[[nodiscard]] std::string_view to_string(Unit unit) noexcept;

// ---- Per-unit event kinds -------------------------------------------------

enum class L1dEvent : u8 {
  kReadAccess = 0,
  kReadMiss,
  kWriteAccess,
  kWriteMiss,
  kLineFill,
  kEvict,
  kWriteback,
};
inline constexpr unsigned kNumL1dEvents = 7;

/// No model signals these (instruction fetch is not modelled): they read 0.
enum class L1iEvent : u8 { kAccess = 0, kMiss };
inline constexpr unsigned kNumL1iEvents = 2;

enum class L2Event : u8 {
  kReadAccess = 0,
  kReadHit,
  kReadMiss,
  kWriteAccess,
  kWriteMiss,
  kPrefetchIssued,
  kPrefetchHit,
  kStreamDetected,
};
inline constexpr unsigned kNumL2Events = 8;

enum class L3Event : u8 {
  kReadAccess = 0,
  kReadHit,
  kReadMiss,
  kWriteAccess,
  kWriteHit,
  kWriteMiss,
  kFillFromDdr,
  kWritebackToDdr,
  kEvict,
};
inline constexpr unsigned kNumL3Events = 9;

enum class DdrEvent : u8 {
  kReadReq = 0,
  kWriteReq,
  kBytesRead16B,     ///< read traffic in 16-byte units
  kBytesWritten16B,  ///< write traffic in 16-byte units
  kBusyCycles,
  kQueueStallCycles,
};
inline constexpr unsigned kNumDdrEvents = 6;
inline constexpr unsigned kNumDdrControllers = 2;

enum class SnoopEvent : u8 {
  kRequests = 0,
  kFilterHits,
  kInvalidatesSent,
  kInvalidatesReceived,
};
inline constexpr unsigned kNumSnoopEvents = 4;

enum class TorusEvent : u8 {
  kPacketsSentXp = 0,
  kPacketsSentXm,
  kPacketsSentYp,
  kPacketsSentYm,
  kPacketsSentZp,
  kPacketsSentZm,
  kPacketsReceived,
  kBytesSent32B,  ///< injected traffic in 32-byte torus packet chunks
  kBytesRecv32B,
  kHopsTotal,
  kSendStallCycles,
};
inline constexpr unsigned kNumTorusEvents = 11;

enum class CollectiveEvent : u8 {
  kOperations = 0,
  kBytes32B,
  kLatencyCycles,
};
inline constexpr unsigned kNumCollectiveEvents = 3;

enum class BarrierEvent : u8 { kEntries = 0, kWaitCycles };
inline constexpr unsigned kNumBarrierEvents = 2;

enum class SysEvent : u8 {
  kTimebaseReads = 0,
  kUpcStartCalls,
  kUpcStopCalls,
  kUpcOverheadCycles,
  kThresholdInterrupts,
  kMpiSends,
  kMpiRecvs,
  kMpiCollectives,
  kMpiWaitCycles,
  kRankActiveCycles,
  kRankIdleCycles,
};
inline constexpr unsigned kNumSysEvents = 11;

// ---- Event id composition --------------------------------------------------
// Mode 0 layout per core (base = core*64):
//   +0..7   FpOp counts          +8..13  LsOp counts
//   +14..17 IntOp counts         +18     CYCLE_COUNT
//   +19     INSTR_COMPLETED      +20..26 L1D       +27..28 L1I
//   +29..36 L2                   +37..63 reserved
namespace ev {

inline constexpr u16 kMode0Base = 0;
inline constexpr u16 kMode1Base = 256;
inline constexpr u16 kMode2Base = 512;
inline constexpr u16 kMode3Base = 768;
inline constexpr u16 kPerCoreSlice = 64;

[[nodiscard]] constexpr EventId fpu_op(unsigned core, FpOp op) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice +
                              static_cast<u16>(op));
}
[[nodiscard]] constexpr EventId ls_op(unsigned core, LsOp op) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 8 +
                              static_cast<u16>(op));
}
[[nodiscard]] constexpr EventId int_op(unsigned core, IntOp op) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 14 +
                              static_cast<u16>(op));
}
[[nodiscard]] constexpr EventId cycle_count(unsigned core) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 18);
}
[[nodiscard]] constexpr EventId instr_completed(unsigned core) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 19);
}
[[nodiscard]] constexpr EventId l1d(unsigned core, L1dEvent e) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 20 +
                              static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId l1i(unsigned core, L1iEvent e) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 27 +
                              static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId l2(unsigned core, L2Event e) noexcept {
  return static_cast<EventId>(kMode0Base + core * kPerCoreSlice + 29 +
                              static_cast<u16>(e));
}

// Mode 1 layout: +0..8 L3, +16.. DDR0, +32.. DDR1, +48..51 snoop filter.
[[nodiscard]] constexpr EventId l3(L3Event e) noexcept {
  return static_cast<EventId>(kMode1Base + static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId ddr(unsigned ctrl, DdrEvent e) noexcept {
  return static_cast<EventId>(kMode1Base + 16 + ctrl * 16 +
                              static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId snoop(SnoopEvent e) noexcept {
  return static_cast<EventId>(kMode1Base + 48 + static_cast<u16>(e));
}

// Mode 2 layout: +0..10 torus, +32..34 collective, +48..49 barrier.
[[nodiscard]] constexpr EventId torus(TorusEvent e) noexcept {
  return static_cast<EventId>(kMode2Base + static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId collective(CollectiveEvent e) noexcept {
  return static_cast<EventId>(kMode2Base + 32 + static_cast<u16>(e));
}
[[nodiscard]] constexpr EventId barrier(BarrierEvent e) noexcept {
  return static_cast<EventId>(kMode2Base + 48 + static_cast<u16>(e));
}

// Mode 3 layout: per-rank-slot slices of 16 events (4 slots, one per core)
// so VNM ranks on one node keep separate instrumentation counters, followed
// by chip-wide system events at +64.
[[nodiscard]] constexpr EventId system(SysEvent e, unsigned slot = 0) noexcept {
  return static_cast<EventId>(kMode3Base + slot * 16 + static_cast<u16>(e));
}

}  // namespace ev

/// One (event, count) pair: an entry of a compiled bundle's precomputed
/// event vector (opt::CompiledLoop::events and core_events).
struct EventCount {
  EventId id;
  u64 count;

  bool operator==(const EventCount&) const = default;
};

/// Descriptive metadata for one event id.
struct EventInfo {
  EventId id = 0;
  Unit unit = Unit::kReserved;
  std::string_view name = "RESERVED";
};

/// The full 1024-entry table, built once at first use.
[[nodiscard]] const std::vector<EventInfo>& event_table();

/// Metadata for one event (O(1)).
[[nodiscard]] const EventInfo& event_info(EventId id);

}  // namespace bgp::isa
