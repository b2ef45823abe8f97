// The per-session snapshot file: an mmap-able view of a running session's
// UPC counters and metrics registry, modeled on Open MPI's SPC mmap design
// (mpi_spc_mmap_enabled / orte_spc_snapshot_period). A header (magic,
// version, geometry, app/session names), one node block per node and a
// metrics block; each block is a seqlock word and two CRC-protected slots
// (layout: docs/formats.md).
//
// Writers double-buffer: stage a slot locally, copy it into the inactive
// slot, then bump the seqlock (odd while switching, even when stable) and
// flip the active-slot index. Readers copy the active slot and retry when
// the sequence moved underneath them — they never observe a torn snapshot.
// All shared words are accessed through std::atomic_ref so in-process
// readers (live attach while the session runs) are exact under TSan, and
// cross-process readers see release/acquire-ordered publication.
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/events.hpp"

namespace bgp::fault {
class DaemonFaultInjector;
}

namespace bgp::daemon {

inline constexpr char kSnapMagic[8] = {'B', 'G', 'P', 'S',
                                       'N', 'A', 'P', '\0'};
inline constexpr u32 kSnapVersion = 1;
/// Fixed name-field capacity in the header (truncation is fine: names only
/// label the file for humans; the authoritative copy is in the daemon).
inline constexpr std::size_t kSnapNameBytes = 120;
/// Default capacity of each metrics-text slot.
inline constexpr std::size_t kSnapMetricsCapacity = 64 * 1024;

/// Node lifecycle as seen through the snapshot.
enum class SnapState : u32 {
  kIdle = 0,      ///< initialized, counters not yet started
  kCounting = 1,  ///< mid-run live counters
  kFinal = 2,     ///< the session ended; this is the last word
};

/// One decoded node snapshot (a consistent copy of one slot).
struct NodeSnapshot {
  u32 node_id = 0;
  u32 card_id = 0;
  u32 mode = 0;
  SnapState state = SnapState::kIdle;
  cycles_t published_cycle = 0;
  std::array<u64, isa::kCountersPerUnit> counters{};
};

/// Writer side: builds the file under a temporary name, renames it over
/// `path` once the header and idle slots are in place, keeps it mapped
/// shared, and publishes slots. One writer per file; publish_node for
/// different nodes may run concurrently (each node block is independent),
/// publish_metrics must come from one thread at a time.
class SnapshotWriter {
 public:
  SnapshotWriter(const std::filesystem::path& path, const std::string& app,
                 const std::string& session, unsigned num_nodes,
                 std::size_t metrics_capacity = kSnapMetricsCapacity,
                 fault::DaemonFaultInjector* faults = nullptr);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void publish_node(unsigned node, u32 node_id, u32 card_id, u32 mode,
                    SnapState state, cycles_t now,
                    const std::array<u64, isa::kCountersPerUnit>& counters);
  /// Truncated to the slot capacity when the exposition outgrew it.
  void publish_metrics(std::string_view text);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// The live mapping — hand to SnapshotReader::from_view for in-process
  /// attach (the TSan-exercised path).
  [[nodiscard]] const std::byte* data() const noexcept { return map_; }
  [[nodiscard]] std::size_t size() const noexcept { return map_bytes_; }
  [[nodiscard]] unsigned num_nodes() const noexcept { return num_nodes_; }

 private:
  std::filesystem::path path_;
  unsigned num_nodes_ = 0;
  std::size_t metrics_capacity_ = 0;
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  fault::DaemonFaultInjector* faults_ = nullptr;
};

/// Why a slot read failed — readers that outlive the writer (post-crash
/// attach, salvage) must distinguish a writer that died mid-publish
/// (seqlock held forever → kBusy, the "writer gone / snapshot stale" case)
/// from on-disk corruption (kCorrupt).
enum class SnapReadStatus : u8 {
  kOk = 0,
  kBusy = 1,     ///< seqlock never stabilized within the retry budget
  kCorrupt = 2,  ///< stable sequence but CRC mismatch, or node out of range
};

[[nodiscard]] const char* to_string(SnapReadStatus status) noexcept;

/// Reader side: maps the file (or wraps an in-process writer's view) and
/// copies out consistent slots.
class SnapshotReader {
 public:
  /// mmap a snapshot file read-only. Throws on missing/short/foreign files.
  [[nodiscard]] static SnapshotReader open_file(
      const std::filesystem::path& path);
  /// Wrap a live in-process mapping (no ownership).
  [[nodiscard]] static SnapshotReader from_view(const std::byte* data,
                                                std::size_t size);
  ~SnapshotReader();
  SnapshotReader(SnapshotReader&& other) noexcept;
  SnapshotReader& operator=(SnapshotReader&&) = delete;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  [[nodiscard]] unsigned num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] const std::string& app() const noexcept { return app_; }
  [[nodiscard]] const std::string& session() const noexcept {
    return session_;
  }

  /// Copy a consistent snapshot of `node`'s active slot. Retries while the
  /// writer races; false after `max_retries` failed attempts (pathological
  /// writer churn) or a CRC mismatch (foreign corruption).
  [[nodiscard]] bool read_node(unsigned node, NodeSnapshot& out,
                               unsigned max_retries = 64) const;
  /// read_node with the failure cause split out (kBusy = writer mid-publish
  /// or dead with the seqlock held; kCorrupt = CRC mismatch).
  [[nodiscard]] SnapReadStatus read_node_status(
      unsigned node, NodeSnapshot& out, unsigned max_retries = 64) const;
  /// Copy a consistent metrics exposition. Empty text with `true` simply
  /// means nothing was published yet.
  [[nodiscard]] bool read_metrics(std::string& out,
                                  unsigned max_retries = 64) const;

 private:
  SnapshotReader() = default;
  void init(const std::byte* data, std::size_t size);

  const std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
  bool owns_map_ = false;
  unsigned num_nodes_ = 0;
  std::size_t metrics_capacity_ = 0;
  std::string app_;
  std::string session_;
};

}  // namespace bgp::daemon
