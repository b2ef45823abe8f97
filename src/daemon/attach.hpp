// Live attach: read a running (or finished) session's snapshot file and
// reconstruct the in-memory NodeDump shape the post-processing layer mines.
// The reconstruction is exact for the interface library's standard flow
// (BGP_Initialize clears the counters, BGP_Start follows immediately), so a
// mid-flight snapshot is "set 0, one open pair, deltas = the raw counters".
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/dumpformat.hpp"
#include "daemon/snapfile.hpp"

namespace bgp::daemon {

/// One attached read of the whole snapshot file.
struct AttachView {
  std::string app;
  std::string session;
  /// Nodes whose snapshot was readable and non-idle, in node order.
  std::vector<NodeSnapshot> nodes;
  /// Nodes skipped because their seqlock never stabilized. On a live file
  /// this is a racing writer (retry helps); on a dead writer's file it
  /// means the writer crashed mid-publish and the slot is stale forever.
  std::vector<unsigned> busy;
  /// Nodes skipped because their slot failed its CRC (stable sequence).
  std::vector<unsigned> corrupt;
  /// The publisher's rendered metrics exposition ("" when none published).
  std::string metrics_text;
  /// True when at least one node was readable and every readable node was
  /// kFinal (the run is over).
  bool final_only = true;
};

/// Read every node block (and the metrics text) from an open reader.
[[nodiscard]] AttachView attach_read(const SnapshotReader& reader);

/// Convenience: open `path` and read it once.
[[nodiscard]] AttachView attach_file(const std::filesystem::path& path);

/// Bounded-retry attach for files whose writer may be live, slow, or dead.
struct AttachRetry {
  /// Total attach attempts before giving up on busy nodes.
  unsigned attempts = 8;
  /// Backoff between attempts: base * 2^attempt, capped, jittered ±50%.
  unsigned base_delay_ms = 2;
  unsigned max_delay_ms = 100;
  /// 0 = derive a seed (non-reproducible); fixed values make tests exact.
  u64 jitter_seed = 0;
};

/// attach_file that retries while nodes are seqlock-busy (a live writer
/// publishing). Nodes still busy after the final attempt belong to a writer
/// that is gone or wedged: the last view read is returned with them listed
/// in `busy`, as corrupt (CRC-failing) nodes stay listed in `corrupt`, so
/// the caller still sees every readable node and decides how to fail.
[[nodiscard]] AttachView attach_file_retry(const std::filesystem::path& path,
                                           const AttachRetry& retry = {});

/// Reconstruct the miner-facing dump for one snapshot: set 0, one
/// start/stop pair spanning [0, published_cycle], deltas = the raw
/// counters. kIdle nodes (initialized but not yet counting) yield a dump
/// with zero pairs.
[[nodiscard]] pc::NodeDump to_node_dump(const NodeSnapshot& snap,
                                        const std::string& app);

/// All readable nodes of a view as NodeDumps (kIdle nodes included).
[[nodiscard]] std::vector<pc::NodeDump> to_node_dumps(const AttachView& view);

}  // namespace bgp::daemon
