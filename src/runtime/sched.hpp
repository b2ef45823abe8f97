// Scheduling primitives for the Machine's epoch scheduler.
//
// Work is ordered by one key: (simulated cycle at segment start, rank),
// lowest first with the lower rank winning ties. ReadyQueue packages that
// order as a lazy-deletion binary min-heap: pushes are O(log n), stale
// entries (a rank that was re-keyed or is no longer pending) are skipped
// at peek time by checking a per-rank sequence number stamped into each
// entry.
#pragma once

#include <cstddef>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace bgp::rt {

/// Worker count selection (MachineConfig::sched). Both modes run the same
/// dispatcher and produce byte-identical runs.
enum class SchedMode : u8 {
  kSerial,    ///< one worker
  kParallel,  ///< MachineConfig::jobs workers (0 = hardware concurrency)
};

/// "serial" or "parallel": the --sched flag and the job-spec key.
[[nodiscard]] inline SchedMode parse_sched_mode(std::string_view s) {
  if (s == "serial") return SchedMode::kSerial;
  if (s == "parallel") return SchedMode::kParallel;
  throw std::invalid_argument("unknown scheduler '" + std::string(s) +
                              "' (serial or parallel)");
}

/// The dispatch key: ranks run in ascending (cycle, rank) order.
struct SchedKey {
  cycles_t cycle = 0;
  unsigned rank = 0;

  friend bool operator<(const SchedKey& a, const SchedKey& b) noexcept {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.rank < b.rank;
  }
};

/// Lazy-deletion min-heap over (cycle, rank). The queue keeps a per-rank
/// sequence counter: push() stamps the current sequence into the entry and
/// peek_min() validates candidates — an entry whose stamp no longer
/// matches the rank's sequence is dead and silently dropped.
class ReadyQueue {
 public:
  explicit ReadyQueue(std::size_t num_ranks) : seq_(num_ranks, 0) {}

  /// Invalidate every queued entry for `rank` and stamp the next push.
  void invalidate(unsigned rank) noexcept { ++seq_[rank]; }

  /// Queue `rank` at `cycle` under its current sequence.
  void push(cycles_t cycle, unsigned rank) {
    heap_.push(Entry{SchedKey{cycle, rank}, seq_[rank]});
  }

  /// Find the minimal live entry and leave it queued (stale entries above
  /// it are discarded); returns false when no live entry is queued. `live`
  /// is the caller's validity check (e.g. "still pending") applied on top
  /// of the sequence stamp.
  template <typename LiveFn>
  bool peek_min(unsigned& rank_out, LiveFn&& live) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if (top.seq != seq_[top.key.rank] || !live(top.key.rank)) {
        heap_.pop();  // re-keyed, re-queued, or no longer ready: stale
        continue;
      }
      rank_out = top.key.rank;
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    SchedKey key;
    u64 seq;
    friend bool operator>(const Entry& a, const Entry& b) noexcept {
      return b.key < a.key;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<u64> seq_;
};

}  // namespace bgp::rt
