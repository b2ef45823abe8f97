// The epoch scheduler: Machine's only dispatcher. MachineConfig::sched
// and jobs choose its worker count; nothing else depends on them.
//
// Model: each rank runs on its own fiber; fibers are multiplexed onto a
// bounded worker pool with one task per *node* (a node's ranks share the
// simulated caches, so they execute mutually exclusively — the node is the
// unit of host parallelism). A rank runs its compute segment lock-free
// (its core, caches and counters are private while it runs) and parks at
// every cross-rank interaction; interactions execute as *commits* in
// ascending (simulated cycle at segment start, rank) order, so same-seed
// runs are byte-identical for every worker count.
//
// The reference order (the commit-order theorem): the *greedy order* runs,
// at each step, the minimum (key, rank) over the *dynamic* set of pending
// ranks, where a rank's key is its core clock frozen at the moment it
// became ready, until that rank reaches its next cross-rank interaction.
// Here a commit executes only when its rank is the global minimum over
// pending ranks, and a rank woken by a commit joins the pending set only
// at that commit, with its clock at that commit as its key. Induction
// over commits: the commit sequence is the greedy sequence, whatever the
// worker count and however segments interleave on the host.
//
// Concurrency rules that keep compute segments parallel:
//  * A rank may *start* a segment (kStartable) out of global order when no
//    locally-blocked rank could be woken into an earlier slot — the hazard
//    gate: if some rank w on the same node is blocked with
//    (clock_w, w) < (key_r, r), a commit could wake w at a key below r's,
//    so r must wait until it is the global minimum. (Blocked clocks are
//    stable while blocked: only commits move them, and commits serialize
//    under the scheduler lock.)
//  * A rank *resuming* mid-segment after a commit (kReadyResume) continues
//    immediately and before any other rank of its node, exactly as if its
//    commit had run in place — the greedy order never preempts a running
//    rank, not even for a rank its commit woke at an earlier key.
//  * Strict mode (fault injection or FT enabled): segments read global
//    state mid-flight (death schedules, revocation flags, group
//    membership), so kStartable gates on the global minimum — ranks start
//    one at a time, in exactly the greedy order.
//
// Every segment boundary (slot park, yield, block, termination) takes the
// scheduler mutex with a plain blocking lock, and phases, keys and the
// pending queue change only under it; only compute segments run outside.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/pool.hpp"

namespace bgp::rt {

class EpochScheduler {
 public:
  EpochScheduler(Machine& machine, const RankFn& program);
  ~EpochScheduler();

  /// Drive every rank to a terminal status. Deadlock diagnostics are
  /// thrown after all fibers unwound.
  void run();

  // -- called from rank fibers (via Machine) ------------------------------
  /// Park until every earlier (cycle, rank) slot committed, then run `fn`
  /// under the scheduler lock. Exceptions from `fn` rethrow here.
  void run_at_slot(unsigned rank, const std::function<void()>& fn);
  /// End-of-segment yield: re-key at the current clock, hand the node's
  /// executor to whoever is next.
  void yield_segment(unsigned rank);
  /// The previous commit left this rank blocked (status already set);
  /// park until a later commit makes it ready.
  void block_fiber(unsigned rank);

  // -- called from inside commits (scheduler lock already held) -----------
  /// `rank` became kReady: give it a fresh key and queue it.
  void on_ready(unsigned rank);

 private:
  /// Where a rank's fiber stands with respect to the dispatch order.
  enum class Phase : u8 {
    kStartable,    ///< at a segment boundary, key frozen, hazard gate applies
    kRunning,      ///< executing on some worker, lock-free
    kParkedSlot,   ///< parked at run_at_slot, commit pending
    kReadyResume,  ///< commit done, may continue mid-segment
    kBlocked,      ///< blocked in a wait structure (recv/collective)
    kTerminal,     ///< finished/failed/died; fiber unwound
  };

  struct RankState {
    std::unique_ptr<Fiber> fiber;  // created lazily at first dispatch
    Phase phase = Phase::kStartable;
    cycles_t key = 0;  ///< dispatch key, frozen while pending
    unsigned node = 0;
    const std::function<void()>* slot_fn = nullptr;
    std::exception_ptr slot_error;
  };

  struct NodeState {
    bool active = false;  ///< a node_loop task is running/posted
    std::vector<unsigned> residents;
  };

  [[nodiscard]] bool pending(unsigned rank) const {
    const Phase p = states_[rank].phase;
    return p == Phase::kStartable || p == Phase::kRunning ||
           p == Phase::kParkedSlot || p == Phase::kReadyResume;
  }
  /// Global minimum (key, rank) over pending ranks, or -1. Prunes stale
  /// heap entries, hence non-const.
  [[nodiscard]] int global_min_locked();
  /// Next rank this node's executor may run, or -1. Applies the hazard /
  /// strict gates.
  [[nodiscard]] int pick_local_locked(unsigned node);
  /// Execute parked commits while the global minimum pending rank is a
  /// kParkedSlot.
  void drain_commits_locked();
  /// Post node_loop tasks for every inactive node that has dispatchable
  /// work.
  void sweep_locked();
  /// Worker task: run this node's ranks until none is dispatchable.
  void node_loop(unsigned node);
  void fiber_main(unsigned rank);

  Machine& machine_;
  const RankFn& program_;
  const bool strict_;
  std::mutex mu_;
  std::condition_variable cv_main_;
  std::vector<RankState> states_;
  std::vector<NodeState> nodes_;
  /// Pending ranks by frozen (key, rank); entries stay queued across a
  /// whole segment (the key is frozen at segment start).
  ReadyQueue pending_q_;
  WorkerPool pool_;
  unsigned active_nodes_ = 0;
  unsigned terminal_count_ = 0;
  std::string deadlock_diag_;
};

}  // namespace bgp::rt
