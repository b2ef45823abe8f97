// The execution machine: a Partition plus a deterministic scheduler and a
// message-passing runtime ("MiniMPI") with the semantics the NAS kernels
// need — blocking send/recv and the usual collectives.
//
// One dispatcher runs every program (runtime/epoch.*): one *fiber* per rank
// multiplexed onto a bounded worker pool (runtime/pool.*). Rank compute
// segments may run concurrently; every cross-rank interaction executes as
// an ordered commit in the greedy (core clock, rank) order, so simulated
// clocks, dumps and traces are the same for any worker count
// (MachineConfig::sched / jobs).
#pragma once

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.hpp"
#include "ft/ftypes.hpp"
#include "runtime/sched.hpp"
#include "sys/partition.hpp"

namespace bgp::fault {
class FaultInjector;
}

namespace bgp::ft {
class FtComm;
}

namespace bgp::rt {

class RankCtx;
class EpochScheduler;

/// Collective op kinds for rendezvous matching. Kinds at or below
/// kCollFtFirst are internal fault-tolerance operations (agreement,
/// shrink): they are exempt from revocation and failed-peer flagging so
/// recovery itself can communicate on a revoked communicator. -1 is the
/// idle sentinel.
enum CollKind : int {
  kCollAgree = -3,
  kCollShrink = -2,
  kCollBarrier = 0,
  kCollBcast,
  kCollAllreduceSum,
  kCollAllreduceMax,
  kCollAlltoall,
  kCollAllgather,
};
inline constexpr int kCollFtFirst = kCollShrink;

/// Program run by every rank.
using RankFn = std::function<void(RankCtx&)>;

/// Hooks the performance-counter interface library installs around the MPI
/// lifecycle (paper §IV: BGP_Initialize/Start inside MPI_Init, BGP_Stop/
/// Finalize inside MPI_Finalize).
struct MpiHooks {
  std::function<void(RankCtx&)> on_init;
  std::function<void(RankCtx&)> on_finalize;
};

struct MachineConfig {
  unsigned num_nodes = 4;
  sys::OpMode mode = sys::OpMode::kVnm;
  sys::BootOptions boot{};
  /// Compiler option set the "application binaries" were built with.
  opt::OptConfig opt = opt::OptConfig{opt::OptLevel::kO5, false, true};
  /// Use fewer ranks than the partition supports (e.g. the paper's 121-rank
  /// SP/BT runs on 32 nodes). 0 = all.
  unsigned num_ranks_override = 0;
  /// Worker count selection; every choice produces byte-identical runs.
  /// kSerial runs one worker, kParallel runs `jobs`.
  SchedMode sched = SchedMode::kSerial;
  /// kParallel: worker-pool size cap. 0 = hardware_concurrency. The pool
  /// never exceeds the node count (the unit of parallelism is a node: its
  /// ranks share caches, so they execute exclusively).
  unsigned jobs = 0;

  bool operator==(const MachineConfig&) const = default;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] sys::Partition& partition() noexcept { return *partition_; }
  [[nodiscard]] const sys::Partition& partition() const noexcept {
    return *partition_;
  }
  [[nodiscard]] const opt::Compiler& compiler() const noexcept {
    return compiler_;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] unsigned num_ranks() const noexcept { return num_ranks_; }

  void set_mpi_hooks(MpiHooks hooks) { hooks_ = std::move(hooks); }
  [[nodiscard]] const MpiHooks& mpi_hooks() const noexcept { return hooks_; }

  /// Run `program` on every rank to completion. A Machine runs one program
  /// in its lifetime; failures in any rank abort the run and rethrow here.
  /// Injected node deaths do NOT abort: the dead node's ranks unwind, any
  /// rank blocked on them inherits the death (non-FT) or gets an error
  /// return to recover from (FT; see set_ft_params), and run() returns
  /// normally once the survivors finish (consult dead_ranks()/
  /// stranded_ranks()/dead_nodes()/recovery_log()).
  void run(const RankFn& program);

  /// Attach a fault-injection oracle (not owned; may be nullptr). Must be
  /// set before run().
  void set_fault_injector(fault::FaultInjector* fault) noexcept {
    fault_ = fault;
  }

  /// Enable ULFM-style failure handling (must be set before run()). With FT
  /// on, a call that would block forever on a dead peer raises
  /// ft::ProcFailedError after the modeled detection latency instead of
  /// inheriting the death, and ft::FtComm's revoke/agree/shrink become
  /// available for survivor recovery.
  void set_ft_params(const ft::FtParams& params) noexcept {
    ft_params_ = params;
  }
  [[nodiscard]] const ft::FtParams& ft_params() const noexcept {
    return ft_params_;
  }

  /// Ranks lost directly to injected node deaths, death order.
  [[nodiscard]] const std::vector<unsigned>& dead_ranks() const noexcept {
    return dead_ranks_;
  }
  /// Cascade victims: ranks that were blocked on a dead peer and inherited
  /// the death (non-FT mode only — under FT these survive via recovery).
  [[nodiscard]] const std::vector<unsigned>& stranded_ranks() const noexcept {
    return stranded_ranks_;
  }
  /// Nodes that lost at least one rank (injected or stranded), ascending.
  /// A node listed here never reaches BGP_Finalize, so its dump is missing.
  [[nodiscard]] std::vector<unsigned> dead_nodes() const;

  /// Current (post-shrink) communicator membership, ascending global ranks.
  [[nodiscard]] const std::vector<unsigned>& comm_group() const noexcept {
    return comm_group_;
  }
  /// Number of shrinks performed so far.
  [[nodiscard]] unsigned comm_epoch() const noexcept { return comm_epoch_; }
  /// Whether the communicator is currently revoked (between a survivor's
  /// revoke() and the shrink that installs the new group).
  [[nodiscard]] bool comm_revoked() const noexcept { return revoked_; }
  /// Every recovery step taken so far, in completion order. Copied into
  /// each surviving node's dump at finalize (dump v3).
  [[nodiscard]] const std::vector<ft::RecoveryEvent>& recovery_log()
      const noexcept {
    return recovery_log_;
  }

  /// Longest per-node execution time (max over cores), after run().
  [[nodiscard]] cycles_t node_time(unsigned node) const;
  /// Longest execution time across the whole partition.
  [[nodiscard]] cycles_t elapsed() const;

  /// Ask a running program to stop at the next scheduling point. Safe from
  /// any thread and from signal handlers (a single lock-free atomic store):
  /// the dispatcher notices, unwinds every rank, and run() throws
  /// RunStopped — after which traces can be sealed and checkpoint dumps
  /// written through the usual atomic paths. A no-op once the run is over;
  /// requesting a stop before run() stops it at the first dispatch.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_relaxed);
  }

 private:
  friend class RankCtx;
  friend class ft::FtComm;
  friend class EpochScheduler;

  enum class Status : u8 {
    kReady,
    kBlockedRecv,
    kBlockedCollective,
    kFinished,
    kFailed,
    kDied,  ///< lost to an injected node death (terminal, not an error)
  };

  struct Message {
    unsigned src = 0;
    int tag = 0;
    std::vector<std::byte> payload;
    cycles_t ready_time = 0;
  };

  /// Per-rank bookkeeping (scheduling state, mailbox).
  struct Rank {
    std::unique_ptr<RankCtx> ctx;
    /// Atomic because commits write statuses under the scheduler lock
    /// while rank fibers on other workers read them lock-free (e.g.
    /// rank_died() on the send path).
    std::atomic<Status> status{Status::kReady};
    // recv match spec while blocked
    unsigned recv_src = 0;
    int recv_tag = 0;
    std::deque<Message> mailbox;
    std::exception_ptr error;
    /// Set by the scheduler when the rank is blocked on a dead peer; the
    /// next resume throws NodeDeathFault so the rank unwinds too (non-FT).
    bool peer_dead = false;
    /// FT mode: the rank's pending call involved a failed peer; the next
    /// resume bills the detection latency and raises ft::ProcFailedError.
    bool proc_failed = false;
    /// FT mode: a survivor revoked the communicator while this rank was
    /// blocked; the next resume raises ft::RevokedError.
    bool revoked_wake = false;
  };

  /// In-flight collective rendezvous.
  struct Collective {
    int kind = -1;  ///< first arriver's op kind; later arrivals must match
    u64 bytes = 0;
    unsigned root = 0;
    unsigned arrived = 0;
    /// Arrivals that complete the operation inline (FT: live group members
    /// at first arrival; otherwise all ranks — dead members complete via
    /// the scheduler's stall resolution instead).
    unsigned expected = 0;
    /// Internal FT operation (agree/shrink): exempt from revocation and
    /// from failed-peer flagging, so recovery itself can communicate.
    bool internal = false;
    cycles_t max_arrival = 0;
    struct Member {
      std::span<const std::byte> send;
      std::span<std::byte> recv;
      bool present = false;
    };
    std::vector<Member> members;
    /// Stored from the first arrival so the scheduler can complete the
    /// operation over the surviving members when dead ranks never show up.
    std::function<void(Collective&)> combine;
    cycles_t op_latency = 0;
  };

  /// Shared stall handling: what the dispatcher found when no rank was
  /// runnable, after resolution had a chance to make progress.
  enum class StallOutcome : u8 {
    kProgress,      ///< woke someone / completed a collective — keep going
    kAllDone,       ///< every rank is terminal
    kDeadlock,      ///< no failure but nobody can run; blocked ranks woken
                    ///< to unwind, diag describes the wait graph
    kAbortFailure,  ///< a rank failed; blocked ranks woken to unwind
  };

  // -- scheduler internals (called from rank fibers via RankCtx) ----------
  /// End-of-segment yield: re-key this rank at its current clock and let
  /// the dispatcher run whoever is next.
  void yield_rank(unsigned rank);
  /// Park after a commit left this rank in a blocked status; returns when
  /// a later commit makes it ready again.
  void block_rank(unsigned rank);
  /// Execute `fn` at this rank's deterministic commit slot: the fiber
  /// parks until every earlier (cycle, rank) slot has committed.
  /// Exceptions from `fn` resurface on the calling rank.
  void run_at_slot(unsigned rank, const std::function<void()>& fn);
  /// Abort/death/revocation flags left on this rank by the scheduler while
  /// it was parked; throws the corresponding error.
  void consume_wake_flags(unsigned rank);
  /// Transition `rank` to kReady and queue it with the scheduler.
  void make_ready(unsigned rank);
  /// Record a rank lost to a node death (status, death lists, obs instant).
  void record_rank_death(unsigned rank, bool inherited);
  /// True when global state may be read mid-segment (fault injection or FT
  /// recovery): the scheduler then runs at most one rank at a time, in
  /// exactly the greedy commit order.
  [[nodiscard]] bool strict_sched() const noexcept {
    return fault_ != nullptr || ft_params_.enabled;
  }
  /// No rank is runnable: resolve dead-peer waits / survivor collectives,
  /// or declare the run over/deadlocked. Wakes ranks via make_ready.
  StallOutcome resolve_stall(std::string& diag);
  /// Honor a pending request_stop(): flip the machine into the abort path
  /// and wake blocked ranks so they unwind. Returns true when a stop was
  /// serviced. Scheduler context only (under the epoch scheduler's lock —
  /// make_ready has the same requirement).
  bool service_stop();

  /// Deposit a message; wakes a matching blocked receiver. Commit context.
  void deposit(Message msg, unsigned dst);
  /// Try to pop a matching message from `rank`'s mailbox. Commit context.
  std::optional<Message> try_match(unsigned rank, unsigned src, int tag);
  /// Enter a collective; blocks until all ranks arrived, then the last
  /// arrival runs `combine` over the member buffers and releases all.
  void enter_collective(unsigned rank, int kind, u64 bytes, unsigned root,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv,
                        const std::function<void(Collective&)>& combine,
                        cycles_t op_latency);

  /// Run the pending collective's combine over the members that arrived,
  /// sync live cores to the completion time and release the waiters.
  void finish_collective();
  /// Throw NodeDeathFault if `rank`'s node is past its injected death
  /// cycle. Called before a rank registers in any wait structure, so a
  /// dead rank is never counted as a collective arrival or left blocked.
  void check_fault(unsigned rank);

  /// Lower `desc` under the machine's option set, memoized per Machine:
  /// every rank re-lowers identical loop nests every timestep, so cache
  /// the bundles keyed by the full LoopDesc contents (the OptConfig is
  /// fixed for a Machine's lifetime and needs no key bits).
  const opt::CompiledLoop& compile_cached(const isa::LoopDesc& desc);

  // -- fault-tolerance internals (FT mode only) ---------------------------
  /// Raise ft::RevokedError if the communicator is revoked (entry check of
  /// every plain communication call; internal FT operations bypass it).
  void check_revoked(unsigned rank) const;
  /// FT: `rank` is about to communicate with dead `peer` — bill the
  /// detection latency and raise ft::ProcFailedError. No-op without FT.
  void detect_failed_peer(unsigned rank, unsigned peer);
  /// Consume a proc_failed wake: bill detection, log first detections of
  /// every dead group member, raise ft::ProcFailedError.
  [[noreturn]] void raise_proc_failed(unsigned rank);
  /// Record the first detection of `node`'s death (dedup per node).
  void note_detection(unsigned rank, unsigned node);
  /// Revoke the communicator on behalf of `rank`: wake every plain-blocked
  /// rank into RevokedError and reset a pending plain collective.
  void revoke_comm(unsigned rank, cycles_t cost);
  /// Install the survivor communicator (shrink combine): new group, epoch
  /// bump, revocation cleared.
  void apply_shrink(std::vector<unsigned> group, cycles_t when, cycles_t cost);
  /// Distinct live nodes across the current group (shrunk tree size).
  [[nodiscard]] unsigned live_comm_nodes() const;
  /// True if `rank`'s status is terminal-dead (kDied).
  [[nodiscard]] bool rank_died(unsigned rank) const {
    return ranks_[rank]->status == Status::kDied;
  }

  /// run() tail: rethrow rank errors / aborts, log degraded runs.
  void run_epilogue();

  MachineConfig config_;
  std::unique_ptr<sys::Partition> partition_;
  opt::Compiler compiler_;
  MpiHooks hooks_;
  unsigned num_ranks_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  /// The dispatcher, non-null only inside run().
  EpochScheduler* epoch_ = nullptr;
  Collective collective_;
  fault::FaultInjector* fault_ = nullptr;
  std::vector<unsigned> dead_ranks_;
  std::vector<unsigned> stranded_ranks_;
  ft::FtParams ft_params_;
  bool revoked_ = false;
  std::vector<unsigned> comm_group_;   ///< current members, ascending
  std::vector<bool> in_group_;         ///< comm_group_ membership by rank
  unsigned comm_epoch_ = 0;
  std::vector<ft::RecoveryEvent> recovery_log_;
  std::vector<bool> death_detected_;  ///< per node, first-detection dedup
  std::atomic<bool> aborting_{false};
  std::atomic<bool> stop_requested_{false};
  bool ran_ = false;
  /// compile_cached state: the cached bundle owns a copy of the loop name
  /// so its string_view cannot dangle when the descriptor was a temporary.
  struct CachedLoop {
    std::string name;
    opt::CompiledLoop cl;
  };
  std::unordered_map<std::string, std::unique_ptr<CachedLoop>> loop_cache_;
  std::mutex loop_cache_mu_;
};

/// Thrown inside rank fibers to unwind them when another rank failed.
struct AbortRun {};

/// Thrown out of Machine::run() when the program was cancelled through
/// request_stop() (operator signal, daemon kill). Not an error: the caller
/// decides whether to checkpoint-dump the partial run.
struct RunStopped {};

/// Thrown inside a rank fiber when its node suffers an injected death (or,
/// with `inherited`, when the rank was blocked on a dead peer and the death
/// cascaded to it — FT mode converts that case into ft::ProcFailedError).
struct NodeDeathFault {
  unsigned node = 0;
  bool inherited = false;
};

}  // namespace bgp::rt
