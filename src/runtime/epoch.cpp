#include "runtime/epoch.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/rankctx.hpp"

namespace bgp::rt {

namespace {

unsigned worker_count(const MachineConfig& cfg, unsigned num_nodes,
                      unsigned num_ranks) {
  if (cfg.sched == SchedMode::kSerial) return 1;
  unsigned n = cfg.jobs != 0 ? cfg.jobs
                             : std::max(1u, std::thread::hardware_concurrency());
  // The node is the unit of host parallelism (its ranks share simulated
  // caches and execute exclusively), so more workers than nodes is waste.
  n = std::min(n, num_nodes);
  n = std::min(n, num_ranks);
  return std::max(1u, n);
}

}  // namespace

EpochScheduler::EpochScheduler(Machine& machine, const RankFn& program)
    : machine_(machine),
      program_(program),
      strict_(machine.strict_sched()),
      states_(machine.num_ranks()),
      nodes_(machine.partition().num_nodes()),
      pending_q_(machine.num_ranks()),
      pool_(worker_count(machine.config(), machine.partition().num_nodes(),
                         machine.num_ranks())) {
  for (unsigned r = 0; r < machine_.num_ranks(); ++r) {
    RankCtx& ctx = *machine_.ranks_[r]->ctx;
    states_[r].node = ctx.node_id();
    states_[r].key = ctx.core().now();  // boot skew
    nodes_[states_[r].node].residents.push_back(r);
    pending_q_.push(states_[r].key, r);
  }
}

EpochScheduler::~EpochScheduler() = default;

int EpochScheduler::global_min_locked() {
  unsigned r = 0;
  if (pending_q_.peek_min(r, [this](unsigned cand) { return pending(cand); })) {
    return static_cast<int>(r);
  }
  return -1;
}

int EpochScheduler::pick_local_locked(unsigned node) {
  const NodeState& ns = nodes_[node];
  int best = -1;
  cycles_t best_key = 0;
  for (const unsigned r : ns.residents) {
    if (!pending(r)) continue;
    const RankState& s = states_[r];
    // A rank whose commit ran while it was parked is still mid-segment,
    // as if the commit had run in place: the greedy order lets it finish
    // its segment before any other rank of its node starts, even one its
    // commit woke at an earlier key (that rank's pulse would otherwise
    // take the pacer bill this one is due).
    if (s.phase == Phase::kReadyResume) return static_cast<int>(r);
    if (best < 0 || SchedKey{s.key, r} <
                        SchedKey{best_key, static_cast<unsigned>(best)}) {
      best = static_cast<int>(r);
      best_key = s.key;
    }
  }
  if (best < 0) return -1;
  RankState& s = states_[static_cast<std::size_t>(best)];
  switch (s.phase) {
    case Phase::kParkedSlot:
    case Phase::kRunning:
      // A parked commit is the coordinator's to execute (drain), and a
      // running rank already owns the executor; either way this node's
      // executor has nothing to dispatch right now.
      return -1;
    case Phase::kStartable: {
      if (strict_) {
        return global_min_locked() == best ? best : -1;
      }
      // Hazard gate: a locally-blocked rank could be woken by a commit at
      // a key below ours, and the greedy order would run it first on
      // these very caches. Blocked clocks are stable under the lock.
      const unsigned br = static_cast<unsigned>(best);
      for (const unsigned w : ns.residents) {
        if (states_[w].phase != Phase::kBlocked) continue;
        const cycles_t wc = machine_.ranks_[w]->ctx->core().now();
        if (SchedKey{wc, w} < SchedKey{s.key, br}) {
          return global_min_locked() == best ? best : -1;
        }
      }
      return best;
    }
    default:
      return -1;
  }
}

void EpochScheduler::drain_commits_locked() {
  for (;;) {
    const int g = global_min_locked();
    if (g < 0) break;
    RankState& s = states_[static_cast<std::size_t>(g)];
    if (s.phase != Phase::kParkedSlot) break;
    try {
      (*s.slot_fn)();
    } catch (...) {
      s.slot_error = std::current_exception();
    }
    s.slot_fn = nullptr;
    s.phase = Phase::kReadyResume;
    // Keep draining: the commit may have unblocked a chain of slots, and
    // the resuming rank (still the minimum) stops the loop at the top.
  }
}

void EpochScheduler::sweep_locked() {
  for (unsigned n = 0; n < nodes_.size(); ++n) {
    NodeState& ns = nodes_[n];
    if (ns.active || ns.residents.empty()) continue;
    if (pick_local_locked(n) < 0) continue;
    ns.active = true;
    ++active_nodes_;
    pool_.post([this, n] { node_loop(n); });
  }
}

void EpochScheduler::node_loop(unsigned node) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Honor request_stop() promptly: segments end here constantly, and
    // make_ready/on_ready need mu_, which we hold.
    if (machine_.service_stop()) sweep_locked();
    const int r = pick_local_locked(node);
    if (r < 0) break;
    RankState& s = states_[static_cast<std::size_t>(r)];
    s.phase = Phase::kRunning;
    if (!s.fiber) {
      const unsigned rank = static_cast<unsigned>(r);
      s.fiber = std::make_unique<Fiber>([this, rank] { fiber_main(rank); });
    }
    Fiber* fiber = s.fiber.get();
    lock.unlock();
    fiber->resume();
    lock.lock();
    // The segment ended in a yield/park/terminal; commits it enabled (and
    // wakes from those commits) may put other nodes — or this one — back
    // in business.
    drain_commits_locked();
    sweep_locked();
  }
  nodes_[node].active = false;
  if (--active_nodes_ == 0) cv_main_.notify_all();
}

void EpochScheduler::run_at_slot(unsigned rank, const std::function<void()>& fn) {
  RankState& s = states_[rank];
  std::unique_lock<std::mutex> lock(mu_);
  s.phase = Phase::kParkedSlot;
  s.slot_fn = &fn;
  drain_commits_locked();  // fast path: we may be the global minimum already
  const bool committed = s.phase == Phase::kReadyResume;
  if (committed) s.phase = Phase::kRunning;
  sweep_locked();  // our commit may have woken remote ranks
  lock.unlock();
  // Unless our own drain ran the commit, park: a later drain runs it and
  // our node's executor resumes us. That drain wrote slot_error under mu_,
  // and the executor locked mu_ before resuming us on its own OS thread,
  // so the read below needs no lock.
  if (!committed) s.fiber->park();
  if (std::exception_ptr err = std::exchange(s.slot_error, nullptr)) {
    std::rethrow_exception(err);
  }
}

void EpochScheduler::yield_segment(unsigned rank) {
  RankState& s = states_[rank];
  std::unique_lock<std::mutex> lock(mu_);
  s.key = machine_.ranks_[rank]->ctx->core().now();
  pending_q_.invalidate(rank);
  pending_q_.push(s.key, rank);
  s.phase = Phase::kStartable;
  drain_commits_locked();
  // Fast path: if this rank is still what the node would dispatch next,
  // keep running without a fiber switch.
  const bool self_next = pick_local_locked(s.node) == static_cast<int>(rank);
  if (self_next) s.phase = Phase::kRunning;
  sweep_locked();
  lock.unlock();
  if (!self_next) s.fiber->park();
}

void EpochScheduler::block_fiber(unsigned rank) {
  RankState& s = states_[rank];
  std::unique_lock<std::mutex> lock(mu_);
  // A stop serviced since this rank set its blocked status woke it while
  // it still looked runnable, and no later wake will come: do not park,
  // let the caller unwind on the abort flag. (service_stop runs under
  // mu_, so it either comes before this check or finds the rank kBlocked.)
  if (machine_.aborting_.load(std::memory_order_relaxed)) return;
  s.phase = Phase::kBlocked;
  pending_q_.invalidate(rank);
  drain_commits_locked();  // we left the pending set; commits may proceed
  sweep_locked();
  lock.unlock();
  s.fiber->park();
}

void EpochScheduler::on_ready(unsigned rank) {
  // Called from inside a commit or stall resolution, lock already held.
  RankState& s = states_[rank];
  if (s.phase != Phase::kBlocked) return;  // already pending
  s.key = machine_.ranks_[rank]->ctx->core().now();
  s.phase = Phase::kStartable;
  pending_q_.invalidate(rank);
  pending_q_.push(s.key, rank);
}

void EpochScheduler::fiber_main(unsigned rank) {
  Machine::Rank& self = *machine_.ranks_[rank];
  try {
    if (machine_.aborting_.load(std::memory_order_relaxed)) throw AbortRun{};
    program_(*self.ctx);
    self.status = Machine::Status::kFinished;
  } catch (const AbortRun&) {
    self.status = Machine::Status::kFailed;
  } catch (const NodeDeathFault& death) {
    // Death bookkeeping mutates shared lists and obs counters: commit it
    // at this rank's slot (faults imply strict mode, so the slot is
    // immediate).
    const bool inherited = death.inherited;
    run_at_slot(rank,
                [this, rank, inherited] {
                  machine_.record_rank_death(rank, inherited);
                });
  } catch (...) {
    self.status = Machine::Status::kFailed;
    self.error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  states_[rank].phase = Phase::kTerminal;
  pending_q_.invalidate(rank);
  ++terminal_count_;
  drain_commits_locked();
  sweep_locked();
  cv_main_.notify_all();
  lock.unlock();
  // Returning unwinds the fiber back into its node executor.
}

void EpochScheduler::run() {
  const unsigned n = machine_.num_ranks();
  std::unique_lock<std::mutex> lock(mu_);
  sweep_locked();
  for (;;) {
    cv_main_.wait(lock, [this, n] {
      return terminal_count_ == n || active_nodes_ == 0;
    });
    if (terminal_count_ == n) break;
    // No executor is active: either a wake raced the last node_loop exit,
    // or nobody can run at all. A pending stop must be serviced before
    // resolve_stall, or a stop during a full block would be misread as a
    // deadlock.
    machine_.service_stop();
    drain_commits_locked();
    sweep_locked();
    if (active_nodes_ > 0) continue;
    if (terminal_count_ == n) break;
    std::string diag;
    const Machine::StallOutcome out = machine_.resolve_stall(diag);
    if (out == Machine::StallOutcome::kAllDone) break;
    if (out == Machine::StallOutcome::kDeadlock) deadlock_diag_ = diag;
    // kProgress / kDeadlock / kAbortFailure all woke ranks via
    // make_ready; dispatch them (deadlock/abort victims unwind via
    // their wake flags).
    sweep_locked();
  }
  lock.unlock();
  if (!deadlock_diag_.empty()) throw std::runtime_error(deadlock_diag_);
}

}  // namespace bgp::rt
