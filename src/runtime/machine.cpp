#include "runtime/machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "cpu/core.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "runtime/epoch.hpp"
#include "runtime/rankctx.hpp"

namespace bgp::rt {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      partition_(std::make_unique<sys::Partition>(config.num_nodes,
                                                  config.mode, config.boot)),
      compiler_(config.opt) {
  const unsigned capacity = partition_->num_ranks();
  num_ranks_ = config.num_ranks_override == 0 ? capacity
                                              : config.num_ranks_override;
  if (num_ranks_ > capacity || num_ranks_ == 0) {
    throw std::invalid_argument(
        strfmt("rank override %u out of range (capacity %u)",
               config.num_ranks_override, capacity));
  }
  collective_.members.resize(num_ranks_);
  comm_group_.resize(num_ranks_);
  for (unsigned r = 0; r < num_ranks_; ++r) comm_group_[r] = r;
  in_group_.assign(num_ranks_, true);
  death_detected_.assign(partition_->num_nodes(), false);
}

Machine::~Machine() = default;

void Machine::check_fault(unsigned rank) {
  if (fault_ == nullptr) return;
  Rank& self = *ranks_[rank];
  const unsigned node = self.ctx->node_id();
  const auto death = fault_->death_cycle(node);
  if (death.has_value() && self.ctx->core().now() >= *death) {
    throw NodeDeathFault{node};
  }
}

void Machine::record_rank_death(unsigned rank, bool inherited) {
  // Commit context (runs at the rank's slot), so the list pushes are
  // race-free. Injected deaths and cascade victims are kept apart: only the
  // former mark a node as genuinely killed.
  Rank& self = *ranks_[rank];
  self.status = Status::kDied;
  (inherited ? stranded_ranks_ : dead_ranks_).push_back(rank);
  if (auto* fr = obs::recorder()) {
    RankCtx& ctx = *self.ctx;
    fr->rank(ctx.node_id(), ctx.core_id())
        .instant(inherited ? "fault.rank_stranded" : "fault.node_death",
                 obs::SpanCat::kFault, ctx.core().now());
    (inherited ? fr->wk().ranks_stranded : fr->wk().rank_deaths)->add(1);
  }
}

void Machine::run(const RankFn& program) {
  if (ran_) throw std::logic_error("Machine::run may only be called once");
  ran_ = true;

  ranks_.reserve(num_ranks_);
  for (unsigned r = 0; r < num_ranks_; ++r) {
    auto rank = std::make_unique<Rank>();
    rank->ctx = std::make_unique<RankCtx>(*this, r);
    ranks_.push_back(std::move(rank));
  }

  EpochScheduler epoch(*this, program);
  epoch_ = &epoch;
  try {
    epoch.run();
  } catch (...) {
    epoch_ = nullptr;
    throw;
  }
  epoch_ = nullptr;
  run_epilogue();
}

Machine::StallOutcome Machine::resolve_stall(std::string& diag) {
  bool all_done = true;
  bool any_failed = false;
  unsigned nonterminal = 0;
  unsigned coll_blocked = 0;
  for (const auto& rank : ranks_) {
    const Status st = rank->status;
    if (st == Status::kFailed) any_failed = true;
    if (st != Status::kFinished && st != Status::kFailed &&
        st != Status::kDied) {
      all_done = false;
      ++nonterminal;
      if (st == Status::kBlockedCollective) ++coll_blocked;
    }
  }
  if (all_done) return StallOutcome::kAllDone;
  if (!any_failed && !dead_ranks_.empty()) {
    // Node deaths leave survivors stuck in wait structures the dead ranks
    // can no longer satisfy. Resolve, in order:
    // 1. Receivers waiting specifically on a dead rank: without FT they
    //    inherit the death (unwind via NodeDeathFault on resume); with FT
    //    the recv raises ProcFailedError instead so the survivor can
    //    recover.
    bool progressed = false;
    for (unsigned r = 0; r < num_ranks_; ++r) {
      Rank& rank = *ranks_[r];
      if (rank.status != Status::kBlockedRecv) continue;
      if (rank.recv_src == RankCtx::kAnySource) continue;
      if (ranks_[rank.recv_src]->status != Status::kDied) continue;
      (ft_params_.enabled ? rank.proc_failed : rank.peer_dead) = true;
      make_ready(r);
      progressed = true;
    }
    if (progressed) return StallOutcome::kProgress;
    // 2. Every surviving rank reached the collective: the dead ranks will
    //    never arrive, so complete it over the members present (FT flags
    //    the released survivors in finish_collective).
    if (coll_blocked > 0 && coll_blocked == nonterminal) {
      finish_collective();
      return StallOutcome::kProgress;
    }
    // 3. Remaining receivers (any-source, or waiting on a live rank that
    //    is itself stuck) can never be satisfied — no rank is runnable to
    //    send to them. The death cascades (or, with FT, surfaces as an
    //    error return).
    for (unsigned r = 0; r < num_ranks_; ++r) {
      Rank& rank = *ranks_[r];
      if (rank.status == Status::kBlockedRecv) {
        (ft_params_.enabled ? rank.proc_failed : rank.peer_dead) = true;
        make_ready(r);
        progressed = true;
      }
    }
    if (progressed) return StallOutcome::kProgress;
  }
  if (!any_failed) {
    // Nobody is ready, nobody finished everything: deadlock. Build a
    // diagnostic before unwinding.
    diag = "MiniMPI deadlock: no runnable rank;";
    for (unsigned r2 = 0; r2 < num_ranks_; ++r2) {
      const Rank& rk = *ranks_[r2];
      if (rk.status == Status::kBlockedRecv) {
        diag += strfmt(" rank%u=recv(src=%u,tag=%d,mail=%zu)", r2,
                       rk.recv_src, rk.recv_tag, rk.mailbox.size());
      } else if (rk.status == Status::kBlockedCollective) {
        diag += strfmt(" rank%u=coll(kind=%d)", r2, collective_.kind);
      }
    }
  }
  const StallOutcome out =
      any_failed ? StallOutcome::kAbortFailure : StallOutcome::kDeadlock;
  aborting_.store(true, std::memory_order_relaxed);
  for (unsigned r = 0; r < num_ranks_; ++r) {
    const Status st = ranks_[r]->status;
    if (st == Status::kBlockedRecv || st == Status::kBlockedCollective) {
      make_ready(r);  // wake to unwind via AbortRun
    }
  }
  return out;
}

bool Machine::service_stop() {
  if (!stop_requested_.load(std::memory_order_relaxed)) return false;
  if (aborting_.load(std::memory_order_relaxed)) return false;
  aborting_.store(true, std::memory_order_relaxed);
  for (unsigned r = 0; r < num_ranks_; ++r) {
    const Status st = ranks_[r]->status;
    if (st == Status::kBlockedRecv || st == Status::kBlockedCollective) {
      make_ready(r);  // wake to unwind via AbortRun
    }
  }
  return true;
}

void Machine::run_epilogue() {
  for (auto& rank : ranks_) {
    if (rank->error) std::rethrow_exception(rank->error);
  }
  if (aborting_.load(std::memory_order_relaxed)) {
    // A requested stop reuses the abort unwinding machinery but is a
    // deliberate cancellation, not a failure.
    if (stop_requested_.load(std::memory_order_relaxed)) throw RunStopped{};
    throw std::runtime_error("run aborted");
  }
  if (!dead_ranks_.empty()) {
    std::string who;
    for (unsigned n : dead_nodes()) who += strfmt(" node%u", n);
    if (stranded_ranks_.empty()) {
      log_warn("run completed degraded: %zu rank(s) lost to node death on%s"
               "%s",
               dead_ranks_.size(), who.c_str(),
               ft_params_.enabled ? " (survivors recovered)" : "");
    } else {
      log_warn("run completed degraded: %zu rank(s) lost to node death on%s, "
               "%zu more stranded by the cascade",
               dead_ranks_.size(), who.c_str(), stranded_ranks_.size());
    }
  }
}

std::vector<unsigned> Machine::dead_nodes() const {
  std::vector<unsigned> nodes;
  const auto collect = [&](const std::vector<unsigned>& ranks) {
    for (const unsigned r : ranks) {
      const unsigned n = ranks_[r]->ctx->node_id();
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
        nodes.push_back(n);
      }
    }
  };
  collect(dead_ranks_);
  collect(stranded_ranks_);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

void Machine::make_ready(unsigned rank) {
  ranks_[rank]->status = Status::kReady;
  epoch_->on_ready(rank);
}

void Machine::consume_wake_flags(unsigned rank) {
  Rank& self = *ranks_[rank];
  if (aborting_.load(std::memory_order_relaxed)) throw AbortRun{};
  if (self.peer_dead) {
    self.peer_dead = false;
    throw NodeDeathFault{self.ctx->node_id(), /*inherited=*/true};
  }
  if (self.revoked_wake) {
    self.revoked_wake = false;
    throw ft::RevokedError(
        strfmt("rank %u: communicator revoked while blocked", rank));
  }
  if (self.proc_failed) {
    self.proc_failed = false;
    raise_proc_failed(rank);
  }
}

void Machine::yield_rank(unsigned rank) {
  epoch_->yield_segment(rank);
  consume_wake_flags(rank);
}

void Machine::block_rank(unsigned rank) {
  epoch_->block_fiber(rank);
  consume_wake_flags(rank);
}

void Machine::run_at_slot(unsigned rank, const std::function<void()>& fn) {
  epoch_->run_at_slot(rank, fn);
}

const opt::CompiledLoop& Machine::compile_cached(const isa::LoopDesc& desc) {
  std::string key;
  key.reserve(desc.name.size() + 1 + 64);
  key.append(desc.name.data(), desc.name.size());
  key.push_back('\0');
  const auto append_pod = [&key](const auto& v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_pod(desc.trip);
  append_pod(desc.body.fp);
  append_pod(desc.body.ls);
  append_pod(desc.body.in);
  append_pod(desc.vectorizable);
  append_pod(desc.reduction);
  append_pod(desc.has_calls);
  append_pod(desc.locality);
  std::lock_guard<std::mutex> lock(loop_cache_mu_);
  auto it = loop_cache_.find(key);
  if (it == loop_cache_.end()) {
    auto entry = std::make_unique<CachedLoop>();
    entry->name.assign(desc.name);
    entry->cl = compiler_.compile(desc);
    entry->cl.name = entry->name;  // re-point the view at owned storage
    // Derive the per-core event vectors the compiler cannot build
    // (the cycle entry needs the CPU timing model): core-0 ids rebased onto
    // each core's slice, CYCLE_COUNT last. All cores run identical default
    // parameters (sys::Node constructs them that way), so one
    // bundle_cycles() covers every core and Core::execute_block can charge
    // the same value it finds precomputed in its vector.
    const cycles_t block_cycles =
        cpu::Core::bundle_cycles(entry->cl.ops, cpu::CoreParams{});
    for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
      std::vector<isa::EventCount>& v = entry->cl.core_events[c];
      v.reserve(entry->cl.events.size() + 1);
      const u16 base = static_cast<u16>(c * isa::ev::kPerCoreSlice);
      for (const isa::EventCount& e : entry->cl.events) {
        v.push_back({static_cast<isa::EventId>(e.id + base), e.count});
      }
      if (block_cycles > 0) {
        v.push_back({isa::ev::cycle_count(c), block_cycles});
      }
    }
    it = loop_cache_.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second->cl;
}

void Machine::check_revoked(unsigned rank) const {
  if (ft_params_.enabled && revoked_) {
    throw ft::RevokedError(strfmt("rank %u: communicator revoked", rank));
  }
}

void Machine::detect_failed_peer(unsigned rank, unsigned peer) {
  if (!ft_params_.enabled) return;  // legacy path: the scheduler cascades
  Rank& self = *ranks_[rank];
  self.ctx->core().advance(ft_params_.detect_latency);
  note_detection(rank, ranks_[peer]->ctx->node_id());
  throw ft::ProcFailedError(
      strfmt("rank %u: peer rank %u failed", rank, peer));
}

void Machine::raise_proc_failed(unsigned rank) {
  Rank& self = *ranks_[rank];
  self.ctx->core().advance(ft_params_.detect_latency);
  for (const unsigned r : comm_group_) {
    if (ranks_[r]->status == Status::kDied) {
      note_detection(rank, ranks_[r]->ctx->node_id());
    }
  }
  throw ft::ProcFailedError(
      strfmt("rank %u: peer failure detected in pending operation", rank));
}

void Machine::note_detection(unsigned rank, unsigned node) {
  if (death_detected_[node]) return;
  death_detected_[node] = true;
  cycles_t death = 0;
  if (fault_ != nullptr) {
    // death_cycle() is the injected schedule, i.e. ground truth for when
    // the node stopped; the gap to `cycle` is the observed detection lag.
    death = fault_->death_cycle(node).value_or(0);
  }
  recovery_log_.push_back(ft::RecoveryEvent{
      .kind = ft::RecoveryKind::kDeathDetected,
      .node = node,
      .rank = rank,
      .cycle = ranks_[rank]->ctx->core().now(),
      .cost = ft_params_.detect_latency,
      .aux = death,
  });
  if (auto* fr = obs::recorder()) {
    RankCtx& ctx = *ranks_[rank]->ctx;
    fr->rank(ctx.node_id(), ctx.core_id())
        .instant("ft.death_detected", obs::SpanCat::kFt, ctx.core().now());
    fr->wk().deaths_detected->add(1);
  }
}

void Machine::revoke_comm(unsigned rank, cycles_t cost) {
  // The wake-ups mutate scheduler state, so the body runs as a commit (FT
  // implies strict mode, so the slot is immediate).
  run_at_slot(rank, [this, rank, cost] {
    if (revoked_) return;  // an already-revoked communicator stays revoked
    revoked_ = true;
    recovery_log_.push_back(ft::RecoveryEvent{
        .kind = ft::RecoveryKind::kRevoke,
        .node = ranks_[rank]->ctx->node_id(),
        .rank = rank,
        .cycle = ranks_[rank]->ctx->core().now(),
        .cost = cost,
        .aux = 0,
    });
    partition_->barrier_net().record_barrier(0);
    // The revoke notification rides the barrier/interrupt network: every
    // plain-blocked survivor is interrupted and resumes into RevokedError.
    // Ranks inside internal FT operations are exempt (recovery must be
    // able to run to completion on a revoked communicator).
    bool reset_collective = false;
    for (unsigned r = 0; r < num_ranks_; ++r) {
      Rank& rk = *ranks_[r];
      if (rk.status == Status::kBlockedRecv) {
        rk.revoked_wake = true;
        make_ready(r);
      } else if (rk.status == Status::kBlockedCollective &&
                 !collective_.internal) {
        rk.revoked_wake = true;
        make_ready(r);
        reset_collective = true;
      }
    }
    if (reset_collective) {
      collective_.arrived = 0;
      collective_.kind = -1;
      collective_.internal = false;
      collective_.combine = nullptr;
    }
  });
}

void Machine::apply_shrink(std::vector<unsigned> group, cycles_t when,
                           cycles_t cost) {
  comm_group_ = std::move(group);
  in_group_.assign(num_ranks_, false);
  for (const unsigned r : comm_group_) in_group_[r] = true;
  ++comm_epoch_;
  revoked_ = false;
  recovery_log_.push_back(ft::RecoveryEvent{
      .kind = ft::RecoveryKind::kShrink,
      .node = ft::RecoveryEvent::kNoNode,
      .rank = ft::RecoveryEvent::kNoRank,
      .cycle = when,
      .cost = cost,
      .aux = comm_group_.size(),
  });
}

unsigned Machine::live_comm_nodes() const {
  std::vector<bool> seen(partition_->num_nodes(), false);
  unsigned live = 0;
  for (const unsigned r : comm_group_) {
    const Rank& rk = *ranks_[r];
    if (rk.status == Status::kDied || rk.status == Status::kFailed) continue;
    const unsigned node = rk.ctx->node_id();
    if (!seen[node]) {
      seen[node] = true;
      ++live;
    }
  }
  return live;
}

void Machine::deposit(Message msg, unsigned dst) {
  Rank& receiver = *ranks_.at(dst);
  const unsigned src = msg.src;
  const int tag = msg.tag;
  receiver.mailbox.push_back(std::move(msg));
  if (receiver.status == Status::kBlockedRecv &&
      (receiver.recv_src == RankCtx::kAnySource || receiver.recv_src == src) &&
      (receiver.recv_tag == RankCtx::kAnyTag || receiver.recv_tag == tag)) {
    make_ready(dst);
  }
}

std::optional<Machine::Message> Machine::try_match(unsigned rank, unsigned src,
                                                   int tag) {
  Rank& self = *ranks_[rank];
  for (auto it = self.mailbox.begin(); it != self.mailbox.end(); ++it) {
    if ((src == RankCtx::kAnySource || it->src == src) &&
        (tag == RankCtx::kAnyTag || it->tag == tag)) {
      Message m = std::move(*it);
      self.mailbox.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void Machine::enter_collective(
    unsigned rank, int kind, u64 bytes, unsigned root,
    std::span<const std::byte> send, std::span<std::byte> recv,
    const std::function<void(Collective&)>& combine, cycles_t op_latency) {
  check_fault(rank);  // a dead rank must never register as an arrival
  const bool internal = kind <= kCollFtFirst;
  if (!internal) check_revoked(rank);
  Rank& self = *ranks_[rank];
  if (ft_params_.enabled && !in_group_[rank]) {
    throw std::logic_error(strfmt(
        "rank %u entered a collective but is not in the shrunk communicator",
        rank));
  }

  bool blocked = false;
  run_at_slot(rank, [&] {
    Collective& coll = collective_;
    if (coll.arrived == 0) {
      coll.kind = kind;
      coll.bytes = bytes;
      coll.root = root;
      coll.max_arrival = 0;
      coll.combine = combine;
      coll.op_latency = op_latency;
      coll.internal = internal;
      for (auto& m : coll.members) m = Collective::Member{};
      if (ft_params_.enabled) {
        // Only members still alive at first arrival can complete the
        // rendezvous inline; anyone who dies later simply never arrives
        // and the scheduler's stall resolution completes over those
        // present.
        coll.expected = 0;
        for (const unsigned r : comm_group_) {
          const Status st = ranks_[r]->status;
          if (st != Status::kDied && st != Status::kFailed) ++coll.expected;
        }
      } else {
        coll.expected = num_ranks_;
      }
    } else if (coll.kind != kind || coll.root != root || coll.bytes != bytes) {
      // Every combine sizes its copies by the first arrival's bytes.
      throw std::logic_error(strfmt(
          "collective mismatch: rank %u entered kind %d (%llu bytes, root "
          "%u) but kind %d (%llu bytes, root %u) in flight",
          rank, kind, static_cast<unsigned long long>(bytes), root,
          coll.kind, static_cast<unsigned long long>(coll.bytes), coll.root));
    }

    auto& member = coll.members[rank];
    member.send = send;
    member.recv = recv;
    member.present = true;
    coll.max_arrival = std::max(coll.max_arrival, self.ctx->core().now());
    ++coll.arrived;

    if (coll.arrived < coll.expected) {
      self.status = Status::kBlockedCollective;
      blocked = true;
    } else {
      // Last arrival: perform the data movement and release everyone.
      finish_collective();
    }
  });
  if (blocked) {
    block_rank(rank);
    return;  // a later arrival completed the operation and synced our clock
  }
  if (self.proc_failed) {
    self.proc_failed = false;
    raise_proc_failed(rank);
  }
}

void Machine::finish_collective() {
  Collective& coll = collective_;
  if (coll.combine) coll.combine(coll);
  const cycles_t done = coll.max_arrival + coll.op_latency;
  // FT: a plain collective that completed without a (dead) group member is
  // an error at every survivor it released — ULFM collectives raise
  // MPI_ERR_PROC_FAILED rather than silently dropping a contribution.
  // Internal FT operations are designed to complete over survivors.
  bool failure = false;
  if (ft_params_.enabled && !coll.internal) {
    for (const unsigned r : comm_group_) {
      if (ranks_[r]->status == Status::kDied && !coll.members[r].present) {
        failure = true;
        break;
      }
    }
  }
  for (unsigned r = 0; r < num_ranks_; ++r) {
    Rank& rk = *ranks_[r];
    if (rk.status == Status::kDied || rk.status == Status::kFailed) {
      continue;  // do not advance clocks of dead ranks' cores
    }
    rk.ctx->core().sync_to(done);
    if (failure && coll.members[r].present) rk.proc_failed = true;
    if (rk.status == Status::kBlockedCollective) {
      make_ready(r);
    }
  }
  coll.arrived = 0;
  coll.kind = -1;
  coll.internal = false;
  coll.combine = nullptr;  // release references captured by the lambda
}

cycles_t Machine::node_time(unsigned node) const {
  return partition_->node(node).timebase();
}

cycles_t Machine::elapsed() const {
  cycles_t t = 0;
  for (unsigned n = 0; n < partition_->num_nodes(); ++n) {
    t = std::max(t, node_time(n));
  }
  return t;
}

}  // namespace bgp::rt
