#include "runtime/rankctx.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/strfmt.hpp"
#include "runtime/obs_scope.hpp"

namespace bgp::rt {

namespace {

/// Per-rank private region: 256 MB at (core+1)*256MB in the node space.
constexpr addr_t kRankRegionBytes = addr_t{256} * MiB;

}  // namespace

RankCtx::RankCtx(Machine& machine, unsigned rank)
    : machine_(machine),
      rank_(rank),
      placement_(machine.partition().placement(rank)) {
  alloc_next_ = kRankRegionBytes * (placement_.core + 1);
  alloc_limit_ = alloc_next_ + kRankRegionBytes;
}

addr_t RankCtx::alloc_bytes(u64 bytes) {
  const addr_t base = alloc_next_;
  const u64 padded = (bytes + 127) & ~u64{127};
  if (base + padded > alloc_limit_) {
    throw std::runtime_error(
        strfmt("rank %u: simulated heap exhausted (%llu bytes requested)",
               rank_, static_cast<unsigned long long>(bytes)));
  }
  alloc_next_ = base + padded;
  return base;
}

void RankCtx::pulse_node() {
  const cycles_t bill = node().pacer().pulse();
  if (bill > 0) core().advance(bill);
}

void RankCtx::sys_event(isa::SysEvent e, u64 count) {
  node().upc().signal(isa::ev::system(e, placement_.core), count);
}

void RankCtx::wait_until(cycles_t t) {
  const cycles_t now_c = core().now();
  if (t > now_c) {
    core().advance(t - now_c);
    sys_event(isa::SysEvent::kMpiWaitCycles, t - now_c);
  }
}

// ---- lifecycle -------------------------------------------------------------

void RankCtx::mpi_init() {
  if (machine_.mpi_hooks().on_init) {
    // Hooks come from the tools and may touch shared state (counter
    // registries, output files); run them at this rank's commit slot.
    machine_.run_at_slot(rank_, [this] { machine_.mpi_hooks().on_init(*this); });
  }
  barrier();
}

void RankCtx::mpi_finalize() {
  barrier();
  if (machine_.mpi_hooks().on_finalize) {
    machine_.run_at_slot(rank_,
                         [this] { machine_.mpi_hooks().on_finalize(*this); });
  }
}

// ---- computation ------------------------------------------------------------

void RankCtx::loop(const isa::LoopDesc& desc,
                   std::initializer_list<MemRange> ranges) {
  loop(desc, std::span<const MemRange>(ranges.begin(), ranges.size()));
}

void RankCtx::loop(const isa::LoopDesc& desc,
                   std::span<const MemRange> ranges) {
  machine_.check_fault(rank_);
  const opt::CompiledLoop& cl = machine_.compile_cached(desc);
  core().execute_block(cl.ops, cl.core_events[core().id()]);
  for (const MemRange& r : ranges) {
    touch_no_yield(core_id(), r, cl.mem_overlap);
  }
  yield();
}

unsigned RankCtx::num_threads() const noexcept {
  return sys::threads_per_process(machine_.partition().mode());
}

void RankCtx::parallel_loop(const isa::LoopDesc& desc,
                            std::initializer_list<MemRange> ranges,
                            unsigned nthreads) {
  parallel_loop(desc, std::span<const MemRange>(ranges.begin(), ranges.size()),
                nthreads);
}

void RankCtx::parallel_loop(const isa::LoopDesc& desc,
                            std::span<const MemRange> ranges,
                            unsigned nthreads) {
  const unsigned team_max = num_threads();
  if (nthreads == 0) nthreads = team_max;
  if (nthreads > team_max) {
    throw std::invalid_argument(
        strfmt("parallel_loop: %u threads but the process owns %u cores",
               nthreads, team_max));
  }
  if (nthreads == 1) {
    loop(desc, ranges);
    return;
  }
  machine_.check_fault(rank_);

  /// Fork/join overhead per parallel region (thread wake + barrier).
  constexpr cycles_t kForkJoin = 800;
  auto& node_ref = node();
  const unsigned base_core = placement_.core;

  // The master forks from its current time; workers cannot start earlier.
  cycles_t fork_time = node_ref.core(base_core).now();
  cycles_t join_time = 0;
  for (unsigned t = 0; t < nthreads; ++t) {
    cpu::Core& core = node_ref.core(base_core + t);
    core.sync_to(fork_time);

    isa::LoopDesc slice = desc;
    slice.trip = desc.trip / nthreads +
                 (t < desc.trip % nthreads ? 1 : 0);
    const opt::CompiledLoop& cl = machine_.compile_cached(slice);
    core.execute_block(cl.ops, cl.core_events[core.id()]);

    // Static range split: thread t walks its contiguous slice through the
    // *shared* node caches from its own core.
    for (const MemRange& r : ranges) {
      const u64 chunk = r.bytes / nthreads;
      touch_no_yield(base_core + t,
                     MemRange{r.addr + t * chunk,
                              t + 1 == nthreads ? r.bytes - t * chunk : chunk,
                              r.write},
                     cl.mem_overlap);
    }
    join_time = std::max(join_time, core.now());
  }
  // Join barrier: every team member reaches the max, master pays fork/join.
  for (unsigned t = 0; t < nthreads; ++t) {
    node_ref.core(base_core + t).sync_to(join_time);
  }
  node_ref.core(base_core).advance(kForkJoin);
  yield();
}

void RankCtx::touch_no_yield(unsigned cid, const MemRange& r,
                             double overlap) {
  if (r.bytes == 0) return;
  auto& memory = node().memory();
  cpu::Core& c = node().core(cid);
  const auto res = r.write ? memory.write(cid, r.addr, r.bytes, c.now())
                           : memory.read(cid, r.addr, r.bytes, c.now());
  // The L1-hit portion of the walk is already covered by LSU occupancy in
  // the compute model; only the excess is an exposed stall, discounted by
  // the loop's memory-level parallelism.
  const auto& l1 = memory.params().l1d;
  const u64 lines = r.bytes / l1.line_bytes + 2;
  const cycles_t baseline = lines * l1.hit_latency;
  if (res.latency > baseline && overlap > 0.0) {
    c.advance(static_cast<cycles_t>(
        std::llround(static_cast<double>(res.latency - baseline) / overlap)));
  }
}

void RankCtx::touch(const MemRange& range, double overlap) {
  machine_.check_fault(rank_);
  touch_no_yield(core_id(), range, overlap);
  yield();
}

// ---- point-to-point ---------------------------------------------------------

cycles_t RankCtx::transfer_cycles(unsigned peer_node, u64 bytes) const {
  auto& part = const_cast<Machine&>(machine_).partition();
  if (peer_node == placement_.node) {
    // Intra-node: a memory-to-memory copy through the shared L3.
    return 300 + bytes / 8;
  }
  return part.torus().transfer_cycles(placement_.node, peer_node, bytes);
}

void RankCtx::send(unsigned dst, std::span<const std::byte> data, int tag) {
  if (dst >= size()) {
    throw std::out_of_range(strfmt("send to invalid rank %u", dst));
  }
  machine_.check_fault(rank_);
  machine_.check_revoked(rank_);
  if (machine_.rank_died(dst)) {
    // FT: a send to a failed peer is detected at the sender (it raises
    // ProcFailedError there); without FT the message is deposited into the
    // dead rank's mailbox and simply never consumed, as before. Detection
    // appends to the shared recovery log, so it commits.
    machine_.run_at_slot(rank_,
                         [this, dst] { machine_.detect_failed_peer(rank_, dst); });
  }
  sys_event(isa::SysEvent::kMpiSends);
  const auto peer = machine_.partition().placement(dst);

  // Software overhead; the injection DMA's memory reads are charged by the
  // caller when it touches its send buffer.
  core().advance(machine_.partition().torus().params().sw_overhead);
  Machine::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  msg.ready_time = core().now() + transfer_cycles(peer.node, data.size());

  // Link accounting and the deposit (which may wake the receiver) touch
  // cross-rank state: one commit, so they land together in commit order.
  machine_.run_at_slot(rank_, [&] {
    if (peer.node != placement_.node) {
      machine_.partition().torus().record_transfer(placement_.node, peer.node,
                                                   data.size());
    }
    machine_.deposit(std::move(msg), dst);
  });
  yield();
}

void RankCtx::recv(unsigned src, std::span<std::byte> out, int tag) {
  machine_.check_fault(rank_);
  machine_.check_revoked(rank_);
  sys_event(isa::SysEvent::kMpiRecvs);
  core().advance(machine_.partition().torus().params().sw_overhead);
  for (;;) {
    // Match-or-block is one commit: if a concurrent sender's deposit could
    // slip between a failed match and the transition to kBlockedRecv, the
    // wake would be missed. The pacer's pulse is billed inside the commit
    // too so the frozen blocked clock includes it.
    std::optional<Machine::Message> msg;
    bool blocked = false;
    machine_.run_at_slot(rank_, [&] {
      msg = machine_.try_match(rank_, src, tag);
      if (msg.has_value()) return;
      // FT: a recv that can never match because the source already failed
      // is detected here (ULFM semantics: messages sent before the death
      // are still delivered above; only then does the failure surface).
      if (src != kAnySource && machine_.rank_died(src)) {
        machine_.detect_failed_peer(rank_, src);
      }
      auto& self = *machine_.ranks_[rank_];
      self.status = Machine::Status::kBlockedRecv;
      self.recv_src = src;
      self.recv_tag = tag;
      blocked = true;
      pulse_node();
    });
    if (msg.has_value()) {
      if (msg->payload.size() != out.size()) {
        throw std::runtime_error(
            strfmt("rank %u: recv size mismatch (got %zu, want %zu)", rank_,
                   msg->payload.size(), out.size()));
      }
      wait_until(msg->ready_time);
      std::memcpy(out.data(), msg->payload.data(), out.size());
      yield();
      return;
    }
    if (blocked) machine_.block_rank(rank_);
  }
}

void RankCtx::sendrecv(unsigned peer, std::span<const std::byte> out,
                       std::span<std::byte> in, int tag) {
  // Eager sends never block, so send-then-recv is deadlock-free.
  send(peer, out, tag);
  recv(peer, in, tag);
}

// ---- collectives -------------------------------------------------------------

cycles_t RankCtx::coll_op_cycles(u64 bytes) const {
  auto& part = const_cast<Machine&>(machine_).partition();
  if (machine_.ft_params().enabled) {
    return part.collective().op_cycles_live(bytes,
                                            machine_.live_comm_nodes());
  }
  return part.collective().op_cycles(bytes);
}

cycles_t RankCtx::barrier_latency() const {
  auto& part = const_cast<Machine&>(machine_).partition();
  if (machine_.ft_params().enabled) {
    return part.barrier_net().barrier_cycles_live(machine_.live_comm_nodes());
  }
  return part.barrier_net().barrier_cycles();
}

void RankCtx::barrier() {
  ObsScope span(*this, "coll.barrier", obs::SpanCat::kCollective,
                obs::collective_histogram(obs::CollOp::kBarrier));
  auto& part = machine_.partition();
  const cycles_t latency = barrier_latency();
  const cycles_t t0 = core().now();
  sys_event(isa::SysEvent::kMpiCollectives);
  machine_.enter_collective(
      rank_, kCollBarrier, 0, 0, {}, {},
      [&part, t0](Machine::Collective& coll) {
        cycles_t total_wait = 0;
        total_wait += coll.max_arrival - t0;  // rough skew estimate
        part.barrier_net().record_barrier(total_wait);
      },
      latency);
  const cycles_t waited = core().now() - t0;
  if (waited > latency) {
    sys_event(isa::SysEvent::kMpiWaitCycles, waited - latency);
  }
}

void RankCtx::bcast(std::span<std::byte> data, unsigned root) {
  ObsScope span(*this, "coll.bcast", obs::SpanCat::kCollective,
                obs::collective_histogram(obs::CollOp::kBcast));
  auto& part = machine_.partition();
  const cycles_t latency = coll_op_cycles(data.size());
  sys_event(isa::SysEvent::kMpiCollectives);
  machine_.enter_collective(
      rank_, kCollBcast, data.size(), root, std::as_bytes(std::span(data)),
      data,
      [&part, root, latency](Machine::Collective& coll) {
        const auto& src = coll.members[root];
        // A dead root has no buffer to broadcast; survivors keep their
        // local contents (the network op still happened).
        if (src.present) {
          for (auto& m : coll.members) {
            if (!m.present || m.recv.data() == src.send.data()) continue;
            std::memcpy(m.recv.data(), src.send.data(), coll.bytes);
          }
        }
        part.collective().record_operation(coll.bytes, latency);
      },
      latency);
}

template <typename T, typename Op>
void RankCtx::allreduce(std::span<T> inout, int kind, T identity, Op op) {
  ObsScope span(*this, "coll.allreduce", obs::SpanCat::kCollective,
                obs::collective_histogram(obs::CollOp::kAllreduce));
  auto& part = machine_.partition();
  const u64 bytes = inout.size_bytes();
  const cycles_t latency = coll_op_cycles(bytes);
  sys_event(isa::SysEvent::kMpiCollectives);
  machine_.enter_collective(
      rank_, kind, bytes, 0, std::as_bytes(inout),
      std::as_writable_bytes(inout),
      [&part, latency, identity, op](Machine::Collective& coll) {
        std::vector<T> acc(coll.bytes / sizeof(T), identity);
        for (auto& m : coll.members) {
          if (!m.present) continue;
          for (std::size_t i = 0; i < acc.size(); ++i) {
            T v{};
            std::memcpy(&v, m.send.data() + i * sizeof(T), sizeof(T));
            acc[i] = op(acc[i], v);
          }
        }
        for (auto& m : coll.members) {
          if (!m.present) continue;
          std::memcpy(m.recv.data(), acc.data(), coll.bytes);
        }
        part.collective().record_operation(coll.bytes, latency);
      },
      latency);
}

void RankCtx::allreduce_sum(std::span<double> inout) {
  allreduce(inout, kCollAllreduceSum, 0.0, std::plus<double>{});
}

double RankCtx::allreduce_sum(double v) {
  allreduce_sum(std::span<double>(&v, 1));
  return v;
}

u64 RankCtx::allreduce_sum(u64 v) {
  allreduce(std::span<u64>(&v, 1), kCollAllreduceSum, u64{0}, std::plus<u64>{});
  return v;
}

double RankCtx::allreduce_max(double v) {
  allreduce(std::span<double>(&v, 1), kCollAllreduceMax,
            -std::numeric_limits<double>::infinity(),
            [](double a, double b) { return std::max(a, b); });
  return v;
}

void RankCtx::alltoall(std::span<const std::byte> send_buf,
                       std::span<std::byte> recv_buf, u64 chunk) {
  const unsigned p = size();
  if (send_buf.size() != chunk * p || recv_buf.size() != chunk * p) {
    throw std::invalid_argument("alltoall buffer size mismatch");
  }
  ObsScope span(*this, "coll.alltoall", obs::SpanCat::kCollective,
                obs::collective_histogram(obs::CollOp::kAlltoall));
  auto& part = machine_.partition();
  // Cost model: every node injects (P-1)*chunk bytes across its six torus
  // links, plus per-hop latency for an average-distance traversal.
  const auto& tp = part.torus().params();
  const double inject_bw = 6.0 * tp.link_bytes_per_cycle;
  const auto serialization = static_cast<cycles_t>(std::llround(
      static_cast<double>(chunk) * (p - 1) / inject_bw));
  const unsigned avg_hops =
      (part.torus().shape().x + part.torus().shape().y +
       part.torus().shape().z) / 4 + 1;
  const cycles_t latency = tp.sw_overhead + serialization +
                           cycles_t{avg_hops} * tp.hop_latency;
  sys_event(isa::SysEvent::kMpiCollectives);
  machine_.enter_collective(
      rank_, kCollAlltoall, chunk, 0, send_buf, recv_buf,
      [chunk, p, &part, latency](Machine::Collective& coll) {
        for (unsigned r = 0; r < p; ++r) {
          auto& dst = coll.members[r];
          if (!dst.present) continue;
          for (unsigned s = 0; s < p; ++s) {
            const auto& src = coll.members[s];
            if (!src.present) continue;
            std::memcpy(dst.recv.data() + s * chunk,
                        src.send.data() + r * chunk, chunk);
          }
        }
        part.collective().record_operation(chunk * p, latency);
      },
      latency);
}

void RankCtx::allgather(std::span<const std::byte> mine,
                        std::span<std::byte> all) {
  const unsigned p = size();
  const u64 chunk = mine.size();
  if (all.size() != chunk * p) {
    throw std::invalid_argument("allgather buffer size mismatch");
  }
  ObsScope span(*this, "coll.allgather", obs::SpanCat::kCollective,
                obs::collective_histogram(obs::CollOp::kAllgather));
  auto& part = machine_.partition();
  const cycles_t latency = coll_op_cycles(chunk * p);
  sys_event(isa::SysEvent::kMpiCollectives);
  machine_.enter_collective(
      rank_, kCollAllgather, chunk, 0, mine, all,
      [chunk, p, &part, latency](Machine::Collective& coll) {
        for (unsigned r = 0; r < p; ++r) {
          auto& dst = coll.members[r];
          if (!dst.present) continue;
          for (unsigned s = 0; s < p; ++s) {
            const auto& src = coll.members[s];
            if (!src.present) continue;
            std::memcpy(dst.recv.data() + s * chunk, src.send.data(), chunk);
          }
        }
        part.collective().record_operation(chunk * p, latency);
      },
      latency);
}

}  // namespace bgp::rt
