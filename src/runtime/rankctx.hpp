// RankCtx: everything a rank program can do — allocate simulated memory,
// execute compiled loops against its core and the node's caches, and
// communicate through MiniMPI. One RankCtx per rank, used only from that
// rank's fiber; all cross-rank effects go through Machine commits, so rank
// programs need no locking of their own.
#pragma once

#include <initializer_list>
#include <span>
#include <string>

#include "cpu/core.hpp"
#include "isa/loop.hpp"
#include "runtime/machine.hpp"
#include "runtime/simarray.hpp"

namespace bgp::rt {

/// A contiguous simulated-memory range touched by a loop.
struct MemRange {
  addr_t addr = 0;
  u64 bytes = 0;
  bool write = false;
};

class RankCtx {
 public:
  RankCtx(Machine& machine, unsigned rank);

  // -- identity -----------------------------------------------------------
  [[nodiscard]] unsigned rank() const noexcept { return rank_; }
  [[nodiscard]] unsigned size() const noexcept { return machine_.num_ranks(); }
  [[nodiscard]] unsigned node_id() const noexcept { return placement_.node; }
  [[nodiscard]] unsigned core_id() const noexcept { return placement_.core; }
  [[nodiscard]] sys::Node& node() { return machine_.partition().node(placement_.node); }
  [[nodiscard]] cpu::Core& core() { return node().core(placement_.core); }
  [[nodiscard]] Machine& machine() noexcept { return machine_; }
  [[nodiscard]] cycles_t now() { return core().now(); }

  // -- simulated memory -----------------------------------------------------
  /// Reserve `bytes` in this rank's private region of the node address
  /// space (128-byte aligned) and return its base. A kernel that computes
  /// an array's values where it uses them needs only this address range.
  [[nodiscard]] addr_t alloc_bytes(u64 bytes);

  /// Allocate `n` elements: a reserved range plus the host array behind it.
  template <typename T>
  [[nodiscard]] SimArray<T> alloc(std::size_t n) {
    return SimArray<T>(alloc_bytes(n * sizeof(T)), n);
  }

  // -- MPI-like lifecycle -----------------------------------------------------
  /// MPI_Init: runs the interface library's hook (if linked) and joins the
  /// initial barrier.
  void mpi_init();
  /// MPI_Finalize: joins the final barrier, then runs the hook.
  void mpi_finalize();

  // -- computation -------------------------------------------------------------
  /// Compile `desc` under the machine's option set, execute the resulting
  /// bundle on this core and walk `ranges` through the cache hierarchy,
  /// charging exposed stalls.
  void loop(const isa::LoopDesc& desc,
            std::initializer_list<MemRange> ranges = {});
  void loop(const isa::LoopDesc& desc, std::span<const MemRange> ranges);

  /// OpenMP-style worksharing across the cores owned by this rank's
  /// process (paper §IX floats hybrid MPI+OpenMP on the quad-core nodes:
  /// SMP/4 gives one process all four cores, Dual two). The loop's trip
  /// count and memory ranges are split statically over `nthreads` cores
  /// (0 = all the process owns); each slice executes on its own core
  /// against the shared caches, then the team joins (fork/join overhead +
  /// clock sync). In SMP/1 and VNM this degenerates to loop().
  void parallel_loop(const isa::LoopDesc& desc,
                     std::span<const MemRange> ranges, unsigned nthreads = 0);
  void parallel_loop(const isa::LoopDesc& desc,
                     std::initializer_list<MemRange> ranges = {},
                     unsigned nthreads = 0);

  /// Number of cores this rank's process owns (its maximum OpenMP team).
  [[nodiscard]] unsigned num_threads() const noexcept;

  /// Walk one memory range (outside of any loop accounting).
  void touch(const MemRange& range, double overlap = 2.0);

  /// Data-dependent gather/scatter: `count` cache accesses, each at
  /// base + next_index()*elem_bytes, where `next_index` yields the element
  /// indices in access order.
  template <typename NextIndex>
  void gather(addr_t base, u64 count, NextIndex&& next_index, u32 elem_bytes,
              bool write = false) {
    machine_.check_fault(rank_);
    auto& memory = node().memory();
    const cycles_t l1_hit = memory.params().l1d.hit_latency;
    cycles_t stall = 0;
    for (u64 n = 0; n < count; ++n) {
      const addr_t a = base + addr_t{next_index()} * elem_bytes;
      const cycles_t now = core().now();
      const auto res = write ? memory.write(core_id(), a, elem_bytes, now)
                             : memory.read(core_id(), a, elem_bytes, now);
      if (res.latency > l1_hit) stall += res.latency - l1_hit;
    }
    // Gathers expose most of their latency (little MLP).
    core().stall(static_cast<cycles_t>(static_cast<double>(stall) / 1.2));
    yield();
  }
  /// The same over a list of indices.
  void gather(addr_t base, std::span<const u32> indices, u32 elem_bytes,
              bool write = false) {
    auto it = indices.begin();
    gather(base, indices.size(), [&it] { return *it++; }, elem_bytes, write);
  }

  /// Charge raw compute cycles (library/system code outside loop models).
  void compute_cycles(cycles_t cycles) { core().advance(cycles); }

  // -- point-to-point (blocking, eager) ------------------------------------
  static constexpr unsigned kAnySource = ~0u;
  static constexpr int kAnyTag = -1;

  void send(unsigned dst, std::span<const std::byte> data, int tag = 0);
  /// Receives into `out`; the message must be exactly out.size() bytes.
  void recv(unsigned src, std::span<std::byte> out, int tag = 0);

  template <typename T>
  void send_values(unsigned dst, std::span<const T> vals, int tag = 0) {
    send(dst, std::as_bytes(vals), tag);
  }
  template <typename T>
  void recv_values(unsigned src, std::span<T> vals, int tag = 0) {
    recv(src, std::as_writable_bytes(vals), tag);
  }

  /// Paired exchange with a partner rank (deadlock-free).
  void sendrecv(unsigned peer, std::span<const std::byte> out,
                std::span<std::byte> in, int tag = 0);

  // -- collectives ------------------------------------------------------------
  void barrier();
  void bcast(std::span<std::byte> data, unsigned root = 0);
  void allreduce_sum(std::span<double> inout);
  [[nodiscard]] double allreduce_sum(double v);
  [[nodiscard]] u64 allreduce_sum(u64 v);
  [[nodiscard]] double allreduce_max(double v);
  /// Each rank contributes size()*chunk bytes and receives size()*chunk
  /// bytes; block i of `send` goes to rank i's block rank() of `recv`.
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                u64 chunk);
  /// Gather `mine` (chunk bytes) from every rank into `all` (size()*chunk).
  void allgather(std::span<const std::byte> mine, std::span<std::byte> all);

 private:
  friend class Machine;

  void yield() {
    pulse_node();
    machine_.yield_rank(rank_);
  }
  /// Pulse the node's pacer and charge the modeled bill it hands over to
  /// this rank's core.
  void pulse_node();
  /// touch() without the cooperative yield (for use inside loop()/send()).
  void touch_no_yield(const MemRange& range, double overlap);
  /// Emit a per-rank-slot system event.
  void sys_event(isa::SysEvent e, u64 count = 1);
  /// Wait until `t` (if in the future), attributing it to MPI wait.
  void wait_until(cycles_t t);
  /// Intra-node transfer cost per byte is memory-system bound; inter-node
  /// goes over the torus.
  [[nodiscard]] cycles_t transfer_cycles(unsigned peer_node, u64 bytes) const;
  /// Tree-collective latency; under FT the tree is pruned to the live
  /// nodes of the (possibly shrunk) communicator.
  [[nodiscard]] cycles_t coll_op_cycles(u64 bytes) const;
  /// Barrier-network latency with the same FT pruning.
  [[nodiscard]] cycles_t barrier_latency() const;
  /// The one reduction: folds every present member's `inout`, in rank
  /// order, element by element into `identity` with `op`, and hands the
  /// result to every member.
  template <typename T, typename Op>
  void allreduce(std::span<T> inout, int kind, T identity, Op op);

  Machine& machine_;
  unsigned rank_;
  sys::Placement placement_;
  addr_t alloc_next_;
  addr_t alloc_limit_;
};

}  // namespace bgp::rt
