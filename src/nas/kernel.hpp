// From-scratch implementations of the NAS Parallel Benchmark kernels used
// by the paper (§V): MG, FT, EP, CG, IS, LU, SP and BT. Each kernel runs
// *real numerics on real data* (verified by its own checks, mirroring the
// NPB verification stage) while driving the simulated chip: loop-level op
// bundles go through the compiler model to the core, and the actual array
// address streams go through the cache hierarchy.
//
// Problem sizing is weak-scaling: each rank owns a footprint set by the
// problem class, so a Virtual Node Mode node carries 4x the footprint of an
// SMP/1 node — the same relationship the paper's class C runs had.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/rankctx.hpp"

namespace bgp::nas {

enum class Benchmark : u8 { kEP = 0, kCG, kMG, kFT, kIS, kLU, kSP, kBT };

[[nodiscard]] std::string_view name(Benchmark b) noexcept;
[[nodiscard]] Benchmark parse_benchmark(std::string_view s);
[[nodiscard]] const std::vector<Benchmark>& all_benchmarks();

/// Problem classes (scaled-down analogues of the NPB classes):
///   kS — seconds-fast sanity size for unit tests (~64 KB per rank)
///   kW — bench default (~1 MB per rank: 4 MB per VNM node, the Fig 11 knee)
///   kA — larger (~2.5 MB per rank)
enum class ProblemClass : u8 { kS = 0, kW, kA };

[[nodiscard]] std::string_view name(ProblemClass c) noexcept;
[[nodiscard]] ProblemClass parse_class(std::string_view s);

/// Outcome of the kernel's built-in verification (NPB-style).
struct KernelResult {
  bool verified = false;
  std::string detail;
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual Benchmark id() const noexcept = 0;
  [[nodiscard]] ProblemClass problem_class() const noexcept { return class_; }

  /// The rank program. Called once per rank inside Machine::run, on one
  /// kernel object that every rank shares (and, with parallel workers,
  /// from several threads at once): per-rank state lives on the rank's
  /// stack. Rank 0 records the verification result.
  virtual void run(rt::RankCtx& ctx) const = 0;

  [[nodiscard]] const KernelResult& result() const noexcept { return result_; }

 protected:
  explicit Kernel(ProblemClass cls) noexcept : class_(cls) {}

  /// Record the global verification outcome (call from rank 0 only, the
  /// single writer; read after Machine::run returns).
  void record(bool ok, std::string detail) const {
    result_ = KernelResult{ok, std::move(detail)};
  }

  ProblemClass class_;

 private:
  mutable KernelResult result_;
};

/// Kernel factory.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(Benchmark b,
                                                  ProblemClass cls);

// ---- shared helpers ---------------------------------------------------------

/// Contiguous block decomposition of `total` items over `parts`.
struct Block {
  u64 begin = 0;
  u64 end = 0;
  [[nodiscard]] u64 size() const noexcept { return end - begin; }
};
[[nodiscard]] Block block_of(u64 total, unsigned parts, unsigned index);

/// Variable-size all-to-all built on the fixed-chunk primitive: each block
/// is padded to the global maximum block size plus a length prefix. `send`
/// and `recv` must have ctx.size() entries.
void alltoallv_padded(rt::RankCtx& ctx,
                      const std::vector<std::vector<std::byte>>& send,
                      std::vector<std::vector<std::byte>>& recv);

/// Typed convenience wrapper over alltoallv_padded.
template <typename T>
void alltoallv_values(rt::RankCtx& ctx,
                      const std::vector<std::vector<T>>& send,
                      std::vector<std::vector<T>>& recv) {
  std::vector<std::vector<std::byte>> sraw(send.size());
  for (std::size_t i = 0; i < send.size(); ++i) {
    const auto bytes = std::as_bytes(std::span(send[i]));
    sraw[i].assign(bytes.begin(), bytes.end());
  }
  std::vector<std::vector<std::byte>> rraw;
  alltoallv_padded(ctx, sraw, rraw);
  recv.assign(rraw.size(), {});
  for (std::size_t i = 0; i < rraw.size(); ++i) {
    recv[i].resize(rraw[i].size() / sizeof(T));
    if (!rraw[i].empty()) {  // empty blocks have no buffer to copy
      std::memcpy(recv[i].data(), rraw[i].data(), rraw[i].size());
    }
  }
}

}  // namespace bgp::nas
