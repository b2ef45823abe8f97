// IS — the NAS Integer Sort kernel. Keys are generated with the NAS
// floating-point LCG (averaging four deviates, as NPB does, to get the
// characteristic non-uniform key distribution), bucketized across ranks,
// exchanged with an all-to-all, and counting-sorted locally; verification
// checks global sortedness and key conservation every repetition.
//
// Paper characteristics reproduced: almost no FP work (what FP there is
// comes from the key generator), random-access stress on the memory system
// (Fig 12: IS DDR traffic grows >4x in VNM due to cache interference).
#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "nas/kernel.hpp"

namespace bgp::nas {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

struct IsSize {
  u64 keys_per_rank;
  u32 key_log2;  ///< keys uniform-ish in [0, 2^key_log2)
  unsigned repetitions;
};

IsSize size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {4096, 14, 2};
    case ProblemClass::kW: return {32768, 22, 3};
    case ProblemClass::kA: return {65536, 24, 3};
  }
  return {4096, 14, 2};
}

LoopDesc keygen_loop(u64 keys) {
  LoopDesc d;
  d.name = "is_keygen";
  d.trip = keys;
  // Four randlc steps per key + averaging + scale to the key range.
  d.body.fp_at(FpOp::kMult) = 21;
  d.body.fp_at(FpOp::kFma) = 16;
  d.body.fp_at(FpOp::kAddSub) = 5;
  d.body.ls_at(LsOp::kStoreSingle) = 1;  // 4-byte key store
  d.body.int_at(IntOp::kAlu) = 4;
  d.body.int_at(IntOp::kBranch) = 1;
  d.body.int_at(IntOp::kCall) = 1;
  d.vectorizable = 0.1;
  d.has_calls = true;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

LoopDesc bucket_count_loop(u64 keys) {
  LoopDesc d;
  d.name = "is_bucket_count";
  d.trip = keys;
  d.body.ls_at(LsOp::kLoadSingle) = 2;
  d.body.ls_at(LsOp::kStoreSingle) = 1;
  d.body.int_at(IntOp::kAlu) = 5;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 0.0;  // data-dependent scatter
  d.locality = isa::LocalityClass::kRandom;
  return d;
}

LoopDesc counting_sort_loop(u64 keys) {
  LoopDesc d;
  d.name = "is_counting_sort";
  d.trip = keys;
  d.body.ls_at(LsOp::kLoadSingle) = 2;
  d.body.ls_at(LsOp::kStoreSingle) = 1;
  d.body.int_at(IntOp::kAlu) = 4;
  d.body.int_at(IntOp::kBranch) = 1;
  d.body.fp_at(FpOp::kFma) = 1;  // rank-weight accumulation (NPB partial verify)
  d.vectorizable = 0.0;
  d.locality = isa::LocalityClass::kRandom;
  return d;
}

class IsKernel final : public Kernel {
 public:
  explicit IsKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kIS;
  }

  void run(rt::RankCtx& ctx) const override {
    const IsSize sz = size_of(class_);
    const unsigned p = ctx.size();
    const u64 max_key = u64{1} << sz.key_log2;

    auto keys = ctx.alloc<u32>(sz.keys_per_rank);
    // Local counting-sort workspace covering this rank's key sub-range.
    const Block my_range = block_of(max_key, p, ctx.rank());
    auto counts = ctx.alloc<u32>(std::max<u64>(my_range.size(), 1));

    NasRng rng(NasRng::jump(314159265.0, NasRng::kDefaultA,
                            u64{ctx.rank()} * sz.keys_per_rank * 4));

    bool all_ok = true;
    std::string fail;

    for (unsigned rep = 0; rep < sz.repetitions && all_ok; ++rep) {
      // ---- key generation (FP LCG, like NPB's create_seq) ----------------
      for (u64 i = 0; i < sz.keys_per_rank; ++i) {
        const double r =
            (rng.next() + rng.next() + rng.next() + rng.next()) / 4.0;
        keys[i] = static_cast<u32>(r * static_cast<double>(max_key));
      }
      ctx.loop(keygen_loop(sz.keys_per_rank),
               {rt::MemRange{keys.addr(), keys.bytes(), true}});

      // ---- bucketize per destination rank --------------------------------
      std::vector<std::vector<u32>> outgoing(p);
      for (u64 i = 0; i < sz.keys_per_rank; ++i) {
        // Destination owns the key's sub-range (balanced block split).
        const unsigned dest = static_cast<unsigned>(
            std::min<u64>(p - 1, u64{keys[i]} * p / max_key));
        // Block split is uneven by remainder; fix up around the boundary.
        unsigned d = dest;
        while (keys[i] < block_of(max_key, p, d).begin) --d;
        while (keys[i] >= block_of(max_key, p, d).end) ++d;
        outgoing[d].push_back(keys[i]);
      }
      ctx.loop(bucket_count_loop(sz.keys_per_rank),
               {rt::MemRange{keys.addr(), keys.bytes(), false}});

      // ---- exchange -------------------------------------------------------
      std::vector<std::vector<u32>> incoming;
      alltoallv_values(ctx, outgoing, incoming);

      // ---- local counting sort over this rank's key sub-range ------------
      counts.fill(0);
      u64 received = 0;
      // The scatter into `counts` is the benchmark's signature random-access
      // pattern; drive the cache model with the real indices.
      std::vector<u32> scatter_indices;
      for (const auto& blk : incoming) {
        for (u32 k : blk) {
          counts[k - my_range.begin]++;
          scatter_indices.push_back(static_cast<u32>(k - my_range.begin));
          ++received;
        }
      }
      ctx.gather(counts.addr(), scatter_indices, sizeof(u32), /*write=*/true);
      ctx.loop(counting_sort_loop(received));

      // Reconstruct the sorted keys (prefix-sum sweep over counts).
      std::vector<u32> sorted;
      sorted.reserve(received);
      for (u64 v = 0; v < my_range.size(); ++v) {
        for (u32 c = 0; c < counts[v]; ++c) {
          sorted.push_back(static_cast<u32>(my_range.begin + v));
        }
      }
      ctx.touch(rt::MemRange{counts.addr(), counts.bytes(), false}, 3.0);

      // ---- verification ----------------------------------------------------
      // (a) conservation: total keys preserved.
      const u64 total = ctx.allreduce_sum(received);
      // (b) global sortedness: my max <= right neighbour's min.
      double left_max = -1.0;
      const double my_max =
          sorted.empty() ? -1.0 : static_cast<double>(sorted.back());
      const double my_min = sorted.empty()
                                ? static_cast<double>(max_key)
                                : static_cast<double>(sorted.front());
      if (p > 1) {
        if (ctx.rank() + 1 < p) {
          ctx.send_values<double>(ctx.rank() + 1, std::span(&my_max, 1), 42);
        }
        if (ctx.rank() > 0) {
          ctx.recv_values<double>(ctx.rank() - 1, std::span(&left_max, 1), 42);
        }
      }
      const bool locally_sorted = std::is_sorted(sorted.begin(), sorted.end());
      const bool boundary_ok = left_max <= my_min || sorted.empty();
      const double bad =
          ctx.allreduce_sum((locally_sorted && boundary_ok) ? 0.0 : 1.0);

      if (ctx.rank() == 0) {
        const u64 expect = sz.keys_per_rank * p;
        if (total != expect || bad != 0.0) {
          all_ok = false;
          fail = strfmt("rep %u: total=%llu expect=%llu bad_ranks=%.0f", rep,
                        static_cast<unsigned long long>(total),
                        static_cast<unsigned long long>(expect), bad);
        }
      }
      // Everyone must agree on continuing.
      all_ok = ctx.allreduce_sum(all_ok ? 0.0 : 1.0) == 0.0;
    }

    if (ctx.rank() == 0) {
      record(all_ok, all_ok ? strfmt("%u repetitions sorted", sz.repetitions)
                            : fail);
    }
  }
};

}  // namespace

std::unique_ptr<Kernel> make_is(ProblemClass cls) {
  return std::make_unique<IsKernel>(cls);
}

}  // namespace bgp::nas
