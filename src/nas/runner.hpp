// One instrumented benchmark run, described once and executed once.
//
// RunSpec is the whole description of a run: the machine, the trace and
// flight-recorder configurations, the workload, the fault plan and the FT
// parameters. bgpc_run and bgpc_trace fill it from their shared flags
// (cli::add_run_flags), bgpcd from its job-spec JSON (daemon::JobSpec),
// the harnesses and examples in code. Run turns it into the paper's job
// sequence: build the machine, link the interface library into "MPI", run
// the kernel, dump. run_benchmark adds the dump sanity check and the
// standard metrics record on top.
#pragma once

#include <filesystem>
#include <memory>

#include "core/session.hpp"
#include "fault/fault.hpp"
#include "ft/ftypes.hpp"
#include "nas/kernel.hpp"
#include "postproc/report.hpp"

namespace bgp::nas {

struct RunSpec {
  Benchmark bench = Benchmark::kCG;
  ProblemClass cls = ProblemClass::kS;
  rt::MachineConfig machine{};
  /// Node deaths drawn from `fault_seed` (fault::FaultPlan::random).
  unsigned deaths = 0;
  u64 fault_seed = 1;
  /// ULFM-style survivor recovery. Disabled, a node death aborts its ranks
  /// and strands blocked peers; enabled, the kernel runs guarded and the
  /// survivors recover, finalize and dump.
  ft::FtParams ft{};
  trace::TraceConfig trace{};
  obs::ObsConfig obs{};

  /// Ranks the run uses (after mode and override resolution).
  [[nodiscard]] unsigned effective_ranks() const noexcept {
    const unsigned capacity =
        machine.num_nodes * sys::processes_per_node(machine.mode);
    return machine.num_ranks_override == 0 ? capacity
                                           : machine.num_ranks_override;
  }

  bool operator==(const RunSpec&) const = default;
};

/// What Run::execute() observed.
struct RunResult {
  /// A stop request ended the run early; the open traces were sealed and
  /// every node that had not finalized wrote a checkpoint dump.
  bool stopped = false;
  KernelResult kernel;  ///< the kernel's own verification
  std::vector<unsigned> dead_nodes;
  /// An FT run that lost nodes cannot verify: the dead ranks never
  /// contributed. It succeeds when every survivor dumped cleanly.
  bool degraded = false;
  bool survivors_dumped = false;

  [[nodiscard]] bool ok() const noexcept {
    return !stopped && (degraded ? survivors_dumped : kernel.verified);
  }
};

class Run {
 public:
  /// Build the machine, the deaths-only fault plan, the session (linked
  /// into MPI) and the kernel. Dumps, traces and span files go to
  /// `out_dir`, which is created; an empty `out_dir` keeps the dumps in
  /// memory (pc::Session::dumps()).
  explicit Run(const RunSpec& spec, const std::filesystem::path& out_dir = {});
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// The handle a stop request (Machine::request_stop) or a snapshot
  /// publisher attaches to before execute().
  [[nodiscard]] rt::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] pc::Session& session() noexcept { return session_; }

  /// Run the kernel on every rank inside the `region.<APP>` span, plain or
  /// FT-guarded. On a stop request, seal the traces and write the
  /// checkpoint dumps instead of finishing.
  RunResult execute();

 private:
  RunSpec spec_;
  fault::FaultInjector injector_;
  rt::Machine machine_;
  pc::Session session_;
  std::unique_ptr<Kernel> kernel_;
};

struct RunOutput {
  std::vector<pc::NodeDump> dumps;  ///< per-node counter dumps
  cycles_t elapsed = 0;             ///< wall clock of the slowest node
  KernelResult result;              ///< kernel verification outcome
  post::AppRecord record;           ///< standard metrics (paper §IV)
};

/// Run one benchmark with its dumps in memory and post-process the
/// counters; throws when the dumps fail the sanity check.
[[nodiscard]] RunOutput run_benchmark(const RunSpec& spec);

}  // namespace bgp::nas
