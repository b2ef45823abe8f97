#include "nas/runner.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "ft/ftcomm.hpp"
#include "postproc/sanity.hpp"
#include "runtime/obs_scope.hpp"

namespace bgp::nas {

namespace {

pc::Options session_options(const RunSpec& spec,
                            const std::filesystem::path& out_dir) {
  pc::Options opts;
  opts.app_name = std::string(name(spec.bench));
  opts.trace = spec.trace;
  opts.obs = spec.obs;
  if (out_dir.empty()) {
    opts.write_dumps = false;
  } else {
    std::filesystem::create_directories(out_dir);
    opts.dump_dir = out_dir;
    opts.trace.trace_dir = out_dir;
  }
  return opts;
}

fault::FaultPlan deaths_plan(const RunSpec& spec) {
  fault::FaultSpec fs;
  fs.node_deaths = spec.deaths;
  return fault::FaultPlan::random(spec.fault_seed, spec.machine.num_nodes, fs);
}

}  // namespace

Run::Run(const RunSpec& spec, const std::filesystem::path& out_dir)
    : spec_(spec),
      injector_(deaths_plan(spec)),
      machine_(spec.machine),
      session_(machine_, session_options(spec, out_dir)),
      kernel_(make_kernel(spec.bench, spec.cls)) {
  if (spec_.deaths > 0) machine_.set_fault_injector(&injector_);
  machine_.set_ft_params(spec_.ft);
  session_.link_with_mpi();
}

RunResult Run::execute() {
  const std::string region = "region." + session_.options().app_name;
  RunResult r;
  try {
    if (spec_.ft.enabled) {
      machine_.run([&](rt::RankCtx& ctx) {
        ft::run_guarded(ctx, [&](rt::RankCtx& c) {
          c.mpi_init();
          rt::ObsScope span(c, region, obs::SpanCat::kRegion);
          kernel_->run(c);
        });
        ft::finalize_guarded(ctx);
      });
    } else {
      machine_.run([&](rt::RankCtx& ctx) {
        ctx.mpi_init();
        {
          rt::ObsScope span(ctx, region, obs::SpanCat::kRegion);
          kernel_->run(ctx);
        }
        ctx.mpi_finalize();
      });
    }
  } catch (const rt::RunStopped&) {
    // Interrupted: seal what was recording and checkpoint-dump every
    // initialized node through the atomic write path, so the partial run
    // stays minable.
    r.stopped = true;
    session_.seal_all_traces();
    session_.checkpoint_dump();
  }
  r.kernel = kernel_->result();
  r.dead_nodes = machine_.dead_nodes();
  r.degraded = spec_.ft.enabled && !r.dead_nodes.empty();
  bool writes_ok = true;
  for (const pc::DumpWriteOutcome& o : session_.write_outcomes()) {
    writes_ok = writes_ok && o.ok;
  }
  r.survivors_dumped = writes_ok && session_.dumps().size() ==
                                        spec_.machine.num_nodes -
                                            r.dead_nodes.size();
  return r;
}

RunOutput run_benchmark(const RunSpec& spec) {
  Run run(spec);
  const RunResult r = run.execute();

  RunOutput out;
  out.dumps = run.session().dumps();
  out.elapsed = run.machine().elapsed();
  out.result = r.kernel;
  if (!out.result.verified) {
    log_warn("%s class %s: verification FAILED: %s",
             std::string(name(spec.bench)).c_str(),
             std::string(name(spec.cls)).c_str(), out.result.detail.c_str());
  }
  const auto sanity = post::check(out.dumps);
  if (!sanity.ok()) {
    throw std::runtime_error("counter dump sanity check failed: " +
                             sanity.problems.front().text);
  }
  const post::Aggregate agg(out.dumps, 0);
  out.record = post::make_record(run.session().options().app_name, agg);
  out.record.nodes_expected = spec.machine.num_nodes;
  out.record.nodes_mined = static_cast<unsigned>(out.dumps.size());
  out.record.nodes_failed = static_cast<unsigned>(r.dead_nodes.size());
  return out;
}

}  // namespace bgp::nas
