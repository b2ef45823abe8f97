#include "core/session.hpp"

#include <algorithm>
#include <system_error>

#include "common/binio.hpp"
#include "common/log.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"
#include "obs/span_io.hpp"
#include "runtime/obs_scope.hpp"

namespace bgp::pc {

namespace {

void charge(rt::RankCtx& ctx, cycles_t cycles) {
  ctx.compute_cycles(cycles);
  ctx.node().upc().signal(
      isa::ev::system(isa::SysEvent::kUpcOverheadCycles, ctx.core_id()),
      cycles);
}

}  // namespace

Session::Session(rt::Machine& machine, Options options)
    : machine_(machine), options_(std::move(options)) {
  const unsigned n = machine.partition().num_nodes();
  monitors_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    monitors_.push_back(std::make_unique<NodeMonitor>(
        machine.partition().node(i), options_));
  }
  tracers_.resize(n);
  finalize_calls_.assign(n, 0);
  dumps_.reserve(n);
  if (options_.obs.enabled) {
    recorder_ = std::make_unique<obs::FlightRecorder>(n, isa::kCoresPerNode,
                                                      options_.obs);
    // First session wins the process-wide slot; a second concurrent
    // session keeps its (idle) recorder but records nothing.
    if (obs::recorder() == nullptr) {
      obs::set_recorder(recorder_.get());
      installed_recorder_ = true;
    }
  }
}

Session::~Session() {
  if (installed_recorder_) obs::set_recorder(nullptr);
}

void Session::attach_tracer(unsigned node) {
  if (!options_.trace.enabled || tracers_[node] != nullptr) return;
  tracers_[node] = std::make_unique<trace::NodeTracer>(
      machine_.partition().node(node), options_.trace, options_.app_name,
      monitors_[node]->programmed_mode());
}

void Session::BGP_Initialize(rt::RankCtx& ctx) {
  {
    rt::ObsScope span(ctx, "upc.initialize", obs::SpanCat::kUpc);
    charge(ctx, kInitOverhead);
    monitors_[ctx.node_id()]->initialize();
  }
  attach_tracer(ctx.node_id());
  if (auto* fr = obs::recorder()) {
    fr->wk().upc_initialize_calls->add(1);
    fr->wk().upc_overhead_cycles->add(kInitOverhead);
  }
}

void Session::BGP_Start(rt::RankCtx& ctx, unsigned set) {
  {
    rt::ObsScope span(ctx, "upc.start", obs::SpanCat::kUpc);
    charge(ctx, kStartOverhead);
    ctx.node().upc().signal(
        isa::ev::system(isa::SysEvent::kUpcStartCalls, ctx.core_id()));
    monitors_[ctx.node_id()]->start(set, ctx.now());
  }
  ctx.node().pacer().start();
  if (auto* fr = obs::recorder()) {
    fr->wk().upc_start_calls->add(1);
    fr->wk().upc_overhead_cycles->add(kStartOverhead);
  }
}

void Session::BGP_Stop(rt::RankCtx& ctx, unsigned set) {
  {
    rt::ObsScope span(ctx, "upc.stop", obs::SpanCat::kUpc);
    charge(ctx, kStopOverhead);
    ctx.node().upc().signal(
        isa::ev::system(isa::SysEvent::kUpcStopCalls, ctx.core_id()));
    monitors_[ctx.node_id()]->stop(set, ctx.now());
  }
  if (auto* fr = obs::recorder()) {
    fr->wk().upc_stop_calls->add(1);
    fr->wk().upc_overhead_cycles->add(kStopOverhead);
  }
}

void Session::BGP_Finalize(rt::RankCtx& ctx) {
  const unsigned node = ctx.node_id();
  bool node_done = false;
  {
    rt::ObsScope span(ctx, "upc.finalize", obs::SpanCat::kUpc);
    node_done = finalize_node(ctx);
  }
  if (auto* fr = obs::recorder()) {
    fr->wk().upc_finalize_calls->add(1);
    fr->wk().upc_overhead_cycles->add(kFinalizeOverhead);
  }
  // Written after the finalize span closed so the file carries it too.
  if (node_done) write_node_spans(node);
}

bool Session::finalize_node(rt::RankCtx& ctx) {
  // Dumping happens once per node, when its last local rank finalizes.
  const unsigned node = ctx.node_id();
  const unsigned ppn = sys::processes_per_node(machine_.partition().mode());
  const unsigned local_ranks = std::min(ppn, machine_.num_ranks() - node * ppn);
  charge(ctx, kFinalizeOverhead);
  if (++finalize_calls_[node] < local_ranks) {
    return false;
  }
  NodeDump dump = monitors_[node]->finalize();
  if (machine_.ft_params().enabled) {
    // Survivors carry the recovery log (who died, when detected, what the
    // revoke/agree/shrink steps cost) so the miner can account for the
    // missing nodes; serialize() upgrades such dumps to format v3.
    dump.recovery = machine_.recovery_log();
  }
  dumps_.push_back(dump);

  if (tracers_[node] != nullptr && !tracers_[node]->sealed()) {
    // Seal the trace (footer + rename) before the dump write; the node
    // survived to finalize, so its timeline is complete.
    rt::ObsScope span(ctx, "trace.seal", obs::SpanCat::kTrace);
    seal_trace(node);
  }

  if (!options_.write_dumps) {
    return true;
  }

  rt::ObsScope write_span(ctx, "dump.write", obs::SpanCat::kDump);
  write_dump_file(dump, node);
  return true;
}

DumpWriteOutcome Session::write_dump_file(const NodeDump& dump,
                                          unsigned node) {
  auto bytes = NodeMonitor::serialize(dump);
  DumpWriteOutcome outcome;
  outcome.node = node;
  outcome.path = options_.dump_dir /
                 strfmt("%s.node%04u.bgpc", options_.app_name.c_str(), node);
  if (options_.fault != nullptr) {
    // Silent data corruption (torn write / bit rot) mutates the bytes but
    // reports success — exactly the case the v2 section CRCs exist for.
    outcome.injected = options_.fault->corrupt_dump(node, bytes);
  }

  // Atomic publication: write a temp file, then rename over the final name,
  // so readers never observe a half-written .bgpc. Injected I/O errors are
  // retried with a bounded budget; a node whose budget runs out loses its
  // dump and the run continues (the miner handles the gap).
  std::filesystem::path tmp = outcome.path;
  tmp += ".tmp";
  for (unsigned attempt = 1; attempt <= options_.dump_write_retries + 1;
       ++attempt) {
    outcome.attempts = attempt;
    try {
      if (options_.fault != nullptr && options_.fault->next_write_fails(node)) {
        throw BinIoError(
            strfmt("injected I/O error writing %s", tmp.string().c_str()));
      }
      write_file_bytes(tmp, bytes);
      std::filesystem::rename(tmp, outcome.path);
      outcome.ok = true;
      outcome.error.clear();
      break;
    } catch (const std::exception& e) {
      outcome.error = e.what();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
    }
  }
  write_outcomes_.push_back(outcome);
  if (outcome.ok) {
    dump_files_.push_back(outcome.path);
    std::sort(dump_files_.begin(), dump_files_.end());
  }
  if (auto* fr = obs::recorder()) {
    fr->wk().dump_writes->add(1);
    fr->wk().dump_bytes->add(outcome.ok ? bytes.size() : 0);
    fr->wk().dump_retries->add(outcome.attempts - 1);
    if (!outcome.ok) fr->wk().dump_failures->add(1);
  }
  return outcome;
}

void Session::seal_trace(unsigned node) {
  TraceSealOutcome seal;
  seal.node = node;
  try {
    seal.path = tracers_[node]->seal();
    seal.ok = true;
    trace_files_.push_back(seal.path);
    std::sort(trace_files_.begin(), trace_files_.end());
  } catch (const std::exception& e) {
    seal.error = e.what();
  }
  trace_outcomes_.push_back(std::move(seal));
}

void Session::seal_all_traces() {
  for (unsigned node = 0; node < tracers_.size(); ++node) {
    if (tracers_[node] != nullptr && !tracers_[node]->sealed()) {
      seal_trace(node);
    }
  }
}

void Session::checkpoint_dump() {
  const unsigned ppn = sys::processes_per_node(machine_.partition().mode());
  const std::vector<unsigned> dead = machine_.dead_nodes();
  for (unsigned node = 0; node < monitors_.size(); ++node) {
    if (!monitors_[node]->initialized()) continue;
    const unsigned local_ranks =
        std::min(ppn, machine_.num_ranks() > node * ppn
                          ? machine_.num_ranks() - node * ppn
                          : 0u);
    if (local_ranks == 0) continue;
    if (finalize_calls_[node] >= local_ranks) continue;  // already dumped
    if (std::find(dead.begin(), dead.end(), node) != dead.end()) continue;
    monitors_[node]->force_stop_all(machine_.node_time(node));
    NodeDump dump = monitors_[node]->finalize();
    if (machine_.ft_params().enabled) {
      dump.recovery = machine_.recovery_log();
    }
    dumps_.push_back(dump);
    finalize_calls_[node] = local_ranks;  // idempotence: node is now dumped
    if (options_.write_dumps) write_dump_file(dump, node);
  }
}

void Session::write_node_spans(unsigned node) {
  // Only the session that owns the installed recorder has this node's
  // spans; skip otherwise.
  if (!installed_recorder_ || !options_.obs.write_spans) return;
  const auto path =
      obs::span_file_path(options_.dump_dir, options_.app_name, node);
  try {
    obs::write_span_file(path, options_.app_name, node, *recorder_);
    span_files_.push_back(path);
    std::sort(span_files_.begin(), span_files_.end());
  } catch (const std::exception& e) {
    log_warn("node %u: span file not written: %s", node, e.what());
  }
}

void Session::link_with_mpi(unsigned set) {
  machine_.set_mpi_hooks(rt::MpiHooks{
      .on_init =
          [this, set](rt::RankCtx& ctx) {
            BGP_Initialize(ctx);
            BGP_Start(ctx, set);
          },
      .on_finalize =
          [this, set](rt::RankCtx& ctx) {
            BGP_Stop(ctx, set);
            BGP_Finalize(ctx);
          },
  });
}

void Session::arm_threshold(rt::RankCtx& ctx, isa::EventId event,
                            u64 threshold) {
  auto& upc = ctx.node().upc();
  if (isa::event_mode(event) != upc.mode()) {
    return;  // this node's programmed mode does not cover the event
  }
  const u8 counter = isa::event_counter(event);
  upc::CounterConfig cfg = upc.config(counter);
  cfg.interrupt_enable = true;
  cfg.threshold = threshold;
  upc.configure(counter, cfg);
}

}  // namespace bgp::pc
