#include "obs/obs.hpp"

#include <algorithm>

namespace bgp::obs {

std::string_view to_string(CollOp op) noexcept {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAlltoall: return "alltoall";
    case CollOp::kAllgather: return "allgather";
  }
  return "barrier";
}

void set_recorder(FlightRecorder* fr) noexcept { detail::g_recorder = fr; }

Histogram* collective_histogram(CollOp op) noexcept {
  FlightRecorder* fr = recorder();
  if (fr == nullptr) return nullptr;
  return fr->wk().coll_cycles[static_cast<unsigned>(op)];
}

FlightRecorder::FlightRecorder(unsigned nodes, unsigned cores_per_node,
                               ObsConfig config)
    : config_(config),
      nodes_(nodes),
      cores_per_node_(cores_per_node),
      epoch_(std::chrono::steady_clock::now()) {
  recorders_.reserve(std::size_t{nodes} * cores_per_node);
  for (unsigned n = 0; n < nodes; ++n) {
    for (unsigned c = 0; c < cores_per_node; ++c) {
      recorders_.emplace_back(n, c, config_.span_capacity, epoch_);
    }
  }

  const auto call = [&](const char* which) -> Counter* {
    return &metrics_.counter("bgpc_upc_calls_total",
                             "Interface-library calls by entry point",
                             {{"call", which}});
  };
  wk_.upc_initialize_calls = call("initialize");
  wk_.upc_start_calls = call("start");
  wk_.upc_stop_calls = call("stop");
  wk_.upc_finalize_calls = call("finalize");
  wk_.upc_overhead_cycles = &metrics_.counter(
      "bgpc_upc_overhead_cycles_total",
      "Simulated cycles charged for interface-library overhead");
  wk_.dump_writes = &metrics_.counter(
      "bgpc_dump_writes_total", "Counter dump files written (attempted)");
  wk_.dump_bytes = &metrics_.counter("bgpc_dump_bytes_total",
                                     "Serialized counter-dump bytes written");
  wk_.dump_retries = &metrics_.counter(
      "bgpc_dump_write_retries_total",
      "Extra dump-write attempts after injected I/O errors");
  wk_.dump_failures = &metrics_.counter(
      "bgpc_dump_write_failures_total",
      "Node dumps lost after the retry budget ran out");
  wk_.trace_seals = &metrics_.counter("bgpc_trace_seals_total",
                                      "Time-series trace files sealed");
  wk_.trace_samples = &metrics_.counter(
      "bgpc_trace_samples_total", "Counter samples taken by the tracer");
  wk_.trace_intervals = &metrics_.counter(
      "bgpc_trace_intervals_total", "Trace interval records written");
  wk_.trace_drops = &metrics_.counter(
      "bgpc_trace_dropped_total",
      "Trace intervals lost before reaching the file (always 0)");
  wk_.rank_deaths = &metrics_.counter("bgpc_rank_deaths_total",
                                      "Ranks killed by injected node deaths");
  wk_.ranks_stranded = &metrics_.counter(
      "bgpc_ranks_stranded_total",
      "Ranks stranded by a peer's death (no FT recovery)");
  wk_.deaths_detected = &metrics_.counter(
      "bgpc_deaths_detected_total", "Node deaths detected by a survivor");
  const auto phase = [&](const char* which) -> Counter* {
    return &metrics_.counter("bgpc_ft_recovery_phases_total",
                             "Completed FT recovery phases by kind",
                             {{"phase", which}});
  };
  wk_.ft_revokes = phase("revoke");
  wk_.ft_agreements = phase("agree");
  wk_.ft_shrinks = phase("shrink");
  wk_.coll_ops = &metrics_.counter("bgpc_coll_operations_total",
                                   "Collective-network operations");
  wk_.coll_bytes = &metrics_.counter("bgpc_coll_bytes_total",
                                     "Bytes moved by collective operations");
  wk_.barrier_entries = &metrics_.counter("bgpc_barrier_entries_total",
                                          "Barrier-network entries");
  wk_.spans_recorded = &metrics_.gauge(
      "bgpc_obs_spans_recorded", "Spans completed across all rank recorders");
  wk_.spans_dropped = &metrics_.gauge(
      "bgpc_obs_spans_dropped", "Spans evicted from full rank rings");

  // Collective latency in simulated cycles; bounds sized for the modeled
  // tree/barrier network latencies (thousands of cycles at 850 MHz).
  const std::vector<double> bounds = {1e3, 2e3, 4e3,   8e3,   16e3,
                                      32e3, 64e3, 128e3, 256e3, 1e6};
  for (unsigned i = 0; i < kNumCollOps; ++i) {
    wk_.coll_cycles[i] = &metrics_.histogram(
        "bgpc_coll_latency_cycles",
        "Observed collective duration (entry to completion) by kind", bounds,
        {{"kind", std::string(to_string(static_cast<CollOp>(i)))}});
  }
}

void FlightRecorder::update_self_metrics() {
  u64 recorded = 0, dropped = 0;
  for (const SpanRecorder& r : recorders_) {
    recorded += r.spans_total();
    dropped += r.spans_dropped();
  }
  wk_.spans_recorded->set(static_cast<double>(recorded));
  wk_.spans_dropped->set(static_cast<double>(dropped));
}

namespace {

void order_spans(std::vector<SpanRec>& spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     if (a.begin_cycles != b.begin_cycles) {
                       return a.begin_cycles < b.begin_cycles;
                     }
                     // An enclosing span begins with (or before) its
                     // children but completes after them; parents first.
                     return a.depth < b.depth;
                   });
}

void order_instants(std::vector<InstantRec>& instants) {
  std::stable_sort(instants.begin(), instants.end(),
                   [](const InstantRec& a, const InstantRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     return a.cycles < b.cycles;
                   });
}

}  // namespace

std::vector<SpanRec> FlightRecorder::all_spans() const {
  std::vector<SpanRec> out;
  for (const SpanRecorder& r : recorders_) {
    out.insert(out.end(), r.spans().begin(), r.spans().end());
  }
  order_spans(out);
  return out;
}

std::vector<InstantRec> FlightRecorder::all_instants() const {
  std::vector<InstantRec> out;
  for (const SpanRecorder& r : recorders_) {
    out.insert(out.end(), r.instants().begin(), r.instants().end());
  }
  order_instants(out);
  return out;
}

std::vector<SpanRec> FlightRecorder::node_spans(unsigned node) const {
  std::vector<SpanRec> out;
  for (unsigned c = 0; c < cores_per_node_; ++c) {
    const auto& spans = rank(node, c).spans();
    out.insert(out.end(), spans.begin(), spans.end());
  }
  order_spans(out);
  return out;
}

std::vector<InstantRec> FlightRecorder::node_instants(unsigned node) const {
  std::vector<InstantRec> out;
  for (unsigned c = 0; c < cores_per_node_; ++c) {
    const auto& instants = rank(node, c).instants();
    out.insert(out.end(), instants.begin(), instants.end());
  }
  order_instants(out);
  return out;
}

u64 FlightRecorder::spans_dropped() const noexcept {
  u64 dropped = 0;
  for (const SpanRecorder& r : recorders_) dropped += r.spans_dropped();
  return dropped;
}

}  // namespace bgp::obs
