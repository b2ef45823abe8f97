#include "postproc/report.hpp"

#include "common/strfmt.hpp"

namespace bgp::post {

AppRecord make_record(const std::string& app, const Aggregate& agg) {
  AppRecord rec;
  rec.app = app;
  rec.exec_cycles = mean_exec_cycles(agg);
  rec.mflops_per_node = mean_mflops_per_node(agg);
  rec.ddr_traffic_bytes = mean_ddr_traffic_bytes(agg);
  rec.ddr_bandwidth_bytes_per_cycle = mean_ddr_bandwidth(agg);
  rec.l3_read_miss_ratio = l3_read_miss_ratio(agg);
  rec.fp = fp_profile(agg);
  rec.ls = ls_profile(agg);
  return rec;
}

void write_metrics_csv(CsvWriter& csv, const std::vector<AppRecord>& records) {
  std::vector<std::string> header{
      "app",          "exec_cycles",      "mflops_per_node",
      "ddr_bytes",    "ddr_bytes_per_cyc", "l3_read_miss_ratio",
      "nodes_expected", "nodes_mined",    "nodes_failed",
  };
  for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
    header.push_back(std::string(isa::to_string(static_cast<isa::FpOp>(i))));
  }
  csv.header(header);
  for (const AppRecord& r : records) {
    std::vector<std::string> row{
        r.app,
        strfmt("%.0f", r.exec_cycles),
        strfmt("%.2f", r.mflops_per_node),
        strfmt("%.0f", r.ddr_traffic_bytes),
        strfmt("%.4f", r.ddr_bandwidth_bytes_per_cycle),
        strfmt("%.4f", r.l3_read_miss_ratio),
        strfmt("%u", r.nodes_expected),
        strfmt("%u", r.nodes_mined),
        strfmt("%u", r.nodes_failed),
    };
    for (double c : r.fp.counts) row.push_back(strfmt("%.0f", c));
    csv.row(row);
  }
}

void write_counter_stats_csv(CsvWriter& csv, const Aggregate& agg) {
  csv.header({"event_id", "event", "unit", "nodes", "min", "max", "mean"});
  for (u16 id = 0; id < isa::kNumEvents; ++id) {
    const RunningStats& s = agg.stats(id);
    if (s.count() == 0) continue;
    const isa::EventInfo& info = isa::event_info(id);
    if (info.unit == isa::Unit::kReserved && s.max() == 0) continue;
    csv.row({strfmt("%u", id), std::string(info.name),
             std::string(isa::to_string(info.unit)),
             strfmt("%llu", static_cast<unsigned long long>(s.count())),
             strfmt("%.0f", s.min()), strfmt("%.0f", s.max()),
             strfmt("%.2f", s.mean())});
  }
}

void write_full_csv(CsvWriter& csv, const std::vector<pc::NodeDump>& dumps,
                    unsigned set) {
  csv.header({"node", "card", "mode", "set", "counter", "event", "value"});
  for (const pc::NodeDump& d : dumps) {
    const pc::SetDump* s = Aggregate::find_set(d, set);
    if (s == nullptr) continue;
    for (unsigned c = 0; c < isa::kCountersPerUnit; ++c) {
      const isa::EventInfo& info = isa::event_info(d.event_of(c));
      if (info.unit == isa::Unit::kReserved && s->deltas[c] == 0) continue;
      csv.row({strfmt("%u", d.node_id), strfmt("%u", d.card_id),
               strfmt("%u", d.counter_mode), strfmt("%u", s->set_id),
               strfmt("%u", c), std::string(info.name),
               strfmt("%llu", static_cast<unsigned long long>(s->deltas[c]))});
    }
  }
}

}  // namespace bgp::post
