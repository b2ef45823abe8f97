// CSV reporting (paper §IV): one metrics record per application, plus the
// optional full dumps — statistics of all monitored counters, or every
// counter value read on every node.
#pragma once

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "postproc/metrics.hpp"

namespace bgp::post {

/// The standard per-application metrics record. The coverage fields record
/// how much of the partition the record is based on: `nodes_mined <
/// nodes_expected` means the miner ran degraded (node deaths, lost or
/// corrupt dumps) and the averages come from the surviving quorum only.
/// `nodes_failed` counts nodes whose deaths the FT recovery log accounts
/// for — on a fully-recovered FT run, mined + failed == expected.
struct AppRecord {
  std::string app;
  double exec_cycles = 0;
  double mflops_per_node = 0;
  double ddr_traffic_bytes = 0;
  double ddr_bandwidth_bytes_per_cycle = 0;
  double l3_read_miss_ratio = 0;
  FpProfile fp;
  LsProfile ls;
  unsigned nodes_expected = 0;
  unsigned nodes_mined = 0;
  unsigned nodes_failed = 0;
};

/// Compute the standard record from aggregated dumps.
[[nodiscard]] AppRecord make_record(const std::string& app,
                                    const Aggregate& agg);

/// Append metric records, one row per application.
void write_metrics_csv(CsvWriter& csv, const std::vector<AppRecord>& records);

/// Per-counter statistics (min/max/mean over nodes) for all monitored
/// events of the aggregate.
void write_counter_stats_csv(CsvWriter& csv, const Aggregate& agg);

/// Every counter value read on every node (the "one massive .csv file").
void write_full_csv(CsvWriter& csv, const std::vector<pc::NodeDump>& dumps,
                    unsigned set = 0);

}  // namespace bgp::post
