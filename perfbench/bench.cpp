// perfbench — end-to-end benchmark of the simulator, driven through its
// public API from one process: rt::Machine, pc::Session, nas::make_kernel /
// Kernel::run, RankCtx::mpi_init / mpi_finalize, post::check / Aggregate /
// make_record, post::mine and post::mine_timeline — the call sequence of
// nas::run_benchmark and bgpc_run.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --digests FILE
//             [--out-dir DIR] [--git-describe TEXT] [--smoke]
//             [--l3-mib M] [--write-digests]
//
// It repeats the workload until S seconds have passed (at least once, and
// an odd number of times when that fits) and prints each end-to-end
// metric's median over those iterations (peak RSS: through the first); the
// last stdout line is one JSON object. Every config run is checked against its
// pinned digest (CRC32 of the dumped counters plus Machine::elapsed()), so
// a speed number only counts when the counters it produced are unchanged.
// --trace 1 alternates untraced and traced iterations: the traced ones wrap
// every public call in a host-time span (plus the flight recorder at zero
// simulated overhead) and report the per-layer metrics instead.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "core/session.hpp"
#include "isa/ops.hpp"
#include "nas/kernel.hpp"
#include "postproc/aggregate.hpp"
#include "postproc/pipeline.hpp"
#include "postproc/report.hpp"
#include "postproc/sanity.hpp"
#include "postproc/timeline.hpp"
#include "runtime/obs_scope.hpp"
#include "spans.hpp"

using namespace bgp;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Untraced iterations set each config up this many times and keep the
/// median: one set-up takes milliseconds, so a single sample is noise.
constexpr int kSetupReps = 15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- workloads --------------------------------------------------------------

/// One simulator run: the inputs of nas::RunConfig plus the dispatcher and
/// whether time-series tracing writes dumps and traces to disk.
struct Config {
  std::string label;  ///< key of the pinned digest
  nas::Benchmark bench = nas::Benchmark::kEP;
  nas::ProblemClass cls = nas::ProblemClass::kW;
  unsigned nodes = 4;
  sys::OpMode mode = sys::OpMode::kVnm;
  u64 l3_bytes = sys::BootOptions{}.l3_size_bytes;
  unsigned ranks = 0;  ///< 0 = every rank the partition hosts
  rt::SchedMode sched = rt::MachineConfig{}.sched;
  unsigned jobs = 0;
  bool traced = false;
};

const std::vector<std::string> kWorkloads = {"cg_a16_par4", "mode_sweep",
                                             "mg_a4_traced"};

Config make_config(nas::Benchmark b, nas::ProblemClass cls, unsigned nodes,
                   sys::OpMode mode) {
  Config c;
  c.bench = b;
  c.cls = cls;
  c.nodes = nodes;
  c.mode = mode;
  // The paper runs SP and BT on the largest square rank count.
  if (b == nas::Benchmark::kSP || b == nas::Benchmark::kBT) {
    const unsigned total = nodes * sys::processes_per_node(mode);
    unsigned s = 1;
    while ((s + 1) * (s + 1) <= total) ++s;
    c.ranks = s * s;
  }
  return c;
}

std::string label_of(const Config& c) {
  std::string mode;  // "SMP/1" -> "smp1"
  for (const char ch : sys::to_string(c.mode)) {
    if (ch != '/') mode += static_cast<char>(std::tolower(ch));
  }
  std::string l = strfmt("%s.%s.%sx%u", std::string(nas::name(c.bench)).c_str(),
                         std::string(nas::name(c.cls)).c_str(), mode.c_str(),
                         c.nodes);
  if (c.l3_bytes != sys::BootOptions{}.l3_size_bytes) {
    l += strfmt(".l3_%lluKiB", static_cast<unsigned long long>(c.l3_bytes / KiB));
  }
  if (c.sched == rt::SchedMode::kParallel) l += strfmt(".par%u", c.jobs);
  if (c.traced) l += ".traced";
  return l;
}

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The configs of one workload iteration. NAS inputs are fixed by problem
/// class, so the seed only permutes mode_sweep's run order.
std::vector<Config> workload_configs(const std::string& w, bool smoke,
                                     u64 seed) {
  const auto cls = [smoke](nas::ProblemClass c) {
    return smoke ? nas::ProblemClass::kS : c;
  };
  std::vector<Config> out;
  if (w == "cg_a16_par4") {
    Config c = make_config(nas::Benchmark::kCG, cls(nas::ProblemClass::kA), 16,
                           sys::OpMode::kVnm);
    c.sched = rt::SchedMode::kParallel;
    c.jobs = 4;
    out.push_back(c);
  } else if (w == "mode_sweep") {
    // bench/mode_compare.hpp's Figs 12-14 pairs: VNM on N nodes against
    // SMP/1 on 4N nodes with L3 cut to 2 MiB, same rank count.
    for (const nas::Benchmark b : nas::all_benchmarks()) {
      out.push_back(make_config(b, cls(nas::ProblemClass::kW), 4,
                                sys::OpMode::kVnm));
      Config smp = make_config(b, cls(nas::ProblemClass::kW), 16,
                               sys::OpMode::kSmp1);
      smp.l3_bytes = 2 * MiB;
      out.push_back(smp);
    }
    u64 state = seed;
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[splitmix64(state) % i]);
    }
  } else if (w == "mg_a4_traced") {
    Config c = make_config(nas::Benchmark::kMG, cls(nas::ProblemClass::kA), 4,
                           sys::OpMode::kVnm);
    c.traced = true;
    out.push_back(c);
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  for (Config& c : out) c.label = label_of(c);
  return out;
}

// ---- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Host-side cost of the whole iteration, from the untraced passes.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},       {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
    {"sim_minstr_per_s", "Minstr/s"},
};

/// One layer each, named after the src/ module; README.md maps each to the
/// end-to-end metric and workload it should move.
constexpr MetricDef kPerLayer[] = {
    {"runtime.machine_ctor_s", "s"},
    {"runtime.run_s", "s"},
    {"runtime.run_self_s", "s"},
    {"runtime.run_cores_busy", "cores"},
    {"nas.make_kernel_s", "s"},
    {"nas.kernel_run_s", "s"},
    {"nas.kernel_run_max_s", "s"},
    {"core.session_setup_s", "s"},
    {"core.mpi_init_s", "s"},
    {"core.mpi_finalize_s", "s"},
    {"core.dump_bytes", "B"},
    {"core.dump_files", "count"},
    {"cpu.sim_cycles", "cycles"},
    {"cpu.sim_instructions", "count"},
    {"cpu.sim_fp_ops", "count"},
    {"mem.l1d_accesses", "count"},
    {"mem.l1d_misses", "count"},
    {"mem.l2_prefetch_hits", "count"},
    {"mem.l3_misses", "count"},
    {"mem.ddr_bytes", "B"},
    {"mem.host_ns_per_l1d_access", "ns"},
    {"upc.events_total", "count"},
    {"upc.host_ns_per_event", "ns"},
    {"trace.samples", "count"},
    {"trace.bytes", "B"},
    {"trace.drops", "count"},
    {"postproc.check_s", "s"},
    {"postproc.record_s", "s"},
    {"postproc.mine_s", "s"},
    {"postproc.timeline_s", "s"},
    {"net.coll_ops", "count"},
    {"net.coll_bytes", "B"},
    {"net.coll_host_s", "s"},
    {"bench.unattributed_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
};

using Values = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it, or "-".
std::string high_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (100 - p) / 100 < 10) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100 * static_cast<double>(v.size())));
    return strfmt("p%g=%.6g", p, v[std::max<std::size_t>(rank, 1) - 1]);
  }
  return "-";
}

/// Everything one iteration produced. `layer` holds the per-layer metrics
/// keyed by name; span times are filled in only for traced iterations.
struct Iteration {
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double run_wall_s = 0;
  double run_cpu_s = 0;
  double extra_setup_wall_s = 0;  ///< repeated set-ups, left out of wall_s
  double extra_setup_cpu_s = 0;   ///< and out of cpu_s
  double instructions = 0;
  unsigned runs = 0;
  unsigned failed = 0;
  Values layer;
};

/// Sum the event counts a batch of dumps carries. Counter modes 0 and 1
/// are split across node cards, so each count covers the nodes whose mode
/// holds it.
void add_dump_counts(const std::vector<pc::NodeDump>& dumps, Values& v,
                     double& instructions) {
  namespace ev = isa::ev;
  const auto at = [](const pc::SetDump& s, isa::EventId id) {
    return static_cast<double>(s.deltas[isa::event_counter(id)]);
  };
  for (const pc::NodeDump& d : dumps) {
    for (const pc::SetDump& s : d.sets) {
      for (const u64 x : s.deltas) v["upc.events_total"] += static_cast<double>(x);
      if (d.counter_mode == 0) {
        for (unsigned core = 0; core < isa::kCoresPerNode; ++core) {
          instructions += at(s, ev::instr_completed(core));
          v["cpu.sim_instructions"] += at(s, ev::instr_completed(core));
          for (std::size_t op = 0; op < isa::kNumFpOps; ++op) {
            const auto fp = static_cast<isa::FpOp>(op);
            v["cpu.sim_fp_ops"] +=
                at(s, ev::fpu_op(core, fp)) * isa::flops_per_op(fp);
          }
          v["mem.l1d_accesses"] +=
              at(s, ev::l1d(core, isa::L1dEvent::kReadAccess)) +
              at(s, ev::l1d(core, isa::L1dEvent::kWriteAccess));
          v["mem.l1d_misses"] += at(s, ev::l1d(core, isa::L1dEvent::kReadMiss)) +
                                 at(s, ev::l1d(core, isa::L1dEvent::kWriteMiss));
          v["mem.l2_prefetch_hits"] +=
              at(s, ev::l2(core, isa::L2Event::kPrefetchHit));
        }
      } else if (d.counter_mode == 1) {
        v["mem.l3_misses"] += at(s, ev::l3(isa::L3Event::kReadMiss)) +
                              at(s, ev::l3(isa::L3Event::kWriteMiss));
        for (unsigned ctrl = 0; ctrl < isa::kNumDdrControllers; ++ctrl) {
          v["mem.ddr_bytes"] +=
              16 * (at(s, ev::ddr(ctrl, isa::DdrEvent::kBytesRead16B)) +
                    at(s, ev::ddr(ctrl, isa::DdrEvent::kBytesWritten16B)));
        }
      }
    }
  }
}

// ---- correctness gate -------------------------------------------------------

/// CRC32 over each node's dumped counter values (node order) plus the
/// simulated run time.
u32 digest(std::vector<pc::NodeDump> dumps, cycles_t elapsed) {
  std::sort(dumps.begin(), dumps.end(),
            [](const auto& a, const auto& b) { return a.node_id < b.node_id; });
  u32 crc = 0;
  const auto add = [&crc](const void* p, std::size_t n) {
    crc = crc32(std::span(static_cast<const std::byte*>(p), n), crc);
  };
  for (const pc::NodeDump& d : dumps) {
    add(&d.node_id, sizeof d.node_id);
    add(&d.counter_mode, sizeof d.counter_mode);
    for (const pc::SetDump& s : d.sets) {
      add(&s.set_id, sizeof s.set_id);
      add(s.deltas.data(), sizeof s.deltas);
    }
  }
  add(&elapsed, sizeof elapsed);
  return crc;
}

/// A config run's counter digest and simulated run time.
struct Digest {
  u32 crc = 0;
  cycles_t elapsed = 0;
};

/// `label crc32-hex elapsed-cycles` per line; '#' starts a comment.
std::map<std::string, Digest> load_digests(const fs::path& path) {
  std::map<std::string, Digest> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string label, crc;
    Digest p;
    if (!(ls >> label >> crc >> p.elapsed)) {
      throw std::runtime_error("bad digest line: " + line);
    }
    p.crc = static_cast<u32>(std::stoul(crc, nullptr, 16));
    out[label] = p;
  }
  return out;
}

void save_digests(const fs::path& path, const std::map<std::string, Digest>& d) {
  std::ofstream out(path, std::ios::trunc);
  out << "# Pinned counter digests: label, CRC32 of every node's dumped\n"
         "# counters plus Machine::elapsed(), and elapsed cycles. Regenerate\n"
         "# with run.py --write-digests and call out any change.\n";
  for (const auto& [label, p] : d) {
    out << label << ' ' << strfmt("%08x", p.crc) << ' ' << p.elapsed << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- running ----------------------------------------------------------------

struct Settings {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool write_digests = false;
  std::optional<u64> l3_override;  ///< bytes; changes counters on purpose
  fs::path digests;
  fs::path out_dir = ".bench_build";
  std::string git_describe = "unknown";
};

/// A config set up and ready for Machine::run. Members are destroyed in
/// reverse order: the kernel and session before the machine they use.
struct Prepared {
  pc::Options opts;
  std::unique_ptr<rt::Machine> machine;
  std::unique_ptr<pc::Session> session;
  std::unique_ptr<nas::Kernel> kernel;
};

Prepared prepare(const Config& c, const Settings& st, const fs::path& dir,
                 SpanLog* log, SpanLog::Id parent) {
  Prepared p;
  rt::MachineConfig mc;
  mc.num_nodes = c.nodes;
  mc.mode = c.mode;
  mc.boot.l3_size_bytes = st.l3_override.value_or(c.l3_bytes);
  mc.num_ranks_override = c.ranks;
  mc.sched = c.sched;
  mc.jobs = c.jobs;
  {
    Scope s(log, "runtime.machine_ctor", parent);
    p.machine = std::make_unique<rt::Machine>(mc);
  }

  pc::Options& opts = p.opts;
  opts.app_name = std::string(nas::name(c.bench));
  opts.dump_dir = dir;
  opts.write_dumps = c.traced;
  opts.trace.enabled = c.traced;
  opts.trace.trace_dir = dir;
  if (log != nullptr) {
    // The flight recorder at zero simulated cost, so counters stay
    // byte-identical to the untraced pass.
    opts.obs.enabled = true;
    opts.obs.per_span_overhead = 0;
    opts.obs.write_spans = false;
  }
  {
    Scope s(log, "core.session_setup", parent);
    p.session = std::make_unique<pc::Session>(*p.machine, opts);
    p.session->link_with_mpi();
  }
  {
    Scope s(log, "nas.make_kernel", parent);
    p.kernel = nas::make_kernel(c.bench, c.cls);
  }
  return p;
}

/// The median of `first`, the set-up time of the config's run, and of
/// kSetupReps - 1 more set-ups of it, each torn down unrun. They follow the
/// run, so the run starts in the state the previous config left, as it
/// would without them.
double median_setup(const Config& c, const Settings& st, const fs::path& dir,
                    double first, Iteration& it) {
  std::vector<double> setups = {first};
  for (int r = 1; r < kSetupReps; ++r) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      const Prepared extra = prepare(c, st, dir, nullptr, SpanLog::kNone);
      setups.push_back(seconds_since(t0));
    }
    it.extra_setup_wall_s += seconds_since(t0);
    it.extra_setup_cpu_s += cpu_seconds() - cpu0;
  }
  return median(setups);
}

/// One config through the public call sequence; `setup_s` gets the time
/// until Machine::run began. Throws on any failure the run itself can see
/// (verification, sanity, mining); the digest is judged by the caller.
Digest run_config(const Config& c, const Settings& st, const fs::path& dir,
                  SpanLog* log, SpanLog::Id parent, Iteration& it,
                  double& setup_s) {
  const auto t0 = Clock::now();
  const Prepared p = prepare(c, st, dir, log, parent);
  const pc::Options& opts = p.opts;
  rt::Machine* machine = p.machine.get();
  pc::Session* session = p.session.get();
  nas::Kernel* kernel = p.kernel.get();

  const std::string region = "region." + opts.app_name;
  const double cpu0 = cpu_seconds();
  const auto t_run = Clock::now();
  setup_s = std::chrono::duration<double>(t_run - t0).count();
  {
    Scope run(log, "runtime.run", parent);
    const SpanLog::Id run_id = run.id();
    machine->run([&](rt::RankCtx& ctx) {
      {
        Scope s(log, "core.mpi_init", run_id);
        ctx.mpi_init();
      }
      {
        Scope s(log, "nas.kernel_run", run_id);
        rt::ObsScope span(ctx, region, obs::SpanCat::kRegion);
        kernel->run(ctx);
      }
      Scope s(log, "core.mpi_finalize", run_id);
      ctx.mpi_finalize();
    });
  }
  it.run_wall_s += seconds_since(t_run);
  it.run_cpu_s += cpu_seconds() - cpu0;

  Digest out;
  out.elapsed = machine->elapsed();
  const std::vector<pc::NodeDump>& dumps = session->dumps();
  out.crc = digest(dumps, out.elapsed);
  if (!kernel->result().verified) {
    throw std::runtime_error("verification failed: " + kernel->result().detail);
  }
  if (dumps.size() != c.nodes) {
    throw std::runtime_error(strfmt("%zu of %u nodes dumped", dumps.size(),
                                    c.nodes));
  }
  {
    Scope s(log, "postproc.check", parent);
    const post::SanityReport sanity = post::check(dumps);
    if (!sanity.ok()) {
      throw std::runtime_error("sanity: " + sanity.problems.front().text);
    }
  }
  {
    Scope s(log, "postproc.record", parent);
    const post::Aggregate agg(dumps, 0);
    if (!(post::make_record(opts.app_name, agg).exec_cycles > 0)) {
      throw std::runtime_error("metrics record has no execution cycles");
    }
  }
  if (c.traced) {
    post::MineOptions mo;
    mo.strict = true;
    mo.expected_nodes = c.nodes;
    {
      Scope s(log, "postproc.mine", parent);
      const post::MineResult mined = post::mine(dir, opts.app_name, mo);
      if (!mined.ok || digest(mined.dumps, out.elapsed) != out.crc) {
        throw std::runtime_error(
            "mined dumps differ from the run's: " +
            (mined.problems.empty() ? "" : mined.problems.front()));
      }
    }
    post::TimelineOptions to;
    to.expected_nodes = c.nodes;
    Scope s(log, "postproc.timeline", parent);
    const post::TimelineReport tl =
        post::mine_timeline(dir, opts.app_name, to);
    if (!tl.ok || tl.intervals.empty()) {
      throw std::runtime_error(
          "timeline: " + (tl.problems.empty() ? "no intervals"
                                              : tl.problems.front()));
    }
  }

  Values& v = it.layer;
  add_dump_counts(dumps, v, it.instructions);
  v["cpu.sim_cycles"] += static_cast<double>(out.elapsed);
  for (const fs::path& p : session->dump_files()) {
    v["core.dump_files"] += 1;
    v["core.dump_bytes"] += static_cast<double>(fs::file_size(p));
  }
  for (const fs::path& p : session->trace_files()) {
    v["trace.bytes"] += static_cast<double>(fs::file_size(p));
  }
  if (const obs::FlightRecorder* fr = session->flight_recorder()) {
    const obs::WellKnown& wk = fr->wk();
    v["trace.samples"] += static_cast<double>(wk.trace_samples->value());
    v["trace.drops"] += static_cast<double>(wk.trace_drops->value());
    v["net.coll_ops"] += static_cast<double>(wk.coll_ops->value());
    v["net.coll_bytes"] += static_cast<double>(wk.coll_bytes->value());
    for (const obs::SpanRec& r : fr->all_spans()) {
      if (r.cat == obs::SpanCat::kCollective) {
        v["net.coll_host_s"] += static_cast<double>(r.end_host_ns -
                                                    r.begin_host_ns) / 1e9;
      }
    }
  }
  return out;
}

/// Turn one traced iteration's spans into per-layer host times: each
/// layer's total span time, the dispatcher's self time inside
/// Machine::run, the slowest rank of every run and the iteration's
/// unattributed remainder.
void add_span_times(const SpanLog& log, Values& v) {
  const auto& spans = log.spans();
  const std::vector<u64> self = log.self_ns();
  std::vector<u64> slowest_rank(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    const u64 dur = s.end_ns - s.start_ns;
    const std::string name = s.name;
    if (name == "bench.iteration") {
      v["bench.unattributed_s"] += static_cast<double>(self[i]) / 1e9;
      continue;
    }
    v[name + "_s"] += static_cast<double>(dur) / 1e9;
    if (name == "runtime.run") {
      v["runtime.run_self_s"] += static_cast<double>(self[i]) / 1e9;
    }
    if (name == "nas.kernel_run") {
      slowest_rank[s.parent] = std::max(slowest_rank[s.parent], dur);
    }
  }
  for (const u64 ns : slowest_rank) {
    v["nas.kernel_run_max_s"] += static_cast<double>(ns) / 1e9;
  }
}

/// Pins the process to the CPU it is on when every config uses the serial
/// dispatcher, and returns that CPU (-1 when it does not pin). The serial
/// dispatcher runs one rank thread at a time and hands a token between
/// them; across CPUs each hand-off waits for the other CPU to wake, which
/// on a shared host added seconds of noise to wall_s (wall over CPU time up
/// to 1.4). Rank threads inherit the affinity.
int pin_if_serial(const std::vector<Config>& configs) {
  for (const Config& c : configs) {
    if (c.sched != rt::SchedMode::kSerial) return -1;
  }
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

class Bench {
 public:
  explicit Bench(Settings st)
      : st_(std::move(st)),
        configs_(workload_configs(st_.workload, st_.smoke, st_.seed)),
        pinned_(load_digests(st_.digests)) {}

  int run();

 private:
  Iteration iterate(SpanLog* log);
  void print_env() const;
  void write_spans() const;

  Settings st_;
  std::vector<Config> configs_;
  std::map<std::string, Digest> pinned_;
  std::map<std::string, Digest> seen_;  ///< first digest of each label here
  std::vector<Iteration> plain_, traced_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  unsigned dir_seq_ = 0;
  int pinned_cpu_ = -1;
};

Iteration Bench::iterate(SpanLog* log) {
  Iteration it;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    Scope iter(log, "bench.iteration", SpanLog::kNone);
    for (const Config& c : configs_) {
      ++it.runs;
      const fs::path dir = st_.out_dir / "work" /
                           strfmt("%ld-%u", static_cast<long>(getpid()), dir_seq_++);
      std::string problem;
      Digest got;
      double setup_s = 0;
      try {
        if (c.traced) fs::create_directories(dir);
        got = run_config(c, st_, dir, log, iter.id(), it, setup_s);
        if (log == nullptr) setup_s = median_setup(c, st_, dir, setup_s, it);
      } catch (const std::exception& e) {
        problem = e.what();
      }
      it.setup_s += setup_s;
      std::error_code ec;
      fs::remove_all(dir, ec);
      if (problem.empty()) {
        const auto [first, fresh] = seen_.emplace(c.label, got);
        const auto pin = pinned_.find(c.label);
        if (!fresh && first->second.crc != got.crc) {
          problem = strfmt("digest %08x differs from this run's earlier %08x",
                           got.crc, first->second.crc);
        } else if (st_.write_digests) {
          pinned_[c.label] = got;
        } else if (pin == pinned_.end()) {
          problem = strfmt("no pinned digest (got %08x, %llu cycles)", got.crc,
                           static_cast<unsigned long long>(got.elapsed));
        } else if (pin->second.crc != got.crc) {
          problem = strfmt(
              "digest %08x (%llu cycles) != pinned %08x (%llu cycles)", got.crc,
              static_cast<unsigned long long>(got.elapsed), pin->second.crc,
              static_cast<unsigned long long>(pin->second.elapsed));
        }
      }
      if (!problem.empty()) {
        ++it.failed;
        std::fprintf(stderr, "FAIL %s%s: %s\n", c.label.c_str(),
                     log ? " (traced)" : "", problem.c_str());
      }
    }
  }
  it.wall_s = seconds_since(t0) - it.extra_setup_wall_s;
  it.cpu_s = cpu_seconds() - cpu0 - it.extra_setup_cpu_s;
  if (log != nullptr) {
    add_span_times(*log, it.layer);
    Values& v = it.layer;
    v["runtime.run_cores_busy"] =
        it.run_wall_s > 0 ? it.run_cpu_s / it.run_wall_s : 0;
    const double run_ns = v["runtime.run_s"] * 1e9;
    v["mem.host_ns_per_l1d_access"] =
        v["mem.l1d_accesses"] > 0 ? run_ns / v["mem.l1d_accesses"] : 0;
    v["upc.host_ns_per_event"] =
        v["upc.events_total"] > 0 ? run_ns / v["upc.events_total"] : 0;
  }
  return it;
}

void Bench::print_env() const {
  const unsigned nproc = std::thread::hardware_concurrency();
  unsigned workers = 1;
  for (const Config& c : configs_) {
    if (c.sched == rt::SchedMode::kParallel) {
      workers = std::max(workers, c.jobs);
    }
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              st_.workload.c_str(), static_cast<unsigned long long>(st_.seed),
              st_.seconds, st_.trace ? 1 : 0, st_.smoke ? " smoke(class S)" : "");
  std::printf("env: nproc=%u compiler=\"%s\" build=%s git=%s workers=%u "
              "pinned_cpu=%s%s\n",
              nproc, compiler, PERFBENCH_BUILD_TYPE, st_.git_describe.c_str(),
              workers,
              pinned_cpu_ < 0 ? "none" : std::to_string(pinned_cpu_).c_str(),
              nproc != 0 && workers > nproc ? " OVERSUBSCRIBED (workers > nproc"
                                              "; wall times not comparable)"
                                            : "");
  std::printf("configs (%zu):", configs_.size());
  for (const Config& c : configs_) std::printf(" %s", c.label.c_str());
  std::printf("\nsimulated numbers come from an unvalidated model of BG/P; "
              "no accuracy error is reported\n");
}

void Bench::write_spans() const {
  const fs::path dir = st_.out_dir / "spans";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path =
      dir / strfmt("%s-seed%llu.json", st_.workload.c_str(),
                   static_cast<unsigned long long>(st_.seed));
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  // Chrome trace-event JSON (chrome://tracing, Perfetto): one pid per
  // traced iteration, span id and parent in args.
  std::fprintf(f, "{\"traceEvents\": [\n");
  const char* sep = "";
  for (std::size_t k = 0; k < logs_.size(); ++k) {
    const auto& spans = logs_[k]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}",
                   sep, s.name, k + 1, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == SpanLog::kNone ? -1LL
                                              : static_cast<long long>(s.parent));
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  std::printf("spans: %s\n", path.string().c_str());
}

std::string json_metric(bool first, const MetricDef& m, double value) {
  return strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, value, m.unit);
}

int Bench::run() {
  pinned_cpu_ = pin_if_serial(configs_);
  print_env();
  // Fixed malloc thresholds. By default glibc raises its mmap threshold as
  // mapped chunks are freed and returns the heap top once it passes a trim
  // threshold, so whether a config's cache arrays were page-faulted afresh
  // at set-up depended on what ran before it in this process, and set-up
  // time came out bimodal between runs. Faulting every large chunk in
  // afresh was bimodal too, on a shared host. Now chunks under 32 MiB come
  // from the heap, which goes back to the system only at the explicit trims
  // below, so repeated set-ups reuse memory that is already mapped.
  mallopt(M_MMAP_THRESHOLD, 32 * MiB);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const auto start = Clock::now();
  // Every iteration starts from a trimmed heap, as a fresh process would.
  // Peak RSS is read after the first one: later iterations place their
  // arenas differently and can peak higher, and how many of them fit in
  // --seconds depends on the host's speed.
  double first_peak_rss_mb = 0;
  // Repeat until --seconds have passed. Then round up to an odd count, so
  // the median is a middle sample that one slow iteration cannot move, if
  // the extra iteration would still end within 1.6x --seconds.
  double last = 0;  ///< seconds the latest iteration took
  const auto more = [&] {
    const double elapsed = seconds_since(start);
    return elapsed < st_.seconds ||
           (plain_.size() % 2 == 0 && elapsed + last < 1.6 * st_.seconds);
  };
  do {
    const auto t0 = Clock::now();
    malloc_trim(0);
    plain_.push_back(iterate(nullptr));
    if (plain_.size() == 1) first_peak_rss_mb = peak_rss_mb();
    if (st_.trace) {
      malloc_trim(0);
      logs_.push_back(std::make_unique<SpanLog>());
      traced_.push_back(iterate(logs_.back().get()));
    }
    last = seconds_since(t0);
  } while (!st_.write_digests && more());

  unsigned runs = 0, failed = 0;
  for (const auto* set : {&plain_, &traced_}) {
    for (const Iteration& it : *set) {
      runs += it.runs;
      failed += it.failed;
    }
  }
  if (st_.write_digests) {
    if (failed != 0) return 1;
    save_digests(st_.digests, pinned_);
    std::printf("wrote %zu digests to %s\n", pinned_.size(),
                st_.digests.string().c_str());
    return 0;
  }

  std::map<std::string, std::vector<double>> e2e;
  for (const Iteration& it : plain_) {
    e2e["wall_s"].push_back(it.wall_s);
    e2e["cpu_s"].push_back(it.cpu_s);
    e2e["setup_s"].push_back(it.setup_s);
    e2e["sim_minstr_per_s"].push_back(it.instructions / it.wall_s / 1e6);
  }
  e2e["peak_rss_mb"] = {first_peak_rss_mb};

  std::string metrics;
  if (!st_.trace) {
    std::printf("\n%-18s %-10s %14s %16s %4s\n", "end-to-end", "unit",
                "median", "high pct", "n");
    for (const MetricDef& m : kEndToEnd) {
      const auto& v = e2e[m.name];
      std::printf("%-18s %-10s %14.6g %16s %4zu\n", m.name, m.unit, median(v),
                  high_percentile(v).c_str(), v.size());
      metrics += json_metric(metrics.empty(), m, median(v));
    }
  } else {
    std::vector<double> walls;
    for (const Iteration& it : traced_) walls.push_back(it.wall_s);
    const double overhead = median(walls) / median(e2e["wall_s"]) - 1;
    std::printf("\n%-28s %-7s %16s   (median of %zu traced iterations)\n",
                "per-layer", "unit", "value", traced_.size());
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> v;
      for (const Iteration& it : traced_) {
        const auto f = it.layer.find(m.name);
        v.push_back(f == it.layer.end() ? 0.0 : f->second);
      }
      const double value =
          std::strcmp(m.name, "obs.trace_overhead_frac") == 0 ? overhead
                                                               : median(v);
      std::printf("%-28s %-7s %16.6g\n", m.name, m.unit, value);
      metrics += json_metric(metrics.empty(), m, value);
    }
    std::printf("traced wall %.3f s vs untraced %.3f s: "
                "obs.trace_overhead_frac %.4f\n",
                median(walls), median(e2e["wall_s"]), overhead);
    write_spans();
  }
  std::printf("%-18s %-10s %14.6g   (%u of %u config runs failed)\n",
              "failed_frac", "ratio", static_cast<double>(failed) / runs,
              failed, runs);
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", runs, failed, metrics.c_str());
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --digests FILE [--out-dir DIR] "
               "[--git-describe TEXT] [--smoke] [--l3-mib M] "
               "[--write-digests]\nworkloads:",
               why);
  for (const std::string& w : kWorkloads) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Settings parse(int argc, char** argv) {
  Settings st;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    }
    const auto value = [&]() -> const std::string& {
      if (eq == std::string::npos) {
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        val = argv[++i];
      }
      return val;
    };
    try {
      if (key == "--workload") {
        st.workload = value();
      } else if (key == "--seed") {
        st.seed = std::stoull(value());
      } else if (key == "--seconds") {
        st.seconds = std::stod(value());
      } else if (key == "--trace") {
        st.trace = std::stoi(value()) != 0;
      } else if (key == "--digests") {
        st.digests = value();
      } else if (key == "--out-dir") {
        st.out_dir = value();
      } else if (key == "--git-describe") {
        st.git_describe = value();
      } else if (key == "--l3-mib") {
        st.l3_override = std::stoull(value()) * MiB;
      } else if (key == "--smoke") {
        st.smoke = true;
      } else if (key == "--write-digests") {
        st.write_digests = true;
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (st.workload.empty()) usage("--workload is required");
  if (st.digests.empty()) usage("--digests is required");
  return st;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Bench bench(perfbench::parse(argc, argv));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
