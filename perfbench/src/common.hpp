// Shared pieces of the benchmark program: options, the result it prints,
// the load budget, and process probes.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";       // spans and records are written here
  std::string source_digest = "";  // identifies the measured source tree
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `e2e` and `layer` are printed as the final JSON
/// line (one or the other, by --trace); `lines` and `record` go before it.
struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<std::pair<std::string, std::string>> record;  // key, JSON value
  std::vector<std::string> lines;   // human-readable report

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void add_e2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void add_layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void note(const std::string& line) { lines.push_back(line); }
  void add_record(const std::string& key, const std::string& json) {
    record.emplace_back(key, json);
  }
};

/// Threads and connections a workload uses. `pool` counts the calling
/// thread of the compute pool; the other roles block on a wakeup while the
/// pool computes, except where a workload says otherwise.
struct LoadBudget {
  std::size_t pool = 0;        // compute pool, caller included
  std::size_t event_loop = 0;  // net::EventLoop threads
  std::size_t roles = 0;       // node roles / serving threads outside the pool
  std::size_t generator = 0;   // load generator and consumer threads
  std::size_t connections = 0;

  std::size_t threads() const { return pool + event_loop + roles + generator; }
};

/// Every latency percentile rests on at least this many samples per run,
/// so that at least ten lie beyond the p99.
constexpr std::size_t kMinSamples = 1000;

/// Hardware threads of this machine.
std::size_t hardware_threads();

/// Refuses (returns an error text) a budget over the machine: a compute
/// pool or a set of concurrently busy threads wider than nproc, or more
/// than four connections. `busy` is the widest set of threads the workload
/// runs at the same time.
std::string check_budget(const LoadBudget& b, std::size_t busy);

/// JSON object describing the budget, for the run record.
std::string budget_json(const LoadBudget& b, std::size_t busy);

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();
/// Resets the peak resident set to the current one; false if the kernel
/// refused.
bool reset_peak_rss();
/// CPU seconds used by the whole process so far.
double process_cpu_s();
/// The machine's CPU time counters from /proc/stat, for the run record:
/// steal is time the host ran something else while a vCPU wanted to run.
struct CpuTicks {
  double steal = 0.0, total = 0.0;
  static CpuTicks read();
  /// Steal over all CPU time between `before` and this reading.
  double steal_share_since(const CpuTicks& before) const;
};

std::string fmt(double v, int prec = 4);

/// Runs of one workload; each fills `r`.
void run_cell_plane(const Options& o, Result* r);
void run_kpi_ingest(const Options& o, Result* r);

/// Mean per-root self time by layer, from attributed roots. Adds
/// layer.<x>.self_ms, bench.unattributed_ms.{p50,mean} and bench.e2e_ms.mean
/// to `r`, and checks the parts add up to the whole.
void report_attribution(const std::vector<Attribution>& roots, Result* r);

}  // namespace pb
