// The repo benchmark: one workload per run, timed at steady state.
//
//   perfbench --workload <cell_plane|kpi_ingest> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir DIR] [--digest TEXT]
//
// Prints a human-readable report, one "record:" line (machine, threads,
// connections, build, source digest, seed), and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics the workload exercises with
// --trace 1 (perfbench/run.py adds the rest as 0 and checks the set against
// BENCHMARK.json). Exits 1 if any correctness check failed, 2 on bad
// arguments.
//
// Workloads (see perfbench/README.md for why each exists):
//   cell_plane  one cell on the Fig. 7 split over loopback mux links,
//               closed loop, lock-step, full 11^4 grid, budget 200.
//   kpi_ingest  98-byte fleet-codec indications on 1000 streams over 4 mux
//               connections, one generator and one verifying consumer.

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cell_plane|kpi_ingest> "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--digest TEXT]\n",
               argv0);
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      o.workload = next();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      o.seconds = std::atof(next().c_str());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      const std::string t = next();
      if (t != "0" && t != "1") usage(argv[0]);
      o.trace = t == "1";
      have_trace = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0) {
      o.out_dir = next();
    } else if (std::strcmp(argv[i], "--digest") == 0) {
      o.source_digest = next();
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0.0) ||
      o.seconds > 60.0)
    usage(argv[0]);
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options o = parse(argc, argv);
  pb::Result r;
  try {
    if (o.workload == "cell_plane") {
      pb::run_cell_plane(o, &r);
    } else if (o.workload == "kpi_ingest") {
      pb::run_kpi_ingest(o, &r);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // The metrics as the workload reported them; perfbench/run.py checks
  // them against BENCHMARK.json. A value that is not finite is printed as
  // null, which that check refuses.
  std::string metrics;
  for (const pb::Metric& m : o.trace ? r.layer : r.e2e) {
    char buf[64] = "null";
    if (std::isfinite(m.value)) std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }

  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  for (const std::string& e : r.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string record = "{\"workload\": \"" + o.workload + "\", \"seed\": " +
                       std::to_string(o.seed) + ", \"trace\": " +
                       (o.trace ? "1" : "0") + ", \"source_digest\": \"" +
                       json_escape(o.source_digest) + "\"";
  utsname u{};
  uname(&u);
  record += ", \"machine\": \"" + json_escape(std::string(u.sysname) + " " +
                                             u.release + " " + u.machine) +
            "\", \"nproc\": " + std::to_string(pb::hardware_threads()) +
            ", \"compiler\": \"" + json_escape(__VERSION__) +
            "\", \"build_type\": \"" PB_BUILD_TYPE "\", \"cxx_flags\": \"" +
            json_escape(PB_CXX_FLAGS) + "\"";
  for (const auto& [k, v] : r.record) record += ", \"" + k + "\": " + v;
  record += "}";
  std::printf("record: %s\n", record.c_str());

  const bool correct = r.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
