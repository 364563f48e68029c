#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace pb {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string check_budget(const LoadBudget& b, std::size_t busy) {
  const std::size_t hw = hardware_threads();
  if (b.pool > hw)
    return "compute pool of " + std::to_string(b.pool) + " threads exceeds " +
           std::to_string(hw) + " hardware threads";
  if (busy > hw)
    return std::to_string(busy) + " concurrently busy threads exceed " +
           std::to_string(hw) + " hardware threads";
  if (b.connections > 4)
    return std::to_string(b.connections) + " connections exceed 4";
  return "";
}

std::string budget_json(const LoadBudget& b, std::size_t busy) {
  std::ostringstream os;
  os << "{\"nproc\": " << hardware_threads() << ", \"pool\": " << b.pool
     << ", \"event_loop\": " << b.event_loop << ", \"roles\": " << b.roles
     << ", \"generator\": " << b.generator << ", \"threads\": " << b.threads()
     << ", \"busy\": " << busy << ", \"connections\": " << b.connections
     << "}";
  return os.str();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset VmHWM
  out.flush();
  return static_cast<bool>(out);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTicks CpuTicks::read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    double x = 0.0;
    in >> x;
    t.total += x;
    if (i == 7) t.steal = x;
  }
  return in ? t : CpuTicks{};
}

double CpuTicks::steal_share_since(const CpuTicks& before) const {
  const double dt = total - before.total;
  return dt > 0 ? (steal - before.steal) / dt : 0.0;
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

void report_attribution(const std::vector<Attribution>& roots, Result* r) {
  static const char* kLayers[] = {"core", "oran", "net", "env", "bench"};
  const double n = roots.empty() ? 1.0 : static_cast<double>(roots.size());
  double total = 0.0, unattr = 0.0;
  std::vector<double> unattr_ms;
  std::map<std::string, double> layer;
  for (const Attribution& a : roots) {
    total += a.total_us;
    unattr += a.unattributed_us;
    unattr_ms.push_back(a.unattributed_us / 1e3);
    for (const auto& [k, v] : a.layer_us) layer[k] += v;
  }
  double parts = unattr;
  std::string line = "self time per root (ms):";
  for (const char* l : kLayers) {
    const double v = layer.count(l) ? layer[l] : 0.0;
    parts += v;
    r->add_layer(std::string("layer.") + l + ".self_ms", v / n / 1e3, "ms");
    line += std::string(" ") + l + " " + fmt(v / n / 1e3);
    layer.erase(l);
  }
  for (const auto& [k, v] : layer) {  // a span outside the named layers
    parts += v;
    r->errors.push_back("span layer '" + k + "' is not a benchmark layer");
  }
  r->add_layer("bench.e2e_ms.mean", total / n / 1e3, "ms");
  r->add_layer("bench.unattributed_ms.mean", unattr / n / 1e3, "ms");
  r->add_layer("bench.unattributed_ms.p50",
               roots.empty() ? 0.0 : percentile(unattr_ms, 50.0), "ms");
  line += " unattributed " + fmt(unattr / n / 1e3) + " = e2e " +
          fmt(total / n / 1e3) + " over " + std::to_string(roots.size()) +
          " roots";
  r->note(line);
  r->check(roots.size() > 0, "traced run attributed no end-to-end roots");
  r->check(std::abs(parts - total) <= 1e-6 * std::max(1.0, total),
           "layer self times do not add up to the end-to-end time");
}

}  // namespace pb
