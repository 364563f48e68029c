// cell_plane: one cell on the Fig. 7 split, closed loop, lock-step.
//
// The NonRT (learner), NearRT and Env roles run on their own threads in one
// process over loopback mux connections: a1+o1 share the NonRT<->NearRT
// connection, e2 and svc one connection each (three connections). The
// agent is the canonical plane agent (weights {1, 8}, constraints
// {0.4 s, 0.5}, resilience on) over the full 11^4 grid with gp_budget 200
// and a pool of nproc threads, on the static 35 dB testbed (Fig. 10).
//
// Set-up (built kSetups times, median reported; the window runs on the
// first): links, nodes, handshake, and the budget fill. The window starts
// once num_observations() equals the budget and runs for --seconds (at
// least kMinPeriods periods). Each
// period is timed on the learner thread's steady clock: context -> select
// -> step over the plane -> update. Afterwards an in-process EdgeBol on the
// in-process O-RAN loopback, same seed, must reproduce every decision and
// measurement of fill plus window bit for bit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "plane.hpp"

namespace pb {
namespace {

constexpr std::size_t kBudget = 200;
constexpr std::size_t kMinPeriods = kMinSamples;
constexpr std::size_t kCostPeriods = 1000;  // energy_cost: first window periods
constexpr std::size_t kMaxFillPeriods = 1000;
constexpr int kSetups = 5;
constexpr double kSnrDb = 35.0;

// Span depths: the period root is 0; learner-thread calls 1; their
// transport calls 2; role-thread polls 3 and their transport calls 4.
constexpr int kLearnerDepth = 1;

// Span names that are also parents.
constexpr const char* kPeriod = "bench.period";
constexpr const char* kStep = "oran.step";
constexpr const char* kNearRtPoll = "oran.nearrt_poll";
constexpr const char* kEnvPoll = "env.env_poll";
constexpr int kRoleDepth = 3;

core::EdgeBolConfig agent_config() {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  cfg.resilience.enabled = true;
  cfg.gp_budget = kBudget;
  cfg.num_threads = hardware_threads();
  return cfg;
}

net::MuxEndpointConfig link(const char* name, net::ReadySignal* ready) {
  net::MuxEndpointConfig cfg;
  cfg.name = name;
  cfg.ready = ready;
  return cfg;
}

net::MuxStreamConfig stream(const char* name, net::BackpressurePolicy p) {
  net::MuxStreamConfig cfg;
  cfg.name = name;
  cfg.policy = p;
  return cfg;
}

/// One complete plane: links, role nodes on their threads, and the agent.
class CellLoop {
 public:
  static constexpr std::uint64_t kA1 = 1, kO1 = 2, kE2 = 3, kSvc = 4;

  CellLoop(std::uint64_t seed, Tracer* tracer)
      : tracer_(tracer), testbed_(make_testbed(seed)),
        agent_(env::ControlGrid{}, agent_config()) {
    using net::BackpressurePolicy;
    using net::MuxEndpoint;
    nn_s_ = MuxEndpoint::listen(&loop_, 0, link("nn/nearrt", &nearrt_ready_));
    e2m_s_ = MuxEndpoint::listen(&loop_, 0, link("e2m/env", &env_ready_));
    svcm_s_ = MuxEndpoint::listen(&loop_, 0, link("svcm/env", &env_ready_));
    net::Transport* a1_s = nn_s_->open_stream(
        kA1, stream("a1/nearrt", BackpressurePolicy::kBlock));
    net::Transport* o1_s = nn_s_->open_stream(
        kO1, stream("o1/nearrt", BackpressurePolicy::kShedOldest));
    net::Transport* e2_s = e2m_s_->open_stream(
        kE2, stream("e2/env", BackpressurePolicy::kBlock));
    net::Transport* svc_s = svcm_s_->open_stream(
        kSvc, stream("svc/env", BackpressurePolicy::kBlock));
    nn_c_ = MuxEndpoint::connect(&loop_, "127.0.0.1", nn_s_->local_port(),
                                 link("nn/nonrt", &nonrt_ready_));
    svcm_c_ = MuxEndpoint::connect(&loop_, "127.0.0.1", svcm_s_->local_port(),
                                   link("svcm/nonrt", &nonrt_ready_));
    e2m_c_ = MuxEndpoint::connect(&loop_, "127.0.0.1", e2m_s_->local_port(),
                                  link("e2m/nearrt", &nearrt_ready_));
    net::Transport* a1_c = nn_c_->open_stream(
        kA1, stream("a1/nonrt", BackpressurePolicy::kBlock));
    net::Transport* o1_c = nn_c_->open_stream(
        kO1, stream("o1/nonrt", BackpressurePolicy::kShedOldest));
    net::Transport* svc_c = svcm_c_->open_stream(
        kSvc, stream("svc/nonrt", BackpressurePolicy::kBlock));
    net::Transport* e2_c = e2m_c_->open_stream(
        kE2, stream("e2/nearrt", BackpressurePolicy::kBlock));

    const auto wrap = [&](net::Transport* t, int depth,
                          const char* parent) -> net::Transport* {
      if (tracer_ == nullptr) return t;
      wrapped_.push_back(
          std::make_unique<TracedTransport>(t, tracer_, depth, parent));
      return wrapped_.back().get();
    };
    const int rd = kRoleDepth + 1, ld = kLearnerDepth + 1;
    nearrt_.emplace(wrap(a1_s, rd, kNearRtPoll), wrap(e2_c, rd, kNearRtPoll),
                    wrap(o1_s, rd, kNearRtPoll), &nearrt_ready_);
    envnode_.emplace(testbed_, wrap(e2_s, rd, kEnvPoll),
                     wrap(svc_s, rd, kEnvPoll), &env_ready_);
    nonrt_.emplace(wrap(a1_c, ld, kStep), wrap(o1_c, ld, kStep),
                   wrap(svc_c, ld, kStep), &nonrt_ready_);
    nearrt_thread_ = std::thread([this] {
      serve(&nearrt_ready_, kNearRtPoll, [this] { nearrt_->poll_once(); });
    });
    env_thread_ = std::thread([this] {
      serve(&env_ready_, kEnvPoll, [this] { envnode_->poll_once(); });
    });
  }

  ~CellLoop() {
    stop_.store(true);
    nearrt_ready_.notify();
    env_ready_.notify();
    if (nearrt_thread_.joinable()) nearrt_thread_.join();
    if (env_thread_.joinable()) env_thread_.join();
    // Nodes before streams, endpoints before the loop (member order).
  }

  CellLoop(const CellLoop&) = delete;
  CellLoop& operator=(const CellLoop&) = delete;

  static env::Testbed make_testbed(std::uint64_t seed) {
    env::TestbedConfig tcfg;
    tcfg.seed = seed;
    return env::make_static_testbed(kSnrDb, tcfg);
  }

  bool handshake() { return nonrt_->handshake(); }

  struct Period {
    std::size_t policy_index = 0;
    std::size_t safe_set_size = 0;
    bool fallback = false;
    env::Measurement m{};
    double select_us = 0, step_us = 0, update_us = 0, total_us = 0;
    double start_us = 0;
    double update_cpu_s = 0;  // process CPU time over update (traced runs)
  };

  /// One control period as the learner thread sees it.
  Period period() {
    Period p;
    const std::int64_t key = ++period_count_;
    period_key_.store(key, std::memory_order_relaxed);
    p.start_us = now_us();
    const env::Context ctx = nonrt_->context();
    const double t1 = now_us();
    const core::Decision d = agent_.select(ctx);
    const double t2 = now_us();
    p.m = nonrt_->step(d.policy);
    const double t3 = now_us();
    const double c3 = tracer_ != nullptr ? process_cpu_s() : 0.0;
    agent_.update(ctx, d.policy_index, p.m);
    const double t4 = now_us();
    if (tracer_ != nullptr) {
      p.update_cpu_s = process_cpu_s() - c3;
      tracer_->record("core.select", t1, t2, kLearnerDepth, key, kPeriod);
      tracer_->record(kStep, t2, t3, kLearnerDepth, key, kPeriod);
      tracer_->record("core.update", t3, t4, kLearnerDepth, key, kPeriod);
    }
    p.policy_index = d.policy_index;
    p.safe_set_size = d.safe_set_size;
    p.fallback = d.fell_back_to_s0;
    p.select_us = t2 - t1;
    p.step_us = t3 - t2;
    p.update_us = t4 - t3;
    p.total_us = t4 - p.start_us;
    return p;
  }

  const core::EdgeBol& agent() const { return agent_; }
  std::size_t degraded() const {
    return nonrt_->policy_delivery_failures() + nonrt_->kpi_losses();
  }
  std::vector<net::MuxEndpoint*> endpoints() const {
    return {nn_s_.get(), e2m_s_.get(), svcm_s_.get(),
            nn_c_.get(), svcm_c_.get(), e2m_c_.get()};
  }

 private:
  template <typename F>
  void serve(net::ReadySignal* ready, const char* span, F poll) {
    while (!stop_.load(std::memory_order_acquire)) {
      {
        ScopedSpan s(tracer_, span, kRoleDepth,
                     period_key_.load(std::memory_order_relaxed), kStep);
        poll();
      }
      ready->wait(50);
    }
  }

  Tracer* tracer_;
  // Declaration order is teardown order in reverse: the loop outlives the
  // endpoints, the endpoints outlive the nodes that use their streams.
  net::EventLoop loop_;
  net::ReadySignal nonrt_ready_, nearrt_ready_, env_ready_;
  std::unique_ptr<net::MuxEndpoint> nn_s_, e2m_s_, svcm_s_;
  std::unique_ptr<net::MuxEndpoint> nn_c_, svcm_c_, e2m_c_;
  std::vector<std::unique_ptr<TracedTransport>> wrapped_;
  env::Testbed testbed_;
  std::optional<oran::NearRtRicNode> nearrt_;
  std::optional<oran::EnvNode> envnode_;
  std::optional<oran::NonRtRicNode> nonrt_;
  core::EdgeBol agent_;
  std::int64_t period_count_ = 0;              // learner thread only
  std::atomic<std::int64_t> period_key_{-1};  // read by the role threads
  std::atomic<bool> stop_{false};
  std::thread nearrt_thread_;
  std::thread env_thread_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_measurement(const env::Measurement& a, const env::Measurement& b) {
  return same_bits(a.delay_s, b.delay_s) && same_bits(a.map, b.map) &&
         same_bits(a.server_power_w, b.server_power_w) &&
         same_bits(a.bs_power_w, b.bs_power_w);
}

/// Builds a plane and fills the agent's budget; returns the fill periods.
std::unique_ptr<CellLoop> set_up(std::uint64_t seed, Tracer* tracer,
                                 std::vector<CellLoop::Period>* fill) {
  auto c = std::make_unique<CellLoop>(seed, tracer);
  if (!c->handshake()) throw std::runtime_error("cell_plane: handshake failed");
  while (c->agent().num_observations() < kBudget) {
    if (fill->size() >= kMaxFillPeriods)
      throw std::runtime_error("cell_plane: budget not filled");
    fill->push_back(c->period());
  }
  return c;
}

}  // namespace

void run_cell_plane(const Options& o, Result* r) {
  LoadBudget budget;
  budget.pool = hardware_threads();  // the NonRT learner thread + workers
  budget.event_loop = 1;
  budget.roles = 2;                  // NearRT and Env
  budget.connections = 3;
  // Lock-step: the pool computes only while NearRT, Env and the loop wait
  // for the next frame, so at most max(pool, 1 + roles + loop) threads are
  // busy at once.
  const std::size_t busy = std::max(budget.pool, 1 + budget.roles + 1);
  const std::string refused = check_budget(budget, busy);
  if (!refused.empty()) throw std::runtime_error(refused);

  Tracer tracer;
  Tracer* tp = o.trace ? &tracer : nullptr;

  // The window runs on the first plane built; the other kSetups - 1
  // set-ups are timed after it. A plane built after others sits on the
  // heap they freed, which glibc keeps resident (malloc_trim does not give
  // it back): after five set-ups the window's peak RSS was up to 200 MB
  // higher, by a different amount in every run.
  std::vector<double> setup_s;
  const auto timed_set_up = [&](std::vector<CellLoop::Period>* fill) {
    const double t0 = now_us();
    std::unique_ptr<CellLoop> plane = set_up(o.seed, tp, fill);
    setup_s.push_back((now_us() - t0) / 1e6);
    return plane;
  };
  std::vector<CellLoop::Period> fill;
  std::unique_ptr<CellLoop> c = timed_set_up(&fill);

  // Steady state: the window opens on a full observation budget.
  r->check(c->agent().num_observations() == kBudget,
           "cell_plane: window opened below the observation budget");

  const std::vector<net::MuxEndpoint*> eps = c->endpoints();
  const NetCounters net0 = NetCounters::of(eps);
  const std::size_t degraded0 = c->degraded();
  const double cpu0 = process_cpu_s();
  const CpuTicks ticks0 = CpuTicks::read();
  const double w0 = now_us();
  std::vector<CellLoop::Period> win;
  win.reserve(4096);
  for (std::size_t k = 0;; ++k) {
    if (k >= kMinPeriods && now_us() - w0 >= o.seconds * 1e6) break;
    // Traced runs alternate traced and untraced periods, so the tracing
    // overhead is measured on interleaved samples of the same window.
    tracer.set_enabled(o.trace && k % 2 == 0);
    win.push_back(c->period());
  }
  tracer.set_enabled(false);
  const double wall_s = (now_us() - w0) / 1e6;
  const double busy_measured = (process_cpu_s() - cpu0) / wall_s;
  const double steal = CpuTicks::read().steal_share_since(ticks0);
  const NetCounters net1 = NetCounters::of(eps);
  const std::size_t degraded = c->degraded() - degraded0;
  const double rss_mb = peak_rss_mb();  // before any teardown or check
  c.reset();  // stops the role threads before the spans are read

  for (int i = 1; i < kSetups; ++i) {
    std::vector<CellLoop::Period> again;
    timed_set_up(&again);
    bool same = again.size() == fill.size();
    for (std::size_t k = 0; same && k < fill.size(); ++k)
      same = again[k].policy_index == fill[k].policy_index;
    r->check(same, "cell_plane: set-ups filled differently");
  }

  // Outcomes.
  const core::ConstraintSpec cs = agent_config().constraints;
  const core::CostWeights w = agent_config().weights;
  std::vector<double> period_ms, select_ms, update_ms, step_ms;
  std::vector<double> traced_ms, untraced_ms;
  // energy_cost averages the first kCostPeriods window periods, so it is a
  // function of the seed alone, however many periods the window held.
  double cost = 0.0, safe = 0.0;
  double update_cpu_s = 0.0, update_wall_s = 0.0;
  std::size_t cost_n = 0, violations = 0, fallbacks = 0, bad_kpi = 0;
  for (std::size_t k = 0; k < win.size(); ++k) {
    const auto& p = win[k];
    period_ms.push_back(p.total_us / 1e3);
    select_ms.push_back(p.select_us / 1e3);
    update_ms.push_back(p.update_us / 1e3);
    step_ms.push_back(p.step_us / 1e3);
    update_cpu_s += p.update_cpu_s;
    update_wall_s += p.update_us / 1e6;
    (k % 2 == 0 ? traced_ms : untraced_ms).push_back(p.total_us / 1e3);
    const double u = w.cost(p.m.server_power_w, p.m.bs_power_w);
    if (!std::isfinite(u)) {
      ++bad_kpi;
      continue;
    }
    if (k < kCostPeriods) {
      cost += u;
      ++cost_n;
    }
    safe += static_cast<double>(p.safe_set_size);
    fallbacks += p.fallback;
    violations += p.m.delay_s > cs.d_max_s * 1.05 || p.m.map < cs.map_min - 0.03;
  }
  const double n = static_cast<double>(win.size());
  const std::size_t misses = std::min(win.size(), degraded + bad_kpi);
  r->attempted = win.size();
  r->failed = misses;

  // Correctness: an in-process EdgeBol on the in-process O-RAN loopback,
  // same seed, reproduces every decision and measurement bit for bit.
  {
    env::Testbed tb = CellLoop::make_testbed(o.seed);
    oran::OranManagedTestbed managed(tb);
    core::EdgeBol ref(env::ControlGrid{}, agent_config());
    std::size_t mismatch = 0, first_bad = 0;
    std::size_t i = 0;
    for (const auto* seq : {&fill, &win}) {
      for (const CellLoop::Period& p : *seq) {
        const env::Context ctx = managed.context();
        const core::Decision d = ref.select(ctx);
        const env::Measurement m = managed.step(d.policy);
        ref.update(ctx, d.policy_index, m);
        if (d.policy_index != p.policy_index || !same_measurement(m, p.m)) {
          if (mismatch++ == 0) first_bad = i;
        }
        ++i;
      }
    }
    r->check(mismatch == 0,
             "cell_plane: plane diverged from the in-process agent at period " +
                 std::to_string(first_bad) + " (" + std::to_string(mismatch) +
                 " periods differ)");
    r->note("reference: " + std::to_string(i) +
            " periods (fill + window) match the in-process agent: " +
            (mismatch == 0 ? "yes" : "NO"));
  }

  const double p50 = percentile(period_ms, 50.0);
  const double p90 = percentile(period_ms, 90.0);
  const double p99 = percentile(period_ms, 99.0);
  // Wire frames per period over the median period: the plane's frame rate
  // at its typical period, unmoved by a few slow periods.
  const double frames_s =
      (net1.frames_rx - net0.frames_rx) / static_cast<double>(win.size()) /
      (p50 / 1e3);
  r->add_e2e("setup_s", percentile(setup_s, 50.0), "s");
  r->add_e2e("latency_p50_ms", p50, "ms");
  r->add_e2e("frames_per_s", frames_s, "1/s");
  const double energy = cost / static_cast<double>(std::max<std::size_t>(1, cost_n));
  r->add_e2e("energy_cost", energy, "mu");
  r->add_e2e("peak_rss_mb", rss_mb, "MB");

  r->note("workload cell_plane: " + std::to_string(win.size()) +
          " periods in " + fmt(wall_s, 2) + " s window after " +
          std::to_string(fill.size()) + " fill periods");
  r->note("  setup_s " + fmt(percentile(setup_s, 50.0)) + " s (median of " +
          std::to_string(kSetups) + ")");
  r->note("  period_p50_ms " + fmt(p50) + " ms, period_p90_ms " + fmt(p90) +
          " ms, period_p99_ms " + fmt(p99) +
          " ms (" + std::to_string(win.size()) + " samples)");
  r->note("  frames_per_s " + fmt(frames_s, 1) + " 1/s (wire frames delivered)");
  r->note("  energy_cost " + fmt(energy) + " mu (first " +
          std::to_string(cost_n) + " window periods)");
  r->note("  violation_share " + fmt(violations / n) + ", miss_share " +
          fmt(misses / n) + " (" + std::to_string(misses) + " of " +
          std::to_string(win.size()) + ")");
  r->note("  peak_rss_mb " + fmt(rss_mb, 1) + " MB");

  r->add_record("budget", budget_json(budget, busy));
  r->add_record("busy_threads_measured", fmt(busy_measured, 3));
  r->add_record("cpu_steal_share", fmt(steal, 4));
  r->add_record("window_s", fmt(wall_s, 3));
  r->add_record("samples", std::to_string(win.size()));

  if (!o.trace) return;

  // The tail swings too much run to run on a shared 4-vCPU host to carry a
  // regression bound; the p90 and p99 are reported here, unbounded.
  r->add_layer("bench.latency_p90_ms", p90, "ms");
  r->add_layer("bench.latency_p99_ms", p99, "ms");

  // Per-layer metrics.
  r->add_layer("core.select_ms.p50", percentile(select_ms, 50.0), "ms");
  r->add_layer("core.select_ms.p99", percentile(select_ms, 99.0), "ms");
  r->add_layer("core.update_ms.p50", percentile(update_ms, 50.0), "ms");
  r->add_layer("core.update_ms.p99", percentile(update_ms, 99.0), "ms");
  r->add_layer("oran.step_ms.p50", percentile(step_ms, 50.0), "ms");
  r->add_layer("oran.step_ms.p99", percentile(step_ms, 99.0), "ms");
  r->add_layer("core.safe_set_size.mean", safe / std::max(1.0, n - bad_kpi),
               "count");
  r->add_layer("core.fallback_share", fallbacks / n, "share");
  // The other threads wait while the learner updates, so the process's CPU
  // time over update is the pool's: this is how busy update keeps it.
  r->add_layer("common.pool_efficiency",
               update_cpu_s / (update_wall_s * static_cast<double>(budget.pool)),
               "share");
  add_net_layers(net0, net1, r);
  r->add_layer("miss_share", misses / n, "share");
  r->add_layer("violation_share", violations / n, "share");
  const double tr = percentile(traced_ms, 50.0);
  const double un = percentile(untraced_ms, 50.0);
  r->add_layer("bench.trace_overhead_pct", 100.0 * (tr - un) / un, "%");
  r->note("  tracing overhead: period p50 traced " + fmt(tr) +
          " ms vs untraced " + fmt(un) + " ms");

  // Attribution over the traced periods: learner calls are children of the
  // period; role-thread spans count only inside the step they serve.
  const std::vector<Span> spans = tracer.collect();
  const SpanIndex index(spans);
  std::vector<Attribution> roots;
  std::vector<const Span*> kids, own;
  std::vector<Span> clipped;
  for (std::size_t k = 0; k < win.size(); k += 2) {
    const double b = win[k].start_us, e = b + win[k].total_us;
    kids.clear();
    own.clear();
    clipped.clear();
    index.overlapping(b, e, "", &kids);
    const Span* step = nullptr;
    for (const Span* s : kids) {
      if (s->depth != kLearnerDepth) continue;  // select, step, update
      own.push_back(s);
      if (std::strcmp(s->name, kStep) == 0) step = s;
    }
    clipped.reserve(kids.size());  // `own` points into it
    for (const Span* s : kids) {
      if (s->depth == kLearnerDepth || step == nullptr) continue;
      Span cs = *s;  // the learner's transport calls and the role threads
      cs.start_us = std::max(cs.start_us, step->start_us);
      cs.end_us = std::min(cs.end_us, step->end_us);
      if (cs.end_us > cs.start_us) clipped.push_back(cs);
    }
    for (const Span& s : clipped) own.push_back(&s);
    roots.push_back(attribute(b, e, own));
  }
  report_attribution(roots, r);

  std::ofstream os(o.out_dir + "/cell_plane_seed" + std::to_string(o.seed) +
                   ".spans.tsv");
  write_spans(os, spans);
}

}  // namespace pb
