// kpi_ingest: an O1-style telemetry stream, one way and in bulk.
//
// One generator thread sends 98-byte fleet-codec indications round-robin
// on 1000 streams over 4 mux connections (kBlock streams: a full queue
// blocks the generator, nothing is shed). One consumer thread calls
// drain_all on the four receiving endpoints and decode_fleet_indication on
// every frame, and checks each frame bit for bit against the frame the
// seed says that stream's sequence number carries, in per-stream order.
// It runs no learner. frames_per_s counts frames delivered, decoded and
// verified per wall second; latency is a timed frame's age from its send()
// call to its verification (under kBlock backpressure mostly the time it
// queues behind the streams' bounded backlog); energy_cost is
// the mean weighted cost u = p_server + 8 p_bs over the first kCostFrames
// KPI frames of every stream (what an O1 collector would aggregate).
//
// Set-up is four connections, 1000 streams and the first kPrimeFrames
// frames of every stream delivered and checked. The window is split over
// kRounds rounds, each on a fresh set-up with fresh threads; the set-up is
// timed kSetupsPerRound times before each round, on one CPU.

#include <malloc.h>
#include <sched.h>

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

constexpr std::size_t kStreams = 1000;
constexpr std::size_t kConnections = 4;
constexpr std::int64_t kPrimeFrames = 16;  // set-up frames per stream
constexpr std::uint64_t kSampleEvery = 16;  // frames timed: send, then age
constexpr std::size_t kStampSlots = 256;    // per-stream ring of send stamps
constexpr std::int64_t kCostFrames = 500;  // energy_cost: first frames per stream
constexpr double kSliceUs = 100e3;         // trace on/off slice
constexpr double kIdleDrainUs = 1e6;  // end-of-round drain: stop after 1 s idle
constexpr double kStallUs = 250e3;    // no delivery this long: the tail is stranded
constexpr int kRounds = 5;            // measured windows per run
constexpr int kSetupsPerRound = 5;    // timed set-ups before each round
constexpr double kWarmupS = 0.5;      // per round, at most a tenth of --seconds

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) {  // [0, 1)
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The indication stream `s` carries as its `seq`-th frame under `seed`.
oran::FleetIndication frame_for(std::uint64_t seed, std::size_t s,
                                std::int64_t seq) {
  std::uint64_t h = mix(seed ^ mix(static_cast<std::uint64_t>(s) << 32 ^
                                   static_cast<std::uint64_t>(seq)));
  const auto next = [&h] { return unit(h = mix(h)); };
  oran::FleetIndication ind;
  ind.period = seq;
  ind.ctx.n_users = 1.0 + std::floor(4.0 * next());
  ind.ctx.cqi_mean = 3.0 + 12.0 * next();
  ind.ctx.cqi_var = 2.0 * next();
  ind.has_feedback = true;
  ind.policy_index = static_cast<std::uint64_t>(14641.0 * next());
  ind.prev_ctx = ind.ctx;
  ind.meas.delay_s = 0.1 + 0.5 * next();
  ind.meas.map = 0.3 + 0.6 * next();
  ind.meas.server_power_w = 60.0 + 180.0 * next();
  ind.meas.bs_power_w = 3.0 + 6.0 * next();
  return ind;
}

net::MuxEndpointConfig link(const std::string& name, net::ReadySignal* ready) {
  net::MuxEndpointConfig cfg;
  cfg.name = name;
  cfg.ready = ready;
  return cfg;
}

net::MuxStreamConfig stream(std::size_t s) {
  net::MuxStreamConfig cfg;
  cfg.name = "kpi/" + std::to_string(s);
  cfg.policy = net::BackpressurePolicy::kBlock;
  return cfg;
}

/// Connection k's flush stream carries empty frames that only pump the
/// connection's stream queues (see Ingest::nudge); it sheds, so a nudge
/// never blocks.
std::uint64_t flush_id(std::size_t k) { return kStreams + 1 + k; }

net::MuxStreamConfig flush_stream(std::size_t k) {
  net::MuxStreamConfig cfg;
  cfg.name = "kpi-flush/" + std::to_string(k);
  cfg.policy = net::BackpressurePolicy::kShedOldest;
  return cfg;
}

/// Four connections carrying 1000 streams, both ends in this process. All
/// eight endpoints share one wakeup: link changes end the set-up wait and
/// frame arrivals wake the consumer.
class Ingest {
 public:
  Ingest() {
    for (std::size_t k = 0; k < kConnections; ++k)
      rx_.push_back(net::MuxEndpoint::listen(
          &loop_, 0, link("kpi-rx/" + std::to_string(k), &ready_)));
    for (std::size_t k = 0; k < kConnections; ++k)
      tx_.push_back(net::MuxEndpoint::connect(
          &loop_, "127.0.0.1", rx_[k]->local_port(),
          link("kpi-tx/" + std::to_string(k), &ready_)));
    for (std::size_t s = 0; s < kStreams; ++s) {
      rx_[s % kConnections]->open_stream(s + 1, stream(s));
      streams_.push_back(tx_[s % kConnections]->open_stream(s + 1, stream(s)));
    }
    for (std::size_t k = 0; k < kConnections; ++k) {
      rx_[k]->open_stream(flush_id(k), flush_stream(k));
      flush_.push_back(tx_[k]->open_stream(flush_id(k), flush_stream(k)));
    }
    const double deadline = now_us() + 10e6;
    for (;;) {
      bool up = true;
      for (std::size_t k = 0; k < kConnections; ++k)
        up = up && rx_[k]->established() && tx_[k]->established();
      if (up) break;
      if (now_us() > deadline)
        throw std::runtime_error("kpi_ingest: connections not established");
      ready_.wait(10);
    }
  }

  /// Sends each stream's first kPrimeFrames frames and waits until every
  /// one has arrived bit-exact and in order: the set-up ends with all 1000
  /// streams carrying traffic. The window's generator starts over at each
  /// stream's first frame.
  void prime(std::uint64_t seed) {
    std::string buf;
    for (std::int64_t q = 0; q < kPrimeFrames; ++q) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        oran::encode(frame_for(seed, s, q), &buf);
        if (streams_[s]->send(buf) != net::SendResult::kQueued)
          throw std::runtime_error("kpi_ingest: set-up frame refused");
      }
    }
    std::vector<std::int64_t> next(kStreams, 0);
    std::vector<net::StreamFrame> frames;
    const std::size_t total = kStreams * static_cast<std::size_t>(kPrimeFrames);
    const double deadline = now_us() + 10e6;
    double progress_us = now_us();
    for (std::size_t got = 0; got < total;) {
      const double t = now_us();
      if (t > deadline)
        throw std::runtime_error("kpi_ingest: set-up frames not delivered");
      if (t - progress_us > kStallUs) nudge();
      ready_.wait(5);
      for (std::size_t k = 0; k < kConnections; ++k) {
        frames.clear();
        rx_[k]->drain_all(&frames);
        if (!frames.empty()) progress_us = now_us();
        for (const net::StreamFrame& f : frames) {
          if (f.stream_id > kStreams) continue;  // a nudge
          const std::size_t s = static_cast<std::size_t>(f.stream_id) - 1;
          if (s < kStreams) oran::encode(frame_for(seed, s, next[s]), &buf);
          if (s >= kStreams || next[s] >= kPrimeFrames || f.payload != buf)
            throw std::runtime_error("kpi_ingest: set-up frame corrupted");
          ++next[s];
          ++got;
        }
      }
    }
  }

  Ingest(const Ingest&) = delete;
  Ingest& operator=(const Ingest&) = delete;

  /// Sends an empty frame on every connection's flush stream, which makes
  /// each sending endpoint pump its stream queues. This works around a
  /// MuxEndpoint defect: when a writev hits EAGAIN, the stream queues keep
  /// a backlog; the heartbeat tick then flushes the staged bytes and
  /// disarms POLLOUT without pumping those queues again, so the backlog
  /// waits for the connection's next send. A sender that has stopped
  /// never makes one, and its tail would never leave.
  void nudge() {
    for (net::MuxTransport* f : flush_) f->send(std::string());
  }

  net::MuxTransport* tx_stream(std::size_t s) { return streams_[s]; }
  net::MuxEndpoint& rx(std::size_t k) { return *rx_[k]; }
  net::ReadySignal& ready() { return ready_; }
  std::vector<net::MuxEndpoint*> endpoints() const {
    std::vector<net::MuxEndpoint*> eps;
    for (const auto& e : rx_) eps.push_back(e.get());
    for (const auto& e : tx_) eps.push_back(e.get());
    return eps;
  }

 private:
  net::EventLoop loop_;  // outlives the endpoints (declared first)
  net::ReadySignal ready_;
  std::vector<std::unique_ptr<net::MuxEndpoint>> rx_, tx_;
  std::vector<net::MuxTransport*> streams_;
  std::vector<net::MuxTransport*> flush_;  // one per connection
};

/// Pins the calling thread, and the threads it starts meanwhile, to one
/// CPU until destroyed. Set-up is ~15 ms of hand-offs between this thread
/// and the event loop's; on several CPUs the scheduler's placement of the
/// two moved the median set-up time by a fifth or more from one process to
/// the next, on one CPU by a few percent.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

struct Stamp {
  std::atomic<std::int64_t> seq{-1};
  std::atomic<double> t_us{0.0};
};

/// A consumer pass: wait, drain, decode, verify.
struct Pass {
  double start_us = 0, end_us = 0;
};

/// What the rounds measured, summed over them.
struct Totals {
  std::uint64_t sent = 0, verified = 0, bad = 0, disorder = 0;
  std::uint64_t lost = 0, stranded = 0, refused = 0, cost_n = 0;
  double cost = 0.0, window_s = 0.0, cpu_s = 0.0, link_faults = 0.0;
  double traced_frames = 0, traced_us = 0, untraced_frames = 0, untraced_us = 0;
  std::vector<double> slice_rate;  // untraced 100 ms slices
  std::vector<double> age_ms, send_us, drain_us, decode_us;
  std::vector<Pass> passes;  // traced consumer passes
  NetCounters net;           // change over the measured windows
};

/// One round on a fresh, untimed set-up: the generator and the consumer
/// run `warmup_s` unmeasured (queues fill, caches warm), then `seconds`
/// measured in 100 ms slices (traced runs alternate traced and untraced
/// slices); then the generator stops and the consumer drains what it sent.
void run_round(const Options& o, double warmup_s, double seconds,
               Tracer* tracer, Totals* t) {
  Ingest in;
  in.prime(o.seed);
  const std::vector<net::MuxEndpoint*> eps = in.endpoints();
  const NetCounters primed = NetCounters::of(eps);
  const core::CostWeights w{1.0, 8.0};
  std::atomic<bool> stop{false}, gen_done{false}, measuring{false}, con_done{false};
  std::atomic<std::uint64_t> sent_total{0}, verified{0}, delivered{0};
  std::vector<Stamp> stamps(kStreams * kStampSlots);

  // The generator owns t->refused and t->send_us until it is joined.
  std::thread gen([&] {
    std::vector<std::int64_t> seq(kStreams, 0);
    std::string buf;
    std::uint64_t sent = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        const std::int64_t q = seq[s]++;
        const bool sample = static_cast<std::uint64_t>(q) % kSampleEvery == 0;
        const double t0 = sample ? now_us() : 0.0;
        oran::encode(frame_for(o.seed, s, q), &buf);
        if (sample) {
          Stamp& st = stamps[s * kStampSlots + (q / kSampleEvery) % kStampSlots];
          st.t_us.store(t0, std::memory_order_relaxed);
          st.seq.store(q, std::memory_order_release);
        }
        if (in.tx_stream(s)->send(buf) != net::SendResult::kQueued) ++t->refused;
        ++sent;
        if (sample) {
          const double t1 = now_us();
          tracer->record("oran.send", t0, t1, 2);
          if (measuring.load(std::memory_order_relaxed))
            t->send_us.push_back(t1 - t0);
        }
      }
    }
    sent_total.store(sent);
    gen_done.store(true);
  });

  // The consumer owns these, the cost and the per-frame timings in `t`
  // until it is joined.
  std::uint64_t bad = 0, disorder = 0, seen = 0;
  std::thread con([&] {
    std::vector<std::int64_t> expect(kStreams, 0);
    std::vector<net::StreamFrame> frames;
    std::vector<std::optional<oran::FleetIndication>> dec;
    std::string want;
    double last_progress = now_us();
    std::uint64_t seen_before = 0;
    for (;;) {
      if (seen != seen_before) {
        seen_before = seen;
        last_progress = now_us();
        delivered.store(seen, std::memory_order_relaxed);
      }
      if (gen_done.load()) {
        if (seen >= sent_total.load()) break;
        if (now_us() - last_progress > kIdleDrainUs) break;
      }
      const bool traced = tracer->enabled();
      const bool meas = measuring.load(std::memory_order_relaxed);
      Pass p;
      p.start_us = now_us();
      in.ready().wait(5);
      tracer->record("net.wait", p.start_us, now_us(), 2, -1, "bench.pass");
      for (std::size_t k = 0; k < kConnections; ++k) {
        // Freeing the previous batch's per-frame strings is part of the
        // net layer's per-frame cost.
        const double tc = now_us();
        frames.clear();
        const double t0 = now_us();
        tracer->record("net.release", tc, t0, 2, -1, "bench.pass");
        in.rx(k).drain_all(&frames);
        const double t1 = now_us();
        if (frames.empty()) continue;
        tracer->record("net.drain_all", t0, t1, 2, -1, "bench.pass");
        dec.resize(frames.size());
        for (std::size_t i = 0; i < frames.size(); ++i)
          dec[i] = oran::decode_fleet_indication(frames[i].payload);
        const double t2 = now_us();
        tracer->record("oran.decode", t1, t2, 2, -1, "bench.pass");
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (frames[i].stream_id > kStreams) continue;  // a nudge
          ++seen;
          const std::size_t s = static_cast<std::size_t>(frames[i].stream_id) - 1;
          if (s >= kStreams || !dec[i]) {
            ++bad;
            continue;
          }
          const std::int64_t q = expect[s];
          if (dec[i]->period != q) {
            ++disorder;
            expect[s] = dec[i]->period + 1;
            continue;
          }
          ++expect[s];
          oran::encode(frame_for(o.seed, s, q), &want);
          if (frames[i].payload != want) {
            ++bad;
            continue;
          }
          verified.fetch_add(1, std::memory_order_relaxed);
          if (q < kCostFrames) {
            t->cost += w.cost(dec[i]->meas.server_power_w, dec[i]->meas.bs_power_w);
            ++t->cost_n;
          }
          if (meas && static_cast<std::uint64_t>(q) % kSampleEvery == 0) {
            const Stamp& st =
                stamps[s * kStampSlots + (q / kSampleEvery) % kStampSlots];
            if (st.seq.load(std::memory_order_acquire) == q)
              t->age_ms.push_back(
                  (now_us() - st.t_us.load(std::memory_order_relaxed)) / 1e3);
          }
        }
        const double t3 = now_us();
        tracer->record("bench.verify", t2, t3, 2, -1, "bench.pass");
        if (meas) {
          const double n = static_cast<double>(frames.size());
          t->drain_us.push_back(t1 - t0);
          t->decode_us.push_back((t2 - t1) / n);
        }
      }
      p.end_us = now_us();
      if (traced && tracer->enabled()) t->passes.push_back(p);
    }
    con_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const NetCounters net0 = NetCounters::of(eps);
  const double cpu0 = process_cpu_s();
  measuring.store(true);
  const double w0 = now_us();
  const std::uint64_t v0 = verified.load();
  for (std::size_t k = 0;; ++k) {
    const double s0 = now_us();
    if (s0 - w0 >= seconds * 1e6) break;
    const bool on = o.trace && k % 2 == 0;
    tracer->set_enabled(on);
    const std::uint64_t f0 = verified.load();
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
        std::min(kSliceUs, seconds * 1e6 - (s0 - w0))));
    const double f = static_cast<double>(verified.load() - f0);
    const double us = now_us() - s0;
    (on ? t->traced_frames : t->untraced_frames) += f;
    (on ? t->traced_us : t->untraced_us) += us;
    if (!on && us >= 0.5 * kSliceUs) t->slice_rate.push_back(1e6 * f / us);
  }
  tracer->set_enabled(false);
  t->verified += verified.load() - v0;
  t->window_s += (now_us() - w0) / 1e6;
  measuring.store(false);
  t->cpu_s += process_cpu_s() - cpu0;
  t->net.add_change(net0, NetCounters::of(eps));
  stop.store(true);
  gen.join();
  const std::uint64_t sent = sent_total.load();

  // The consumer drains what the generator sent. If nothing arrives for
  // kStallUs, the rest is stranded in the sender's stream queues (see
  // Ingest::nudge): it is counted as stranded, and nudges then pump it
  // out, so every frame sent is still delivered and checked.
  std::uint64_t stranded = 0;
  bool stalled = false;
  std::uint64_t seen_last = delivered.load();
  double progress_us = now_us();
  while (!con_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t d = delivered.load();
    if (d != seen_last) {
      seen_last = d;
      progress_us = now_us();
    } else if (!stalled && now_us() - progress_us > kStallUs) {
      stalled = true;
      const double staged = NetCounters::of(eps).frames_tx - primed.frames_tx;
      stranded = sent - std::min<std::uint64_t>(sent, static_cast<std::uint64_t>(staged));
    }
    if (stalled) in.nudge();
  }
  con.join();
  const NetCounters end = NetCounters::of(eps);

  t->sent += sent;
  t->bad += bad;
  t->disorder += disorder;
  t->stranded += stranded;
  t->lost += sent > seen ? sent - seen : 0;
  t->link_faults += end.link_faults - primed.link_faults;
}

}  // namespace

void run_kpi_ingest(const Options& o, Result* r) {
  LoadBudget budget;
  budget.event_loop = 1;
  budget.generator = 2;  // generator and consumer
  budget.connections = kConnections;
  const std::size_t busy = budget.threads();
  const std::string refused = check_budget(budget, busy);
  if (!refused.empty()) throw std::runtime_error(refused);

  // The window is split over kRounds rounds, each with its own threads and
  // connections: where the scheduler puts the three busy threads moved the
  // whole-run throughput by a tenth or more from one process to the next,
  // and each round draws that placement again. Before each round the
  // set-up is timed kSetupsPerRound times on one CPU, so the set-up samples
  // spread over the run as well. peak_rss_mb is the median of the rounds'
  // peaks: the peak follows how far the consumer fell behind, and the
  // highest of five such peaks was the least steady figure.
  std::vector<double> setup_s, round_rss_mb;
  bool setup_pinned = true, rss_reset = true;
  Tracer tracer;
  Totals t;
  const CpuTicks ticks0 = CpuTicks::read();
  for (int k = 0; k < kRounds; ++k) {
    {
      const OneCpu one_cpu;
      setup_pinned = setup_pinned && one_cpu.pinned();
      for (int i = 0; i < kSetupsPerRound; ++i) {
        const double t0 = now_us();
        Ingest in;
        in.prime(o.seed);
        setup_s.push_back((now_us() - t0) / 1e6);
      }
    }
    malloc_trim(0);  // freed set-ups and rounds must not pad this round's peak
    rss_reset = reset_peak_rss() && rss_reset;
    run_round(o, std::min(kWarmupS, 0.1 * o.seconds), o.seconds / kRounds,
              &tracer, &t);
    round_rss_mb.push_back(peak_rss_mb());
  }
  const double steal = CpuTicks::read().steal_share_since(ticks0);
  const double rss_mb = percentile(round_rss_mb, 50.0);

  const std::uint64_t failed = t.bad + t.disorder + t.lost + t.refused;
  r->attempted = t.sent;
  r->failed = failed;
  r->check(t.sent > 0, "kpi_ingest: nothing sent");
  r->check(t.cost_n == kRounds * kStreams * static_cast<std::uint64_t>(kCostFrames),
           "kpi_ingest: energy_cost did not cover the first frames of every stream");
  r->check(t.bad == 0, "kpi_ingest: " + std::to_string(t.bad) +
                           " frames undecodable or not bit-exact");
  r->check(t.disorder == 0, "kpi_ingest: " + std::to_string(t.disorder) +
                                " frames out of per-stream order");
  r->check(t.lost == 0, "kpi_ingest: " + std::to_string(t.lost) + " frames lost");
  r->check(t.refused == 0, "kpi_ingest: sends refused");
  r->check(t.age_ms.size() >= kMinSamples, "kpi_ingest: fewer than 1000 timed frames");

  // frames_per_s is the median over the rounds' 100 ms slices, so a burst
  // of outside load moves the slices it hits, not the figure.
  const double frames_s = percentile(t.slice_rate, 50.0);
  const double p50 = percentile(t.age_ms, 50.0);
  const double p90 = percentile(t.age_ms, 90.0);
  const double p99 = percentile(t.age_ms, 99.0);
  const double u = t.cost / std::max<double>(1.0, static_cast<double>(t.cost_n));
  r->add_e2e("setup_s", percentile(setup_s, 50.0), "s");
  r->add_e2e("latency_p50_ms", p50, "ms");
  r->add_e2e("frames_per_s", frames_s, "1/s");
  r->add_e2e("energy_cost", u, "mu");
  r->add_e2e("peak_rss_mb", rss_mb, "MB");

  const double miss = static_cast<double>(failed) / std::max<double>(1.0, t.sent);
  r->note("workload kpi_ingest: " + std::to_string(t.verified) +
          " frames verified in " + std::to_string(kRounds) + " windows of " +
          fmt(t.window_s / kRounds, 2) + " s (" + std::to_string(t.sent) +
          " sent in the run)");
  r->note("  setup_s " + fmt(percentile(setup_s, 50.0), 6) + " s (median of " +
          std::to_string(setup_s.size()) + (setup_pinned ? ", on one CPU)" : ")"));
  r->note("  frames_per_s " + fmt(frames_s, 1) + " 1/s (median of " +
          std::to_string(t.slice_rate.size()) + " slices; all windows " +
          fmt(static_cast<double>(t.verified) / t.window_s, 1) + ")");
  r->note("  frame age p50 " + fmt(p50) + " ms, p90 " + fmt(p90) + " ms, p99 " +
          fmt(p99) + " ms (send to verified; " +
          std::to_string(t.age_ms.size()) + " timed frames)");
  r->note("  energy_cost " + fmt(u) + " mu (first " + std::to_string(kCostFrames) +
          " frames of every stream)");
  r->note("  stranded in the sender after it stopped: " +
          std::to_string(t.stranded) +
          " frames, delivered after nudges (known MuxEndpoint defect)");
  r->note("  miss_share " + fmt(miss, 6) + " (" + std::to_string(failed) +
          " of " + std::to_string(t.sent) + ")");
  r->note("  peak_rss_mb " + fmt(rss_mb, 1) + " MB (median of the " +
          std::to_string(kRounds) + " rounds' peaks)");

  r->add_record("stranded_after_stop", std::to_string(t.stranded));
  r->add_record("setup_on_one_cpu", setup_pinned ? "true" : "false");
  r->add_record("peak_rss_reset_per_round", rss_reset ? "true" : "false");
  r->add_record("link_faults", fmt(t.link_faults, 0));
  r->add_record("budget", budget_json(budget, busy));
  r->add_record("busy_threads_measured", fmt(t.cpu_s / t.window_s, 3));
  r->add_record("cpu_steal_share", fmt(steal, 4));
  r->add_record("window_s", fmt(t.window_s, 3));
  r->add_record("samples", std::to_string(t.age_ms.size()));

  if (!o.trace) return;

  // The tail swings too much run to run on a shared 4-vCPU host to carry a
  // regression bound; the p90 and p99 are reported here, unbounded.
  r->add_layer("bench.latency_p90_ms", p90, "ms");
  r->add_layer("bench.latency_p99_ms", p99, "ms");

  r->add_layer("oran.send_us.p50", percentile(t.send_us, 50.0), "us");
  r->add_layer("oran.drain_us.p50", percentile(t.drain_us, 50.0), "us");
  r->add_layer("oran.decode_us.p50", percentile(t.decode_us, 50.0), "us");
  add_net_layers(NetCounters{}, t.net, r);
  r->add_layer("net.stranded_frames", static_cast<double>(t.stranded), "count");
  r->add_layer("miss_share", miss, "share");
  const double tr = t.traced_us > 0 ? t.traced_frames / t.traced_us : 0.0;
  const double un = t.untraced_us > 0 ? t.untraced_frames / t.untraced_us : 0.0;
  r->add_layer("bench.trace_overhead_pct", un > 0 ? 100.0 * (un - tr) / un : 0.0,
               "%");
  r->note("  tracing overhead: frames_per_s traced " + fmt(1e6 * tr, 1) +
          " vs untraced " + fmt(1e6 * un, 1));

  // Attribution per traced consumer pass.
  const std::vector<Span> spans = tracer.collect();
  const SpanIndex index(spans);
  std::vector<Attribution> roots;
  std::vector<const Span*> kids;
  for (const Pass& p : t.passes) {
    kids.clear();
    index.overlapping(p.start_us, p.end_us, "", &kids);
    std::vector<const Span*> own;
    for (const Span* s : kids)
      if (std::strcmp(s->name, "oran.send") != 0) own.push_back(s);
    roots.push_back(attribute(p.start_us, p.end_us, own));
  }
  report_attribution(roots, r);

  std::ofstream os(o.out_dir + "/kpi_ingest_seed" + std::to_string(o.seed) +
                   ".spans.tsv");
  write_spans(os, spans);
}

}  // namespace pb
