// In-memory span tracer, nearest-rank percentiles and timeline attribution
// for the repo benchmark.
//
// Spans are recorded by the benchmark itself, around its calls into the
// library's public functions (the library carries no trace hooks). Each span
// has a name "<layer>.<what>", the name of the span that caused it, a
// start and end on the steady clock in µs, a priority depth and an optional
// key (the period or batch it belongs to). Recording appends to a per-thread buffer; nothing is written out
// until the run ends.
//
// Attribution. An end-to-end interval (the root) is split into elementary
// segments at every span boundary inside it. Each segment belongs to the
// deepest span active over it (ties: the span that started last); a segment
// no span covers belongs to the root itself and is reported as
// "unattributed". The self times of all spans plus the unattributed
// remainder therefore add up to the root's duration exactly, whatever the
// spans' threads or overlaps.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Microseconds on the steady clock since the first call in this process.
inline double now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch)
      .count();
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank ceil(p/100 * n), 1-based). p in (0, 100].
/// Returns NaN on an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The layer of a span name: everything before the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

struct Span {
  const char* name = "";  // string literal: "<layer>.<what>"
  double start_us = 0.0;
  double end_us = 0.0;
  int depth = 0;          // attribution priority: deeper wins
  std::int64_t key = -1;  // owning period / cell-period, -1 if none
  int thread = 0;         // recording thread's registration index
  const char* parent = "";  // name of the span that caused it (literal)
};

/// Collects spans from any number of threads. Recording is off unless
/// enabled; a disabled record() costs one relaxed load.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(const char* name, double start_us, double end_us, int depth,
              std::int64_t key = -1, const char* parent = "") {
    if (!enabled()) return;
    Buffer& b = buffer();
    b.spans.push_back(Span{name, start_us, end_us, depth, key, b.index, parent});
  }

  /// Every recorded span. Call only once the recording threads are joined.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_)
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
  }

 private:
  struct Buffer {
    int index = 0;
    std::vector<Span> spans;
  };

  Buffer& buffer() {
    // One buffer per (thread, tracer); the tracer owns it, the thread
    // caches a pointer. Tracers are never destroyed while a recording
    // thread runs (the workloads join every thread first).
    thread_local std::map<const Tracer*, Buffer*> cache;
    auto it = cache.find(this);
    if (it != cache.end()) return *it->second;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    Buffer* b = buffers_.back().get();
    b->index = static_cast<int>(buffers_.size()) - 1;
    b->spans.reserve(1 << 16);
    cache[this] = b;
    return *b;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int depth, std::int64_t key = -1,
             const char* parent = "")
      : t_(t), name_(name), parent_(parent), depth_(depth), key_(key),
        start_(t != nullptr && t->enabled() ? now_us() : 0.0) {}
  ~ScopedSpan() {
    if (t_ != nullptr && t_->enabled())
      t_->record(name_, start_, now_us(), depth_, key_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  const char* name_;
  const char* parent_;
  int depth_;
  std::int64_t key_;
  double start_;
};

/// Self time of one root interval, by layer.
struct Attribution {
  double total_us = 0.0;         // root duration
  double unattributed_us = 0.0;  // segments no span covers
  std::map<std::string, double> layer_us;  // self time per layer
};

/// Splits [root_start, root_end] among `spans` (clipped to it) by the
/// deepest-active-span rule in the file comment.
inline Attribution attribute(double root_start, double root_end,
                             const std::vector<const Span*>& spans) {
  Attribution a;
  a.total_us = root_end - root_start;
  std::vector<double> cuts{root_start, root_end};
  std::vector<const Span*> live;
  for (const Span* s : spans) {
    const double b = std::max(s->start_us, root_start);
    const double e = std::min(s->end_us, root_end);
    if (e <= b) continue;
    live.push_back(s);
    cuts.push_back(b);
    cuts.push_back(e);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double b = cuts[i], e = cuts[i + 1];
    const double mid = 0.5 * (b + e);
    const Span* owner = nullptr;
    for (const Span* s : live) {
      if (s->start_us > mid || s->end_us < mid) continue;
      if (owner == nullptr || s->depth > owner->depth ||
          (s->depth == owner->depth && s->start_us > owner->start_us))
        owner = s;
    }
    if (owner == nullptr) {
      a.unattributed_us += e - b;
    } else {
      a.layer_us[layer_of(owner->name)] += e - b;
    }
  }
  return a;
}

/// Spans sorted by start, for "which spans overlap [b, e]" queries.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans) : spans_(std::move(spans)) {
    std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
      return a.start_us < b.start_us;
    });
    for (const Span& s : spans_)
      max_len_ = std::max(max_len_, s.end_us - s.start_us);
  }

  /// Appends every span overlapping [b, e] whose name starts with `prefix`
  /// (empty = any).
  void overlapping(double b, double e, const std::string& prefix,
                   std::vector<const Span*>* out) const {
    auto it = std::lower_bound(
        spans_.begin(), spans_.end(), b - max_len_,
        [](const Span& s, double t) { return s.start_us < t; });
    for (; it != spans_.end() && it->start_us <= e; ++it) {
      if (it->end_us < b) continue;
      if (!prefix.empty() &&
          std::string(it->name).compare(0, prefix.size(), prefix) != 0)
        continue;
      out->push_back(&*it);
    }
  }

 private:
  std::vector<Span> spans_;
  double max_len_ = 0.0;
};

/// Writes spans as tab-separated lines: name parent start_us end_us depth
/// key thread.
inline void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "name\tparent\tstart_us\tend_us\tdepth\tkey\tthread\n";
  os.precision(12);
  for (const Span& s : spans)
    os << s.name << '\t' << s.parent << '\t' << s.start_us << '\t'
       << s.end_us << '\t' << s.depth << '\t' << s.key << '\t' << s.thread
       << '\n';
}

}  // namespace pb
