// Library-facing helpers shared by the workloads: endpoint counters and a
// tracing decorator for net::Transport. Built only on the library's public
// headers.

#pragma once

#include <edgebol/edgebol.hpp>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

using namespace edgebol;

/// Sum of MuxEndpointStats over a set of endpoints at one instant.
struct NetCounters {
  double frames_rx = 0, frames_tx = 0, readv = 0, writev = 0;
  double recv_pauses = 0, scratch = 0, readv_ms = 0, decode_ms = 0;
  double link_faults = 0;  // reconnects, peer timeouts, decode resets, sheds

  static NetCounters of(const std::vector<net::MuxEndpoint*>& eps) {
    NetCounters c;
    for (const net::MuxEndpoint* ep : eps) {
      const net::MuxEndpointStats s = ep->stats();
      c.frames_rx += static_cast<double>(s.link.frames_received);
      c.frames_tx += static_cast<double>(s.link.frames_sent);
      c.readv += static_cast<double>(s.readv_calls);
      c.writev += static_cast<double>(s.writev_calls);
      c.recv_pauses += static_cast<double>(s.link.recv_pauses);
      c.scratch += static_cast<double>(s.scratch_copies);
      c.readv_ms += s.readv_wall_ms;
      c.decode_ms += s.decode_wall_ms;
      c.link_faults += static_cast<double>(
          s.link.reconnects + s.link.peer_timeouts + s.link.decode_resets +
          s.link.send_shed + s.link.recv_shed + s.unknown_stream_frames);
    }
    return c;
  }

  /// Adds the change from `a` to `b` to each counter.
  void add_change(const NetCounters& a, const NetCounters& b) {
    frames_rx += b.frames_rx - a.frames_rx;
    frames_tx += b.frames_tx - a.frames_tx;
    readv += b.readv - a.readv;
    writev += b.writev - a.writev;
    recv_pauses += b.recv_pauses - a.recv_pauses;
    scratch += b.scratch - a.scratch;
    readv_ms += b.readv_ms - a.readv_ms;
    decode_ms += b.decode_ms - a.decode_ms;
    link_faults += b.link_faults - a.link_faults;
  }
};

/// Adds the net.* layer metrics for the change between two snapshots.
inline void add_net_layers(const NetCounters& a, const NetCounters& b,
                           Result* r) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  r->add_layer("net.frames_per_readv",
               ratio(b.frames_rx - a.frames_rx, b.readv - a.readv), "count");
  r->add_layer("net.frames_per_writev",
               ratio(b.frames_tx - a.frames_tx, b.writev - a.writev), "count");
  r->add_layer("net.readv_wall_ms", b.readv_ms - a.readv_ms, "ms");
  r->add_layer("net.decode_wall_ms", b.decode_ms - a.decode_ms, "ms");
  r->add_layer("net.recv_pauses", b.recv_pauses - a.recv_pauses, "count");
  r->add_layer("net.scratch_copies", b.scratch - a.scratch, "count");
}

/// net::Transport decorator recording a span around every send, drain and
/// receive of the wrapped transport.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport* inner, Tracer* tracer, int depth,
                  const char* parent)
      : inner_(inner), tracer_(tracer), depth_(depth), parent_(parent) {}

  net::SendResult send(const std::string& frame) override {
    ScopedSpan s(tracer_, "net.send", depth_, -1, parent_);
    return inner_->send(frame);
  }
  std::vector<std::string> drain() override {
    ScopedSpan s(tracer_, "net.drain", depth_, -1, parent_);
    return inner_->drain();
  }
  std::optional<std::string> receive(int timeout_ms) override {
    ScopedSpan s(tracer_, "net.receive", depth_, -1, parent_);
    return inner_->receive(timeout_ms);
  }
  bool connected() const override { return inner_->connected(); }
  const std::string& name() const override { return inner_->name(); }

 private:
  net::Transport* inner_;
  Tracer* tracer_;
  int depth_;
  const char* parent_;
};

}  // namespace pb
