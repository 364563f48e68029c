#include "net/mux_transport.hpp"

#include <algorithm>
#include <chrono>

namespace edgebol::net {

namespace {

// High-water mark on staged-but-unwritten wire bytes: past this, frames stay
// in the bounded per-stream queues and backpressure reaches the senders
// instead of ballooning the staged queue. (One oversize frame may overshoot
// by up to max_frame_bytes; the bound is on when staging stops, not a cap.)
constexpr std::size_t kWireHighWater = 64u * 1024u;

// Most iovec entries per writev: enough to coalesce hundreds of frames per
// syscall while staying far under IOV_MAX (1024 on Linux).
constexpr std::size_t kMaxWriteIovecs = 256;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// MuxTransport: the per-stream Transport facade

SendResult MuxTransport::send(const std::string& frame) {
  return ep_->stream_send(this, frame);
}

std::vector<std::string> MuxTransport::drain() { return ep_->stream_drain(this); }

std::optional<std::string> MuxTransport::receive(int timeout_ms) {
  return ep_->stream_receive(this, timeout_ms);
}

bool MuxTransport::connected() const { return ep_->established(); }

TransportStats MuxTransport::stats() const {
  common::LockGuard lock(ep_->mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// MuxEndpoint: construction / destruction

std::unique_ptr<MuxEndpoint> MuxEndpoint::listen(EventLoop* loop,
                                                 std::uint16_t port,
                                                 MuxEndpointConfig cfg) {
  return std::make_unique<MuxEndpoint>(loop, std::move(cfg),
                                       /*is_server=*/true, "", port);
}

std::unique_ptr<MuxEndpoint> MuxEndpoint::connect(EventLoop* loop,
                                                  const std::string& host,
                                                  std::uint16_t port,
                                                  MuxEndpointConfig cfg) {
  return std::make_unique<MuxEndpoint>(loop, std::move(cfg),
                                       /*is_server=*/false, host, port);
}

MuxEndpoint::MuxEndpoint(EventLoop* loop, MuxEndpointConfig cfg,
                         bool is_server, std::string host, std::uint16_t port)
    : loop_(loop),
      cfg_(std::move(cfg)),
      is_server_(is_server),
      host_(std::move(host)),
      bound_port_(port),
      decoder_(cfg_.max_frame_bytes) {
  iov_.resize(kMaxWriteIovecs);
  if (cfg_.chaos.any()) {
    chaos_ = std::make_unique<ChaosShim>(cfg_.chaos, cfg_.chaos_seed);
  }
  {
    // Nothing races yet (the loop task is posted below), but taking the
    // lock keeps the guarded-member discipline uniform and costs nothing.
    common::LockGuard lock(mu_);
    if (is_server_) {
      // Bind synchronously so local_port() is valid the moment the factory
      // returns (the fleet plane hands ports to the client process/thread).
      listen_fd_ = tcp_listen(bound_port_);
      if (!listen_fd_.valid()) {
        state_ = LinkState::kClosed;
        closed_ = true;
        return;
      }
      bound_port_ = net::local_port(listen_fd_.get());
      state_ = LinkState::kListening;
    } else {
      state_ = LinkState::kConnecting;
    }
  }
  loop_->post([this] { setup_on_loop(); });
}

MuxEndpoint::~MuxEndpoint() {
  {
    common::LockGuard lock(mu_);
    closed_ = true;
  }
  cv_tx_.notify_all();
  cv_rx_.notify_all();
  // Same barrier protocol as TcpTransport: no stream send()/receive() may
  // run concurrently with destruction, so FIFO posting puts this after all
  // pending kicks, and a stopped loop runs it inline.
  loop_->post([this] { teardown_on_loop(); });
  common::MutexLock down_lock(down_mu_);
  down_cv_.wait(down_lock, [this] { return down_; });
}

MuxTransport* MuxEndpoint::open_stream(std::uint64_t id, MuxStreamConfig cfg) {
  if (id == 0) return nullptr;  // 0 is the heartbeat pseudo-stream
  common::LockGuard lock(mu_);
  auto it = by_id_.find(id);
  if (it != by_id_.end()) return it->second;
  streams_.push_back(std::make_unique<MuxTransport>(this, id, std::move(cfg)));
  MuxTransport* s = streams_.back().get();
  by_id_.emplace(id, s);
  return s;
}

// ---------------------------------------------------------------------------
// Application-thread interface

SendResult MuxEndpoint::stream_send(MuxTransport* s, const std::string& frame) {
  common::MutexLock lock(mu_);
  if (closed_) return SendResult::kClosed;
  if (frame.size() > cfg_.max_frame_bytes) {
    ++s->stats_.send_rejected;
    ++stats_.link.send_rejected;
    return SendResult::kRejected;
  }
  SendResult res = SendResult::kQueued;
  if (s->tx_.size() >= s->cfg_.max_send_queue) {
    switch (s->cfg_.policy) {
      case BackpressurePolicy::kBlock:
        ++s->stats_.send_block_waits;
        ++stats_.link.send_block_waits;
        cv_tx_.wait(lock, [this, s] {
          return closed_ || s->tx_.size() < s->cfg_.max_send_queue;
        });
        if (closed_) return SendResult::kClosed;
        break;
      case BackpressurePolicy::kShedOldest:
        s->tx_.pop_front();
        ++s->stats_.send_shed;
        ++stats_.link.send_shed;
        res = SendResult::kShed;
        break;
      case BackpressurePolicy::kReject:
        ++s->stats_.send_rejected;
        ++stats_.link.send_rejected;
        return SendResult::kRejected;
    }
  }
  s->tx_.push_back(frame);
  kick_locked();
  return res;
}

void MuxEndpoint::kick_locked() {
  if (kick_pending_) return;
  kick_pending_ = true;
  loop_->post([this] {
    {
      common::LockGuard kick_lock(mu_);
      kick_pending_ = false;
    }
    pump_tx();
  });
}

std::vector<std::string> MuxEndpoint::stream_drain(MuxTransport* s) {
  std::vector<std::string> out;
  common::LockGuard lock(mu_);
  out.reserve(s->rx_.size());
  while (!s->rx_.empty()) {
    out.push_back(std::move(s->rx_.front()));
    s->rx_.pop_front();
  }
  maybe_resume_rx_locked(s);
  return out;
}

std::optional<std::string> MuxEndpoint::stream_receive(MuxTransport* s,
                                                       int timeout_ms) {
  common::MutexLock lock(mu_);
  // The endpoint-wide cv means a frame for a sibling stream wakes us too;
  // the predicate re-checks our own queue, so that is just a spurious wake.
  cv_rx_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                  [this, s] { return closed_ || !s->rx_.empty(); });
  if (s->rx_.empty()) return std::nullopt;
  std::string frame = std::move(s->rx_.front());
  s->rx_.pop_front();
  maybe_resume_rx_locked(s);
  return frame;
}

std::size_t MuxEndpoint::drain_all(std::vector<StreamFrame>* out) {
  common::LockGuard lock(mu_);
  std::size_t n = 0;
  for (const auto& sp : streams_) {
    MuxTransport* s = sp.get();
    while (!s->rx_.empty()) {
      out->push_back(StreamFrame{s->id_, std::move(s->rx_.front())});
      s->rx_.pop_front();
      ++n;
    }
    maybe_resume_rx_locked(s);
  }
  return n;
}

void MuxEndpoint::maybe_resume_rx_locked(MuxTransport* s) {
  if (!s->rx_paused_ || closed_) return;
  if (s->rx_.size() > s->cfg_.max_recv_queue / 2) return;
  s->rx_paused_ = false;
  if (--rx_paused_streams_ == 0) {
    loop_->post([this] {
      if (conn_fd_.valid()) update_conn_events();
    });
  }
}

LinkState MuxEndpoint::state() const {
  common::LockGuard lock(mu_);
  return state_;
}

bool MuxEndpoint::established() const {
  common::LockGuard lock(mu_);
  return state_ == LinkState::kEstablished;
}

MuxEndpointStats MuxEndpoint::stats() const {
  common::LockGuard lock(mu_);
  return stats_;
}

void MuxEndpoint::force_disconnect() {
  loop_->post([this] {
    if (conn_fd_.valid()) disconnect(/*failure=*/true);
  });
}

void MuxEndpoint::notify_ready() {
  if (cfg_.ready != nullptr) cfg_.ready->notify();
}

// ---------------------------------------------------------------------------
// Loop-thread-only machinery (supervision mirrors TcpTransport)

void MuxEndpoint::setup_on_loop() {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (is_server_) {
    if (!listen_fd_.valid()) return;
    loop_->watch(listen_fd_.get(), POLLIN,
                 [this](short) { on_listen_readable(); });
  } else {
    start_connect();
  }
}

void MuxEndpoint::start_connect() {
  loop_->assert_on_loop_thread();  // affinity: loop
  {
    common::LockGuard lock(mu_);
    if (closed_) return;
    state_ = LinkState::kConnecting;
  }
  bool in_progress = false;
  Fd fd = tcp_connect(host_, bound_port_, &in_progress);
  if (!fd.valid()) {
    schedule_reconnect();
    return;
  }
  conn_fd_ = std::move(fd);
  if (in_progress) {
    loop_->watch(conn_fd_.get(), POLLOUT,
                 [this](short) { on_connect_writable(); });
  } else {
    on_connected();
  }
}

void MuxEndpoint::on_connect_writable() {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (!connect_finished(conn_fd_.get())) {
    loop_->unwatch(conn_fd_.get());
    conn_fd_.reset();
    schedule_reconnect();
    return;
  }
  on_connected();
}

void MuxEndpoint::schedule_reconnect() {
  loop_->assert_on_loop_thread();  // affinity: loop
  backoff_ms_ = backoff_ms_ == 0
                    ? cfg_.reconnect_base_ms
                    : std::min(backoff_ms_ * 2, cfg_.reconnect_max_ms);
  {
    common::LockGuard lock(mu_);
    if (closed_) return;
    state_ = LinkState::kBackoff;
    ++stats_.link.reconnects;
  }
  reconnect_timer_ = loop_->add_timer(backoff_ms_, [this] {
    reconnect_timer_ = 0;
    start_connect();
  });
  notify_ready();
}

void MuxEndpoint::on_listen_readable() {
  loop_->assert_on_loop_thread();  // affinity: loop
  for (;;) {
    Fd client = accept_client(listen_fd_.get());
    if (!client.valid()) break;
    if (conn_fd_.valid()) {
      // Adopt the newest peer (same rationale as TcpTransport): a silent
      // client-side death may leave the old socket half-open, and the
      // reconnecting client must not be refused because of it.
      loop_->unwatch(conn_fd_.get());
      conn_fd_.reset();
      decoder_.reset();
      wire_q_.clear();
      wire_bytes_ = 0;
      wire_off_ = 0;
      common::LockGuard lock(mu_);
      if (chaos_) chaos_->clear_held();
    }
    conn_fd_ = std::move(client);
    {
      common::LockGuard lock(mu_);
      ++stats_.link.accepts;
    }
    on_connected();
  }
}

void MuxEndpoint::on_connected() {
  loop_->assert_on_loop_thread();  // affinity: loop
  loop_->unwatch(conn_fd_.get());  // drop any connect-phase watch
  backoff_ms_ = 0;
  last_rx_ms_ = loop_->now_ms();
  {
    common::LockGuard lock(mu_);
    state_ = LinkState::kEstablished;
    if (chaos_ && !chaos_->armed()) chaos_->arm(last_rx_ms_);
  }
  loop_->watch(conn_fd_.get(), POLLIN, [this](short re) { on_conn_event(re); });
  update_conn_events();
  if (tick_timer_ == 0) {
    tick_timer_ = loop_->add_timer(cfg_.heartbeat_ms, [this] { tick(); });
  }
  notify_ready();
  pump_tx();  // queued frames from before (re)attach: per-stream redelivery
}

void MuxEndpoint::on_conn_event(short revents) {
  loop_->assert_on_loop_thread();  // affinity: loop
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    // Read even on HUP/ERR: pending bytes surface first, then EOF/error
    // lands in readv_some and disconnect() runs exactly once.
    on_readable();
  }
  if (!conn_fd_.valid()) return;  // on_readable tore the link down
  if ((revents & POLLOUT) != 0) pump_tx();
}

void MuxEndpoint::on_readable() {
  loop_->assert_on_loop_thread();  // affinity: loop
  double readv_ms = 0.0;
  for (;;) {
    struct iovec iov[2];
    const int cnt = decoder_.fill_iovecs(iov);
    if (cnt == 0) {
      // Ring full: a legal frame always fits (the ring holds one maximum
      // frame), so decoding is guaranteed to free space or poison.
      const std::size_t before = decoder_.buffered_bytes();
      bool fatal = false;
      dispatch_decoded(&fatal);
      if (fatal) return;
      if (decoder_.buffered_bytes() == before) {
        disconnect(/*failure=*/true);  // can't happen; refuse to spin
        return;
      }
      continue;
    }
    std::size_t n = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const IoStatus s = readv_some(conn_fd_.get(), iov, cnt, &n);
    readv_ms += ms_since(t0);
    if (s == IoStatus::kOk) {
      last_rx_ms_ = loop_->now_ms();  // any traffic counts as liveness
      decoder_.commit(n);
      {
        common::LockGuard lock(mu_);
        stats_.link.bytes_received += n;
        ++stats_.readv_calls;
      }
      bool fatal = false;
      dispatch_decoded(&fatal);
      if (fatal) return;
      continue;
    }
    if (s == IoStatus::kWouldBlock) break;
    {
      common::LockGuard lock(mu_);
      stats_.readv_wall_ms += readv_ms;
    }
    disconnect(/*failure=*/true);  // kEof or kError
    return;
  }
  {
    common::LockGuard lock(mu_);
    stats_.readv_wall_ms += readv_ms;
  }
  update_conn_events();
}

void MuxEndpoint::dispatch_decoded(bool* fatal) {
  loop_->assert_on_loop_thread();  // affinity: loop
  *fatal = false;
  const auto t0 = std::chrono::steady_clock::now();
  bool delivered = false;
  {
    // One lock hold dispatches the whole readv batch across stream queues.
    common::LockGuard lock(mu_);
    FrameView v;
    while (decoder_.next(&v)) {
      if (v.heartbeat) {
        ++stats_.link.heartbeats_received;
        continue;
      }
      auto it = by_id_.find(v.stream_id);
      if (it == by_id_.end()) {
        // Unknown stream: the frame is well-formed, so the connection is
        // healthy — count and drop rather than poison.
        ++stats_.unknown_stream_frames;
        continue;
      }
      MuxTransport* s = it->second;
      if (s->rx_.size() >= s->cfg_.max_recv_queue) {
        if (s->cfg_.policy == BackpressurePolicy::kShedOldest) {
          // Telemetry stream: shed its own oldest, never slow the pipe.
          s->rx_.pop_front();
          ++s->stats_.recv_shed;
          ++stats_.link.recv_shed;
        } else if (!s->rx_paused_) {
          // Lossless stream: soft bound — this frame lands, POLLIN pauses
          // connection-wide until the consumer drains below half (the
          // head-of-line price of sharing one TCP window).
          s->rx_paused_ = true;
          ++rx_paused_streams_;
          ++s->stats_.recv_pauses;
          ++stats_.link.recv_pauses;
        }
      }
      s->rx_.emplace_back(v.data, v.size);
      ++s->stats_.frames_received;
      s->stats_.bytes_received += v.size;
      ++stats_.link.frames_received;
      delivered = true;
    }
    stats_.scratch_copies = decoder_.scratch_copies();
    stats_.decode_wall_ms += ms_since(t0);
  }
  if (decoder_.poisoned()) {
    {
      common::LockGuard lock(mu_);
      ++stats_.link.decode_resets;
    }
    *fatal = true;
    disconnect(/*failure=*/true);
    return;
  }
  if (delivered) {
    cv_rx_.notify_all();
    notify_ready();
  }
}

void MuxEndpoint::disconnect(bool failure) {
  loop_->assert_on_loop_thread();  // affinity: loop
  (void)failure;
  if (conn_fd_.valid()) {
    loop_->unwatch(conn_fd_.get());
    conn_fd_.reset();
  }
  decoder_.reset();
  // Staged wire bytes die with the connection (exactly like TcpTransport's
  // out_buf_); frames still in per-stream queues survive and are pumped in
  // per-stream order on reattach.
  wire_q_.clear();
  wire_bytes_ = 0;
  wire_off_ = 0;
  for (std::uint64_t id : delay_timers_) loop_->cancel_timer(id);
  delay_timers_.clear();
  bool finished;
  {
    common::LockGuard lock(mu_);
    if (chaos_) chaos_->clear_held();
    finished = closed_;
    if (finished) {
      state_ = LinkState::kClosed;
    } else if (is_server_) {
      state_ = LinkState::kListening;
    }
  }
  if (finished) {
    notify_ready();
    return;
  }
  if (is_server_) {
    notify_ready();
  } else {
    schedule_reconnect();
  }
}

void MuxEndpoint::pump_tx() {
  loop_->assert_on_loop_thread();  // affinity: loop
  for (;;) {
    bool staged = false;
    bool backlog = false;
    {
      common::LockGuard lock(mu_);
      if (state_ != LinkState::kEstablished) return;
      const std::size_t n = streams_.size();
      // Round-robin, one frame per stream per sweep: per-stream fairness is
      // what keeps a deep shed-oldest backlog from starving a control
      // stream that shares the connection.
      while (n != 0 && wire_bytes_ < kWireHighWater) {
        bool any = false;
        for (std::size_t k = 0; k < n && wire_bytes_ < kWireHighWater; ++k) {
          MuxTransport* s = streams_[(rr_next_ + k) % n].get();
          if (s->tx_.empty()) continue;
          std::string payload = std::move(s->tx_.front());
          s->tx_.pop_front();
          any = true;
          staged = true;
          emit_locked(s->id_, std::move(payload), /*heartbeat=*/false,
                      &s->stats_);
        }
        rr_next_ = (rr_next_ + 1) % n;
        if (!any) break;
      }
      for (const auto& sp : streams_) {
        if (!sp->tx_.empty()) {
          backlog = true;
          break;
        }
      }
    }
    if (staged) cv_tx_.notify_all();
    if (!flush_staged()) return;  // EAGAIN (POLLOUT armed) or link down
    if (!backlog) break;
  }
  update_conn_events();
}

void MuxEndpoint::emit_locked(std::uint64_t stream_id, std::string payload,
                              bool heartbeat, TransportStats* stream_stats) {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (chaos_) {
    const auto emissions =
        chaos_->on_send(payload, loop_->now_ms(), &stats_.link);
    for (const ChaosEmission& em : emissions) {
      if (em.delay_ms <= 0) {
        stage_frame(stream_id, em.payload, heartbeat, stream_stats);
      } else {
        queue_delayed(stream_id, em, heartbeat, stream_stats);
      }
    }
    return;
  }
  stage_frame(stream_id, std::move(payload), heartbeat, stream_stats);
}

void MuxEndpoint::queue_delayed(std::uint64_t stream_id,
                                const ChaosEmission& em, bool heartbeat,
                                TransportStats* stream_stats) {
  loop_->assert_on_loop_thread();  // affinity: loop
  // Timed hold: re-stage when the timer fires, if the link is still up (a
  // dropped link drops held frames — the application retry layer owns
  // redelivery, as in TcpTransport).
  auto timer_id = std::make_shared<std::uint64_t>(0);
  *timer_id = loop_->add_timer(
      em.delay_ms,
      [this, stream_id, payload = em.payload, heartbeat, stream_stats,
       timer_id] {
        delay_timers_.erase(*timer_id);
        {
          common::LockGuard lock(mu_);
          if (state_ != LinkState::kEstablished) return;
          stage_frame(stream_id, payload, heartbeat, stream_stats);
        }
        if (!conn_fd_.valid()) return;
        pump_tx();  // same reason as in tick()
      });
  delay_timers_.insert(*timer_id);
}

void MuxEndpoint::stage_frame(std::uint64_t stream_id, std::string payload,
                              bool heartbeat, TransportStats* stream_stats) {
  loop_->assert_on_loop_thread();  // affinity: loop
  WireSeg seg;
  seg.hdr_len = static_cast<std::uint8_t>(
      heartbeat ? encode_mux_heartbeat(seg.hdr)
                : encode_mux_header(seg.hdr, stream_id, payload.size()));
  const std::size_t total = seg.hdr_len + payload.size();
  seg.payload = std::move(payload);
  wire_q_.push_back(std::move(seg));
  wire_bytes_ += total;
  if (heartbeat) {
    ++stats_.link.heartbeats_sent;
  } else {
    ++stats_.link.frames_sent;
    stats_.link.bytes_sent += total;
    if (stream_stats != nullptr) {
      ++stream_stats->frames_sent;
      stream_stats->bytes_sent += total;
    }
  }
}

bool MuxEndpoint::flush_staged() {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (!conn_fd_.valid()) return false;
  {
    common::LockGuard lock(mu_);
    if (state_ != LinkState::kEstablished) return false;
  }
  while (!wire_q_.empty()) {
    // Build one gather list over every staged frame (header + payload per
    // frame, partial-write offset folded into the first entries).
    int iovn = 0;
    std::size_t skip = wire_off_;
    const int cap = static_cast<int>(kMaxWriteIovecs);
    // hot: mux
    for (auto it = wire_q_.begin(); it != wire_q_.end() && iovn + 2 <= cap;
         ++it) {
      const WireSeg& seg = *it;
      const std::size_t hlen = seg.hdr_len;
      if (skip < hlen) {
        iov_[iovn].iov_base = const_cast<char*>(seg.hdr) + skip;
        iov_[iovn].iov_len = hlen - skip;
        ++iovn;
        skip = 0;
      } else {
        skip -= hlen;
      }
      if (seg.payload.size() > skip) {
        iov_[iovn].iov_base = const_cast<char*>(seg.payload.data()) + skip;
        iov_[iovn].iov_len = seg.payload.size() - skip;
        ++iovn;
      }
      skip = 0;
    }
    // hot: end
    std::size_t n = 0;
    const IoStatus s = writev_some(conn_fd_.get(), iov_.data(), iovn, &n);
    {
      common::LockGuard lock(mu_);
      ++stats_.writev_calls;
    }
    if (s == IoStatus::kOk && n > 0) {
      advance_wire(n);
      continue;
    }
    if (s == IoStatus::kWouldBlock || (s == IoStatus::kOk && n == 0)) {
      update_conn_events();  // arm POLLOUT for the remainder
      return false;
    }
    disconnect(/*failure=*/true);
    return false;
  }
  update_conn_events();
  return true;
}

void MuxEndpoint::advance_wire(std::size_t n) {
  loop_->assert_on_loop_thread();  // affinity: loop
  wire_bytes_ -= n;
  n += wire_off_;
  wire_off_ = 0;
  while (n > 0 && !wire_q_.empty()) {
    const WireSeg& front = wire_q_.front();
    const std::size_t total = front.hdr_len + front.payload.size();
    if (n >= total) {
      n -= total;
      wire_q_.pop_front();
    } else {
      wire_off_ = n;
      n = 0;
    }
  }
}

void MuxEndpoint::update_conn_events() {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (!conn_fd_.valid()) return;
  short events = 0;
  {
    common::LockGuard lock(mu_);
    if (rx_paused_streams_ == 0) events |= POLLIN;
  }
  if (!wire_q_.empty()) events |= POLLOUT;
  loop_->set_events(conn_fd_.get(), events);
}

void MuxEndpoint::tick() {
  loop_->assert_on_loop_thread();  // affinity: loop
  tick_timer_ = 0;
  bool established;
  {
    common::LockGuard lock(mu_);
    established = state_ == LinkState::kEstablished;
  }
  if (established) {
    const std::int64_t now = loop_->now_ms();
    bool storm = false;
    if (now - last_rx_ms_ > cfg_.peer_timeout_ms) {
      {
        common::LockGuard lock(mu_);
        ++stats_.link.peer_timeouts;
      }
      disconnect(/*failure=*/true);
    } else {
      {
        common::LockGuard lock(mu_);
        if (chaos_ && chaos_->take_reset(now)) {
          ++stats_.link.chaos_resets;
          storm = true;
        }
      }
      if (storm) {
        disconnect(/*failure=*/true);
      } else {
        {
          common::LockGuard lock(mu_);
          // Heartbeats ride the chaos path so partitions starve the peer.
          emit_locked(0, "", /*heartbeat=*/true, nullptr);
        }
        // pump_tx, not a bare flush: the flush may empty the staged bytes
        // into space the peer just freed and clear POLLOUT, and a stream
        // backlog left by an earlier EAGAIN would then wait for the next
        // send(). pump_tx stages that backlog too and re-arms POLLOUT if
        // the socket fills again.
        pump_tx();
      }
    }
  }
  {
    common::LockGuard lock(mu_);
    if (closed_) return;  // teardown cancels; don't re-arm past close
  }
  tick_timer_ = loop_->add_timer(cfg_.heartbeat_ms, [this] { tick(); });
}

void MuxEndpoint::teardown_on_loop() {
  loop_->assert_on_loop_thread();  // affinity: loop
  if (tick_timer_ != 0) loop_->cancel_timer(tick_timer_);
  if (reconnect_timer_ != 0) loop_->cancel_timer(reconnect_timer_);
  for (std::uint64_t id : delay_timers_) loop_->cancel_timer(id);
  delay_timers_.clear();
  if (conn_fd_.valid()) {
    loop_->unwatch(conn_fd_.get());
    conn_fd_.reset();
  }
  if (listen_fd_.valid()) {
    loop_->unwatch(listen_fd_.get());
    listen_fd_.reset();
  }
  {
    common::LockGuard lock(mu_);
    state_ = LinkState::kClosed;
  }
  {
    common::LockGuard lock(down_mu_);
    down_ = true;
    // Notify under down_mu_: the destructor destroys this cv the moment its
    // wait returns; under the lock the waiter cannot resume until release.
    down_cv_.notify_all();
  }
}

}  // namespace edgebol::net
