#include "anchord/server.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>

namespace anchor::anchord {

namespace {

bool starts_complete_frame(BytesView bytes) {
  auto view = net::decode_frame_view(bytes);
  return view && view.value().complete;
}

}  // namespace

// Per-connection state, shared_ptr-owned: the reactor loop, the worker
// pool, and the serve() caller all hold references, so the session outlives
// whichever of them finishes last. One mutex guards the write queue and the
// lifecycle counters; the read buffer needs no lock because exactly one
// thread ever reads a given conduit: the reactor loop.
struct AnchordServer::Session : Reactor::Handler,
                                std::enable_shared_from_this<Session> {
  AnchordServer* server = nullptr;
  Conduit* conduit = nullptr;
  int fd = -1;  // conduit->readiness_fd(): read and write readiness alike

  // Read state — single-threaded by construction (see struct comment).
  Bytes buffer;
  std::size_t skip_remaining = 0;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;     // admitted handlers not yet completed
  bool read_done = false;          // no more frames will be decoded
  bool torn_down = false;          // framing broke: close after final flush
  std::deque<Bytes> write_queue;   // frames awaiting the peer
  std::size_t write_offset = 0;    // bytes of the front frame already sent
  bool write_armed = false;        // EPOLLOUT interest requested
  bool write_failed = false;       // stream died mid-write: drop the rest

  // Enqueues one whole frame and flushes as far as the peer allows.
  // Frames from concurrently-finishing handlers interleave whole, never
  // byte-wise, because the queue append and the flush share `mu`.
  bool send(Bytes frame) {
    std::lock_guard<std::mutex> lock(mu);
    if (write_failed) return false;
    write_queue.push_back(std::move(frame));
    flush_locked();
    return !write_failed;
  }

  // Callers hold `mu`. Drains the queue with non-blocking writes; a
  // flow-controlled peer (write_some == 0) leaves the remainder queued and
  // arms EPOLLOUT so the reactor resumes the flush on writability.
  void flush_locked() {
    while (!write_queue.empty()) {
      const Bytes& front = write_queue.front();
      const BytesView rest(front.data() + write_offset,
                           front.size() - write_offset);
      const int n = conduit->write_some(rest);
      if (n < 0) {
        write_failed = true;
        write_queue.clear();
        write_offset = 0;
        break;
      }
      if (n == 0) {
        if (!write_armed) {
          write_armed = true;
          server->reactor_.arm_write(fd, shared_from_this());
        }
        return;  // the reactor finishes this flush
      }
      write_offset += static_cast<std::size_t>(n);
      if (write_offset == front.size()) {
        write_queue.pop_front();
        write_offset = 0;
      }
    }
    // The queue may have just drained; wait_finished() cannot hold before
    // read_done, and read_finished() notifies when it sets that.
    if (read_done) cv.notify_all();
  }

  // --- Reactor::Handler ----------------------------------------------------

  bool on_readable() override {
    // Read until the socket runs dry. Level-triggered epoll would report
    // leftover bytes again, but draining here decodes a burst larger than
    // read_chunk in one wakeup rather than one epoll round per chunk, and
    // sees a peer's close right behind its last frame.
    for (;;) {
      const int n = conduit->read_some(buffer, server->config_.read_chunk, 0);
      if (n < 0) return read_finished(/*teardown=*/false);  // peer closed
      if (n == 0) return true;                              // drained for now
      server->m_bytes_read_.add(static_cast<std::uint64_t>(n));
      if (!server->drain_session(*this)) return read_finished(true);
      if (buffer.size() > server->config_.max_buffer_bytes) {
        server->send_alert(*this, "anchord: session buffer limit exceeded");
        return read_finished(true);
      }
    }
  }

  bool on_writable() override {
    std::lock_guard<std::mutex> lock(mu);
    flush_locked();
    if (!write_queue.empty() && !write_failed) return true;  // still parked
    write_armed = false;
    return false;
  }

  // --- lifecycle -----------------------------------------------------------

  // Marks the read side finished; returns false so the reactor drops read
  // interest. No conduit access happens after the notify: the serve()
  // caller may wake, return, and invalidate the conduit immediately.
  bool read_finished(bool teardown) {
    std::lock_guard<std::mutex> lock(mu);
    read_done = true;
    if (teardown) torn_down = true;
    cv.notify_all();
    return false;
  }

  void begin() {
    std::lock_guard<std::mutex> lock(mu);
    ++outstanding;
  }

  // Notify under the lock: serve() may destroy its references the moment
  // the finish predicate holds, so the notify must complete before this
  // thread releases `mu`. Before read_done nothing can finish, so the
  // waiter is left asleep.
  void done() {
    std::lock_guard<std::mutex> lock(mu);
    --outstanding;
    if (read_done) cv.notify_all();
  }

  // True once the session owes the peer nothing more: reading is over,
  // every admitted handler has completed, and its responses have left the
  // write queue (or the stream died and took them).
  void wait_finished() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return read_done && outstanding == 0 &&
             (write_queue.empty() || write_failed);
    });
  }
};

AnchordServer::AnchordServer(VerbDispatcher::Backends backends,
                             AnchordConfig config,
                             metrics::Registry& registry)
    : dispatcher_(backends),
      config_(std::move(config)),
      pool_(config_.workers),
      m_served_(registry.counter("anchor_anchord_connections_total",
                                 {{"outcome", "served"}})),
      m_refused_(registry.counter("anchor_anchord_connections_total",
                                  {{"outcome", "refused"}})),
      m_req_verify_(registry.counter("anchor_anchord_requests_total",
                                     {{"verb", "verify"}})),
      m_req_gccs_(registry.counter("anchor_anchord_requests_total",
                                   {{"verb", "evaluate-gccs"}})),
      m_req_metrics_(registry.counter("anchor_anchord_requests_total",
                                      {{"verb", "metrics"}})),
      m_req_feed_(registry.counter("anchor_anchord_requests_total",
                                   {{"verb", "feed-status"}})),
      m_req_batch_(registry.counter("anchor_anchord_requests_total",
                                    {{"verb", "verify-batch"}})),
      m_req_feedfetch_(registry.counter("anchor_anchord_requests_total",
                                        {{"verb", "feed-fetch"}})),
      m_inline_(registry.counter("anchor_anchord_inline_total")),
      m_overloads_(registry.counter("anchor_anchord_overloads_total")),
      m_timeouts_(registry.counter("anchor_anchord_timeouts_total")),
      m_malformed_(registry.counter("anchor_anchord_malformed_total")),
      m_alerts_(registry.counter("anchor_anchord_alerts_total")),
      m_bytes_read_(registry.counter("anchor_anchord_bytes_read_total")),
      m_bytes_written_(registry.counter("anchor_anchord_bytes_written_total")),
      m_in_flight_(registry.gauge("anchor_anchord_in_flight")),
      m_queue_depth_(registry.gauge("anchor_anchord_queue_depth")),
      m_serve_latency_(registry.histogram("anchor_anchord_serve_seconds")) {}

void AnchordServer::serve(Conduit& conduit) {
  auto session = std::make_shared<Session>();
  session->server = this;
  session->conduit = &conduit;
  session->fd = conduit.readiness_fd();
  if (!reactor_.ok() || session->fd < 0 ||
      !reactor_.add(session->fd, session)) {
    // Sessions are readiness-driven only; a conduit the reactor cannot
    // watch is refused, and the peer sees end-of-stream.
    m_refused_.add();
    conduit.close();
    return;
  }
  m_served_.add();
  session->wait_finished();
  reactor_.forget(session->fd, session);
  if (session->torn_down) conduit.close();
}

bool AnchordServer::drain_session(Session& session) {
  Bytes& buffer = session.buffer;
  std::size_t pos = 0;
  bool alive = true;
  bool first = true;
  for (;;) {
    if (session.skip_remaining > 0) {
      // Discard mode: eat the remainder of a frame we alerted on.
      const std::size_t n =
          std::min(session.skip_remaining, buffer.size() - pos);
      pos += n;
      session.skip_remaining -= n;
      if (session.skip_remaining > 0) break;  // more to discard as it arrives
    }
    const BytesView rest(buffer.data() + pos, buffer.size() - pos);
    auto view = net::decode_frame_view(rest);
    if (!view) {
      // The codec consumed nothing, so the 5-byte header is still at the
      // front. Two failure classes, very different trust levels:
      if (rest.size() < 5) break;  // defensive; decode can't fail here
      std::uint32_t length = 0;
      for (std::size_t i = 1; i <= 4; ++i) length = length << 8 | rest[i];
      send_alert(session, view.error());
      if (static_cast<std::size_t>(length) > net::kMaxFrameBytes) {
        // The declared length is over the codec cap, i.e. garbage from an
        // untrusted header. Trusting it as a skip count would discard up
        // to ~4 GiB of whatever valid frames follow — tear down instead.
        alive = false;
        break;
      }
      // Unknown frame type with a credible length: skip exactly that
      // frame (the skip is bounded by the cap check above) and resync.
      session.skip_remaining = 5 + static_cast<std::size_t>(length);
      continue;
    }
    if (!view.value().complete) break;
    const std::size_t end = pos + view.value().consumed;
    // The inline rule (see admit) needs to know whether another complete
    // frame shares this drain; a header-only lookahead tells.
    const bool sole = first && !starts_complete_frame(BytesView(
                                   buffer.data() + end, buffer.size() - end));
    first = false;
    // Zero-copy dispatch: the payload view borrows from `buffer`, which is
    // stable until the single erase below — on_frame copies only what the
    // request decoder keeps.
    on_frame(session, view.value().type, view.value().payload, sole);
    pos = end;
  }
  if (pos > 0) {
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return alive;
}

void AnchordServer::on_frame(Session& session, net::MsgType type,
                             BytesView payload, bool sole_frame) {
  if (type != net::MsgType::kRequest) {
    // A well-framed message that is not a request (a stray handshake
    // frame, a response echoed back): protocol violation, session lives.
    send_alert(session, "anchord: unexpected frame type " +
                            std::to_string(static_cast<int>(type)));
    return;
  }
  auto request = decode_request(type, payload);
  if (!request) {
    m_malformed_.add();
    Response response;
    response.correlation_id = peek_correlation_id(payload);
    response.kind = chain::ErrorKind::kMalformedRequest;
    response.detail = request.error();
    reply(session, response);
    return;
  }
  admit(session, std::move(request).take(), sole_frame);
}

void AnchordServer::admit(Session& session, Request request,
                          bool sole_frame) {
  const std::size_t admitted =
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= config_.max_in_flight) {
    // Fail closed, synchronously: the client gets an explicit kOverloaded
    // verdict it can retry on, not a stalled or dropped request.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    m_overloads_.add();
    Response response;
    response.correlation_id = request.correlation_id;
    response.verb = request.verb;
    response.kind = chain::ErrorKind::kOverloaded;
    response.detail = "anchord: in-flight bound (" +
                      std::to_string(config_.max_in_flight) + ") reached";
    reply(session, response);
    return;
  }
  // Gauge moves by the same ±1 the atomic does — never set() from a
  // re-read of the counter, which publishes stale values under concurrent
  // admits/completions and can leave the gauge stuck non-zero at idle.
  m_in_flight_.add(1);
  switch (request.verb) {
    case Verb::kVerify: m_req_verify_.add(); break;
    case Verb::kEvaluateGccs: m_req_gccs_.add(); break;
    case Verb::kMetrics: m_req_metrics_.add(); break;
    case Verb::kFeedStatus: m_req_feed_.add(); break;
    case Verb::kVerifyBatch: m_req_batch_.add(); break;
    case Verb::kFeedFetch: m_req_feedfetch_.add(); break;
  }
  // The inline rule: a verify or evaluate-gccs whose certificates are all
  // cache-resident is answered right here on the reactor thread, saving
  // the hand-off to a worker and back, but only while nothing else wants
  // the daemon: no request in flight, no second frame in this drain, no
  // other session ready in this epoll batch. Under any concurrency the
  // request goes to the pool, so parsing never runs on the reactor and
  // work still fans out. dispatch_if_cached declines every other verb.
  if (admitted == 0 && sole_frame && reactor_.ready_in_batch() == 1) {
    std::optional<Response> response;
    {
      metrics::ScopedTimer timer(m_serve_latency_);
      response = dispatcher_.dispatch_if_cached(request);
      if (!response) timer.cancel();
    }
    if (response) {
      m_inline_.add();
      reply(session, *response);
      release();
      return;
    }
  }
  const auto deadline =
      config_.request_timeout_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(config_.request_timeout_ms)
          : std::chrono::steady_clock::time_point::max();
  session.begin();
  // The worker keeps the session alive on its own: serve() may only have
  // returned after done(), but the shared_ptr makes that robust rather
  // than load-bearing.
  auto self = session.shared_from_this();
  pool_.post([this, self = std::move(self), request = std::move(request),
              deadline] {
    if (config_.handler_gate) config_.handler_gate();
    Response response;
    if (std::chrono::steady_clock::now() >= deadline) {
      m_timeouts_.add();
      response.correlation_id = request.correlation_id;
      response.verb = request.verb;
      response.kind = chain::ErrorKind::kTimeout;
      response.detail = "anchord: deadline expired before execution";
    } else {
      metrics::ScopedTimer timer(m_serve_latency_);
      response = dispatcher_.dispatch(request);
    }
    reply(*self, response);
    release();
    self->done();
  });
  m_queue_depth_.set(static_cast<std::int64_t>(pool_.queue_depth()));
}

void AnchordServer::reply(Session& session, const Response& response) {
  Bytes frame = net::encode_frame(encode_response(response));
  m_bytes_written_.add(frame.size());
  session.send(std::move(frame));
}

void AnchordServer::release() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  m_in_flight_.add(-1);
}

void AnchordServer::send_alert(Session& session, const std::string& reason) {
  m_alerts_.add();
  net::Message message;
  message.type = net::MsgType::kAlert;
  message.payload = to_bytes(reason);
  Bytes frame = net::encode_frame(message);
  m_bytes_written_.add(frame.size());
  session.send(std::move(frame));
}

}  // namespace anchor::anchord
