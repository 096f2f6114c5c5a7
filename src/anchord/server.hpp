// The anchord serving layer: readiness-driven sessions speaking the framed
// wire protocol over a Conduit, executing verbs on a worker pool (or, for
// an idle daemon's cache-resident verify or evaluate-gccs, on the reactor
// thread).
//
// Serving semantics (each has a dedicated test in anchord_test.cpp):
//
//   * Event-driven sessions — one epoll Reactor drives every connection
//     whose Conduit exposes a readiness fd: frames are decoded zero-copy
//     out of the session's read buffer (net::decode_frame_view), handler
//     completions enqueue their response and flush with non-blocking
//     writes, and a flow-controlled peer parks the frame on the session's
//     write queue until the reactor reports writability — no thread ever
//     blocks inside a session. A conduit without a readiness fd (or any
//     conduit, if the reactor failed to set up) is closed unserved.
//   * Pipelining — a session decodes frames as bytes arrive and admits
//     every complete request immediately; responses are written as their
//     handlers finish, in any order, matched by correlation id.
//   * Fail-closed overload — admissions are bounded by
//     `max_in_flight` across the whole daemon. A request over the bound is
//     answered *synchronously* with kOverloaded (and counted), never
//     silently dropped and never queued unboundedly: a trust daemon that
//     stalls silently under load turns every client timeout into a policy
//     decision made by nobody.
//   * Request timeouts — with `request_timeout_ms` set, a request whose
//     deadline passed before its handler ran is answered kTimeout without
//     touching the verifier (the work it would do is already worthless).
//   * Session robustness — an unknown-type frame with a credible declared
//     length is answered with a kAlert frame and skipped, keeping the
//     session alive. A frame whose declared length exceeds the codec cap
//     is different: that length is attacker-controlled garbage, and using
//     it as a skip count would silently swallow up to 4 GiB of valid
//     frames — so the session is alerted and torn down instead. The same
//     teardown applies when buffered-but-unframed bytes exceed
//     `max_buffer_bytes`, because at that point framing can't be trusted.
//   * Bounded reads — bytes are pulled `read_chunk` at a time and complete
//     frames are consumed eagerly, so one connection cannot force the
//     server to buffer more than `max_buffer_bytes` + one chunk.
//
// Threading: serve() blocks for the life of one connection and is safe to
// call concurrently from many threads (one per connection, as the tests
// and bench do); it is a reactor registration plus a wait, not a loop.
// Handlers run in one of two places. As a rule every session submits to
// one shared worker pool. The exception is the inline rule: a verify or
// evaluate-gccs whose certificates are all in the parsed-certificate cache
// is answered on the reactor thread itself, but only while the daemon is otherwise idle (no
// request in flight, no second complete frame in the same drain, no other
// session ready in the same epoll batch). Such a request crosses one
// thread instead of two; any sign of concurrency sends it to the pool, so
// parsing never runs on the reactor, work still fans out across workers,
// and the synchronous kOverloaded answer stays. Inline answers are counted
// in anchor_anchord_inline_total.
// serve() returns only after every response it admitted has been written
// (or the stream died), so the caller may destroy the Conduit as soon as
// serve() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "anchord/conduit.hpp"
#include "anchord/dispatch.hpp"
#include "anchord/reactor.hpp"
#include "anchord/wire.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace anchor::anchord {

struct AnchordConfig {
  std::size_t workers = 4;             // handler pool size
  std::size_t max_in_flight = 64;      // daemon-wide admission bound
  int request_timeout_ms = 0;          // 0 = no deadline
  std::size_t read_chunk = 4096;       // per-read_some byte cap
  std::size_t max_buffer_bytes = 1 << 22;  // unframed-bytes cap per session
  // Test seam: runs at the start of every pooled handler, before the
  // deadline check. Lets the robustness tests hold requests in flight
  // (overload) or past their deadline (timeout) deterministically. A
  // request answered inline on the reactor (see admit) never meets it: it
  // starts the moment it is admitted, so its deadline cannot have passed.
  std::function<void()> handler_gate;
};

class AnchordServer {
 public:
  AnchordServer(VerbDispatcher::Backends backends, AnchordConfig config = {},
                metrics::Registry& registry = metrics::Registry::global());

  AnchordServer(const AnchordServer&) = delete;
  AnchordServer& operator=(const AnchordServer&) = delete;

  // Serves one connection until the peer closes (or the session is torn
  // down); returns after all admitted responses are written. A conduit
  // with no readiness fd is closed and serve() returns at once. The
  // Conduit must outlive the call. Destroy the server only after every
  // serve() call has returned.
  void serve(Conduit& conduit);

  // Instantaneous admission level (load signal for tests and anchorctl).
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  struct Session;

  // Decodes and handles every complete frame buffered on `session`,
  // zero-copy, with one batched erase of the consumed prefix. Returns
  // false when the session must be torn down.
  bool drain_session(Session& session);
  // `sole_frame`: no other complete frame was buffered in the same drain.
  void on_frame(Session& session, net::MsgType type, BytesView payload,
                bool sole_frame);
  void admit(Session& session, Request request, bool sole_frame);
  // Encodes `response`, counts its bytes, and queues it on `session`.
  void reply(Session& session, const Response& response);
  // Returns one admission slot (the atomic and the gauge together).
  void release();
  void send_alert(Session& session, const std::string& reason);

  VerbDispatcher dispatcher_;
  AnchordConfig config_;
  ThreadPool pool_;
  Reactor reactor_;
  std::atomic<std::size_t> in_flight_{0};

  metrics::Counter& m_served_;
  metrics::Counter& m_refused_;
  metrics::Counter& m_req_verify_;
  metrics::Counter& m_req_gccs_;
  metrics::Counter& m_req_metrics_;
  metrics::Counter& m_req_feed_;
  metrics::Counter& m_req_batch_;
  metrics::Counter& m_req_feedfetch_;
  metrics::Counter& m_inline_;
  metrics::Counter& m_overloads_;
  metrics::Counter& m_timeouts_;
  metrics::Counter& m_malformed_;
  metrics::Counter& m_alerts_;
  metrics::Counter& m_bytes_read_;
  metrics::Counter& m_bytes_written_;
  metrics::Gauge& m_in_flight_;
  metrics::Gauge& m_queue_depth_;
  metrics::Histogram& m_serve_latency_;
};

}  // namespace anchor::anchord
