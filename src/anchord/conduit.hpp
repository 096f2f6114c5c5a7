// Byte-stream endpoints for anchord sessions. The server's session loop
// and the client speak to a Conduit, never to a socket API; the one
// transport behind it is an AF_UNIX socketpair, what a deployed anchord
// hands out, so every test and bench takes the path a real client does.
//
// A Conduit is a reliable, ordered, bidirectional byte stream — framing is
// entirely the codec's job (net/transport.hpp). Endpoints come in
// connected pairs; closing either endpoint eventually surfaces as
// end-of-stream (-1) on both sides, after buffered bytes drain.
#pragma once

#include <memory>
#include <utility>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace anchor::anchord {

class Conduit {
 public:
  virtual ~Conduit() = default;

  // Writes all of `data`, blocking as needed. Returns false once the
  // stream is closed (bytes may have been partially delivered first).
  virtual bool write(BytesView data) = 0;

  // Appends up to `max` available bytes to `out`, blocking up to
  // `timeout_ms`. Returns the byte count (> 0), 0 on timeout with the
  // stream still open, or -1 on end-of-stream with all buffered bytes
  // already drained.
  virtual int read_some(Bytes& out, std::size_t max, int timeout_ms) = 0;

  // Half-close is not modelled: close() ends both directions. Idempotent
  // and safe to call concurrently with a blocked read (which unblocks).
  virtual void close() = 0;

  // --- event-driven hooks (anchord's epoll reactor) -----------------------
  //
  // A readiness-driven server never blocks in read_some/write; instead it
  // epolls readiness_fd() and drains with read_some(..., timeout_ms=0)
  // until 0 is returned. The fd reads ready whenever bytes may be
  // available or the stream has closed, and is also the fd to watch
  // (EPOLLOUT) after a short write_some. Endpoints that cannot supply one
  // return -1, and anchord refuses to serve them.
  virtual int readiness_fd() const = 0;

  // Non-blocking write: accepts up to data.size() bytes and returns the
  // count actually taken (0 = flow-controlled, try again once
  // readiness_fd() is writable), or -1 once the stream is closed.
  virtual int write_some(BytesView data) = 0;
};

using ConduitPair = std::pair<std::unique_ptr<Conduit>, std::unique_ptr<Conduit>>;

// A connected pair over an AF_UNIX socketpair(2): real file descriptors,
// close-on-exec, poll(2)-based read timeouts. err() if the kernel refuses
// the pair.
Result<ConduitPair> make_socketpair_conduit();

}  // namespace anchor::anchord
