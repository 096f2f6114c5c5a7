#include "anchord/conduit.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

namespace anchor::anchord {

namespace {

// --- in-memory pair -------------------------------------------------------

// One direction of the pipe. Writers append under the lock; readers wait
// on the condvar. `closed` means no more bytes will ever arrive (either
// endpoint closed), but already-buffered bytes still drain.
//
// `event_fd` is the reader-side readiness signal for the epoll reactor: the
// writer bumps it after every append (and on close) under the same lock
// that guards the buffer, so a reader that drains the eventfd before
// checking the buffer can never miss a wakeup. make_memory_conduit fails
// rather than build a pair without one.
struct PipeDir {
  std::mutex mu;
  std::condition_variable cv;
  Bytes buf;
  bool closed = false;
  int event_fd = -1;

  ~PipeDir() {
    if (event_fd >= 0) ::close(event_fd);
  }

  // Callers hold `mu`.
  void signal_locked() {
    const std::uint64_t one = 1;
    // EFD_NONBLOCK write can only fail at counter saturation (2^64-2),
    // unreachable while readers drain; ignore the result either way.
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  // Callers hold `mu`. Zeroes the counter so level-triggered epoll stops
  // reporting readiness once the buffer is drained.
  void clear_signal_locked() {
    std::uint64_t count = 0;
    [[maybe_unused]] ssize_t n = ::read(event_fd, &count, sizeof count);
  }
};

class MemoryEndpoint final : public Conduit {
 public:
  MemoryEndpoint(std::shared_ptr<PipeDir> incoming,
                 std::shared_ptr<PipeDir> outgoing)
      : incoming_(std::move(incoming)), outgoing_(std::move(outgoing)) {}

  ~MemoryEndpoint() override { close(); }

  bool write(BytesView data) override {
    std::lock_guard<std::mutex> lock(outgoing_->mu);
    if (outgoing_->closed) return false;
    append(outgoing_->buf, data);
    outgoing_->signal_locked();
    outgoing_->cv.notify_all();
    return true;
  }

  int read_some(Bytes& out, std::size_t max, int timeout_ms) override {
    std::unique_lock<std::mutex> lock(incoming_->mu);
    if (timeout_ms == 0) {
      // Event-driven caller: reset the readiness signal before inspecting
      // the buffer (writers signal under this lock, so any append after
      // the reset re-signals and epoll fires again — no lost wakeups).
      incoming_->clear_signal_locked();
    } else {
      incoming_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
        return !incoming_->buf.empty() || incoming_->closed;
      });
    }
    if (incoming_->buf.empty()) return incoming_->closed ? -1 : 0;
    const std::size_t n = std::min(max, incoming_->buf.size());
    out.insert(out.end(), incoming_->buf.begin(),
               incoming_->buf.begin() + static_cast<std::ptrdiff_t>(n));
    incoming_->buf.erase(incoming_->buf.begin(),
                         incoming_->buf.begin() + static_cast<std::ptrdiff_t>(n));
    return static_cast<int>(n);
  }

  void close() override {
    for (const auto& dir : {incoming_, outgoing_}) {
      std::lock_guard<std::mutex> lock(dir->mu);
      dir->closed = true;
      dir->signal_locked();
      dir->cv.notify_all();
    }
  }

  int readiness_fd() const override { return incoming_->event_fd; }

  // write() appends to an unbounded in-memory buffer: it either takes
  // everything or the pipe is closed, so the default write_some (delegate
  // to write) is exact and writable_fd() stays -1.

 private:
  std::shared_ptr<PipeDir> incoming_;
  std::shared_ptr<PipeDir> outgoing_;
};

// --- socketpair pair ------------------------------------------------------

class FdEndpoint final : public Conduit {
 public:
  explicit FdEndpoint(int fd) : fd_(fd) {}

  ~FdEndpoint() override {
    close();
    ::close(fd_);  // shutdown() in close() already unblocked any poller
  }

  bool write(BytesView data) override {
    std::size_t sent = 0;
    while (sent < data.size()) {
      // MSG_NOSIGNAL: a closed peer must surface as false, not SIGPIPE.
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // An event-driven caller (timeout_ms == 0) gets one non-blocking recv
  // and no poll: the reactor already knows the fd is readable, and an empty
  // socket answers EAGAIN. Bytes land directly in the tail of `out`.
  int read_some(Bytes& out, std::size_t max, int timeout_ms) override {
    int flags = MSG_DONTWAIT;
    if (timeout_ms != 0) {
      struct pollfd pfd {};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 0) return 0;                       // timeout
      if (rc < 0) return errno == EINTR ? 0 : -1;  // treat EINTR as a tick
      flags = 0;
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + max);
    const ssize_t n = ::recv(fd_, out.data() + old_size, max, flags);
    out.resize(old_size + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n > 0) return static_cast<int>(n);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return 0;  // nothing buffered yet
    }
    return -1;  // EOF or error: end-of-stream either way
  }

  void close() override {
    bool expected = false;
    if (shut_.compare_exchange_strong(expected, true)) {
      // shutdown, not ::close: the fd stays valid (a concurrent poll()er
      // must never see it recycled); the descriptor is released in the
      // destructor only.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  int readiness_fd() const override { return fd_; }

  int write_some(BytesView data) override {
    for (;;) {
      const ssize_t n = ::send(fd_, data.data(), data.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n >= 0) return static_cast<int>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      return -1;
    }
  }

  int writable_fd() const override { return fd_; }

 private:
  const int fd_;
  std::atomic<bool> shut_{false};
};

}  // namespace

Result<ConduitPair> make_memory_conduit() {
  auto a_to_b = std::make_shared<PipeDir>();
  auto b_to_a = std::make_shared<PipeDir>();
  // A pair without readiness fds would carry bytes but anchord would refuse
  // to serve it; fail here, where the cause is still known.
  for (PipeDir* dir : {a_to_b.get(), b_to_a.get()}) {
    dir->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (dir->event_fd < 0) {
      return err(std::string("anchord: eventfd: ") + std::strerror(errno));
    }
  }
  return ConduitPair{std::make_unique<MemoryEndpoint>(b_to_a, a_to_b),
                     std::make_unique<MemoryEndpoint>(a_to_b, b_to_a)};
}

Result<ConduitPair> make_socketpair_conduit() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return err(std::string("anchord: socketpair: ") + std::strerror(errno));
  }
  return ConduitPair{std::make_unique<FdEndpoint>(fds[0]),
                     std::make_unique<FdEndpoint>(fds[1])};
}

}  // namespace anchor::anchord
