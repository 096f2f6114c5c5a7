#include "anchord/conduit.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace anchor::anchord {

namespace {

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

 private:
  const int fd_;
  std::atomic<bool> shut_{false};
};

}  // namespace

Result<ConduitPair> make_socketpair_conduit() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return err(std::string("anchord: socketpair: ") + std::strerror(errno));
  }
  return ConduitPair{std::make_unique<FdEndpoint>(fds[0]),
                     std::make_unique<FdEndpoint>(fds[1])};
}

}  // namespace anchor::anchord
