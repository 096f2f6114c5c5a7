#include "anchord/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

namespace anchor::anchord {

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (!ok()) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return;
  }
  thread_ = std::thread([this] { loop(); });
}

Reactor::~Reactor() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake();
    thread_.join();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

bool Reactor::add(int fd, std::shared_ptr<Handler> handler) {
  if (!ok() || fd < 0 || handler == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(fd);
  if (!inserted) return false;
  it->second.handler = std::move(handler);
  it->second.events = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    entries_.erase(it);
    return false;
  }
  return true;
}

bool Reactor::arm_write(int fd, std::shared_ptr<Handler> handler) {
  if (!ok() || fd < 0 || handler == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fd);
  if (it == entries_.end()) {
    // Read side already gone: re-register for write interest alone so the
    // flush queue can still drain.
    Entry entry;
    entry.handler = std::move(handler);
    entry.events = EPOLLOUT;
    entry.write_gen = ++arm_seq_;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
    entries_.emplace(fd, std::move(entry));
    return true;
  }
  it->second.write_gen = ++arm_seq_;
  if ((it->second.events & EPOLLOUT) != 0) return true;  // already armed
  it->second.events |= EPOLLOUT;
  epoll_event ev{};
  ev.events = it->second.events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::forget(int fd, const std::shared_ptr<Handler>& handler) {
  if (!ok() || fd < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fd);
  if (it == entries_.end() || it->second.handler != handler) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  entries_.erase(it);
}

std::size_t Reactor::sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Reactor::loop() {
  std::array<epoll_event, 64> events;
  for (;;) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll itself failed: nothing sane left to do
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    ready_in_batch_ = static_cast<std::size_t>(
        std::count_if(events.begin(), events.begin() + n,
                      [this](const epoll_event& ev) {
                        return ev.data.fd != wake_fd_;
                      }));
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t what = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      // Snapshot the handler outside the lock for the callback; a stale
      // event for an fd that was dropped (and possibly reused) since the
      // epoll_wait returned just misses the lookup and is skipped.
      std::shared_ptr<Handler> handler;
      std::uint32_t interest = 0;
      std::uint64_t gen = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(fd);
        if (it == entries_.end()) continue;
        handler = it->second.handler;
        interest = it->second.events;
        gen = it->second.write_gen;
      }
      std::uint32_t still = interest;
      // EPOLLHUP/EPOLLERR surface through the read path: read_some reports
      // end-of-stream and the handler winds the session down.
      if ((interest & EPOLLIN) != 0 &&
          (what & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        if (!handler->on_readable()) still &= ~EPOLLIN;
      }
      if ((interest & EPOLLOUT) != 0 &&
          (what & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
        if (!handler->on_writable()) still &= ~EPOLLOUT;
      }
      if (still == interest) continue;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(fd);
      if (it == entries_.end() || it->second.handler != handler) continue;
      // An arm_write that raced the callback (handler enqueued more bytes
      // after on_writable() decided the queue was dry) bumped write_gen:
      // honour the newer arm instead of the stale disarm.
      if (it->second.write_gen != gen) still |= interest & EPOLLOUT;
      if (still == interest) continue;
      // Merge with any interest armed concurrently during the callbacks:
      // drop only the bits the callbacks released.
      it->second.events &= ~(interest & ~still);
      if (it->second.events == 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        entries_.erase(it);
        continue;
      }
      epoll_event ev{};
      ev.events = it->second.events;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    }
  }
}

}  // namespace anchor::anchord
