// Readiness-driven event loop for anchord sessions (DESIGN.md "anchord
// reactor"). One Reactor owns one epoll instance and one loop thread; any
// number of sessions register a level-triggered readiness fd and get their
// on_readable()/on_writable() callbacks invoked from the loop thread.
//
// Division of labour with AnchordServer:
//   * the Reactor knows fds and interest sets — it never decodes a frame;
//   * the server's Session (a Reactor::Handler) owns the read buffer,
//     frame decoding, and the write-ready flush queue.
//
// Threading contract:
//   * on_readable()/on_writable() run on the loop thread only, never
//     concurrently with each other for the same handler, and never with
//     the Reactor's internal mutex held (handlers may call back into
//     arm_write from inside a callback, or from any other thread);
//   * add()/arm_write() are safe from any thread: epoll_ctl is kernel-
//     thread-safe and the interest-set bookkeeping takes the mutex;
//   * a handler is kept alive by shared_ptr for as long as it is
//     registered; once both read and write interest are gone the entry is
//     dropped and the loop never touches the handler again.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace anchor::anchord {

class Reactor {
 public:
  class Handler {
   public:
    virtual ~Handler() = default;
    // The registered fd reported readable (or the peer hung up). Return
    // false to drop read interest — the session's read side is over.
    virtual bool on_readable() = 0;
    // The registered fd reported writable after arm_write(). Return false
    // to drop write interest (the flush queue drained or the peer died).
    virtual bool on_writable() = 0;
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // False when epoll/eventfd setup failed at construction; AnchordServer
  // then closes every conduit it is asked to serve.
  bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  // Registers `fd` for read readiness on behalf of `handler`. One fd maps
  // to one handler; re-adding an fd that is still registered fails.
  bool add(int fd, std::shared_ptr<Handler> handler);

  // Requests on_writable() callbacks for `fd` until on_writable() returns
  // false. If the fd's entry is gone (the read side already closed), the
  // fd is re-registered for write interest only — a handler flushing a
  // backpressured response after peer-EOF still gets its callbacks.
  bool arm_write(int fd, std::shared_ptr<Handler> handler);

  // Drops `fd`'s registration iff it still belongs to `handler` (an fd
  // reused by a newer session is left alone). Sessions call this once
  // finished so an entry whose fd died before its last event fired cannot
  // linger and shadow a future session on the recycled fd.
  void forget(int fd, const std::shared_ptr<Handler>& handler);

  // Instantaneous registered-session count (observability).
  std::size_t sessions() const;

  // Loop thread only (i.e. from inside a callback): how many session fds
  // the epoll batch being dispatched reported ready. 1 means no other
  // session is waiting behind the running callback.
  std::size_t ready_in_batch() const { return ready_in_batch_; }

 private:
  struct Entry {
    std::shared_ptr<Handler> handler;
    std::uint32_t events = 0;  // EPOLLIN / EPOLLOUT interest currently set
    // Bumped by every arm_write: the loop refuses to drop EPOLLOUT when a
    // re-arm raced its in-flight on_writable() == false (the classic
    // arm/disarm lost-wakeup).
    std::uint64_t write_gen = 0;
  };

  void loop();
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  mutable std::mutex mu_;
  std::unordered_map<int, Entry> entries_;
  std::uint64_t arm_seq_ = 0;  // guarded by mu_; feeds Entry::write_gen
  bool stop_ = false;
  std::size_t ready_in_batch_ = 0;  // loop thread only
  std::thread thread_;
};

}  // namespace anchor::anchord
