#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"

/// Single-threaded epoll event loop: the server half of netio.
///
/// One Reactor owns one epoll instance and one loop thread. File
/// descriptors are registered (before start) with a readable-callback;
/// timers go on a min-heap ordered by (deadline, schedule sequence) and
/// fire on the loop thread. An eventfd wakes the loop for stop() and for
/// every schedule, so it re-reads the earliest deadline. The only timers
/// are the server's held-back response copies under a wire fault plan, so
/// the heap is empty in the common case.
///
/// Timing here is the monotonic clock read directly (not through a seeded
/// source): epoll timeouts and retransmit deadlines are *transport*
/// timing, which the determinism story explicitly leaves free to vary —
/// answer content stays a pure function of the world seed. cslint's D1
/// check sanctions src/netio/reactor for exactly this reason, the same
/// way obs/ is sanctioned for span timing.
namespace cs::netio {

class Reactor {
 public:
  /// `thread_name` becomes the loop thread's obs trace lane
  /// ("netio-server-0", ...).
  explicit Reactor(std::string thread_name);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` for readable events; `on_readable` runs on the loop
  /// thread and must drain the fd to EAGAIN (level-triggered would be
  /// forgiving, but we register edge-agnostic level mode anyway — drain
  /// keeps the loop from spinning). Must be called before start().
  bool add_fd(int fd, std::function<void()> on_readable);

  /// Schedules `fn` on the loop thread after `delay_us`. Due timers fire
  /// in deadline order, ties in schedule order; a deadline already past
  /// fires on the loop's next turn. Thread-safe.
  void run_after(std::uint64_t delay_us, std::function<void()> fn);

  /// Starts the loop thread. No-op if already running.
  void start();

  /// Signals the loop to exit and joins it. Safe to call repeatedly.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Monotonic microseconds, the loop's time base (exposed so server and
  /// transport stamp latencies and deadlines on the same clock).
  static std::uint64_t now_us() noexcept;

 private:
  struct Timer {
    std::uint64_t deadline_us = 0;
    std::uint64_t sequence = 0;
    std::function<void()> fn;
  };

  void loop();
  void wake();
  /// Pops every timer due at `now` off the heap, in firing order.
  std::vector<std::function<void()>> take_due_locked(std::uint64_t now)
      CS_REQUIRES(timers_mutex_);

  std::string thread_name_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<std::pair<int, std::function<void()>>> fds_;
  std::thread thread_;
  std::atomic<bool> running_{false};

  util::Mutex timers_mutex_;
  /// A min-heap on (deadline_us, sequence).
  std::vector<Timer> timers_ CS_GUARDED_BY(timers_mutex_);
  std::uint64_t next_sequence_ CS_GUARDED_BY(timers_mutex_) = 0;
};

}  // namespace cs::netio
