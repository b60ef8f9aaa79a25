#include "netio/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "obs/log.h"
#include "obs/trace.h"
#include "util/sync.h"

namespace cs::netio {
namespace {

/// Idle sleep cap: with no timers pending the loop still wakes at this
/// cadence to re-check the stop flag (stop() also wakes it eagerly).
constexpr int kIdleSleepMs = 200;

/// Heap order for Reactor::timers_: the root is the earliest deadline,
/// and the earlier schedule among equal deadlines.
template <typename Timer>
bool fires_later(const Timer& a, const Timer& b) noexcept {
  return a.deadline_us != b.deadline_us ? a.deadline_us > b.deadline_us
                                        : a.sequence > b.sequence;
}

}  // namespace

std::uint64_t Reactor::now_us() noexcept {
  // src/netio/reactor is D1-sanctioned: the event loop's time base is the
  // raw monotonic clock, read without the obs indirection because this is
  // the innermost wait loop. Transport timing never shapes artifacts.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Reactor::Reactor(std::string thread_name)
    : thread_name_(std::move(thread_name)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = ~0u;  // sentinel: the wake fd
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

Reactor::~Reactor() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Reactor::add_fd(int fd, std::function<void()> on_readable) {
  if (epoll_fd_ < 0 || running()) return false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(fds_.size());
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  fds_.emplace_back(fd, std::move(on_readable));
  return true;
}

void Reactor::run_after(std::uint64_t delay_us, std::function<void()> fn) {
  const std::uint64_t deadline = now_us() + delay_us;
  {
    util::LockGuard lock{timers_mutex_};
    timers_.push_back(Timer{deadline, next_sequence_++, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), fires_later<Timer>);
  }
  wake();  // the loop may be sleeping past this deadline
}

std::vector<std::function<void()>> Reactor::take_due_locked(
    std::uint64_t now) {
  std::vector<std::function<void()>> due;
  while (!timers_.empty() && timers_.front().deadline_us <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), fires_later<Timer>);
    due.push_back(std::move(timers_.back().fn));
    timers_.pop_back();
  }
  return due;
}

void Reactor::start() {
  if (running()) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void Reactor::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::loop() {
  obs::Tracer::instance().set_thread_name(thread_name_);
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    // Sleep until the earliest timer (capped) or a readable fd/wakeup.
    int timeout_ms = kIdleSleepMs;
    {
      util::LockGuard lock{timers_mutex_};
      if (!timers_.empty()) {
        const std::uint64_t deadline = timers_.front().deadline_us;
        const std::uint64_t now = now_us();
        timeout_ms = deadline <= now
                         ? 0
                         : static_cast<int>(std::min<std::uint64_t>(
                               (deadline - now + 999) / 1000, kIdleSleepMs));
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) {
      obs::log_error("netio.reactor", "epoll_wait failed on {}: errno {}",
                     thread_name_, errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint32_t idx = events[i].data.u32;
      if (idx == ~0u) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (idx < fds_.size()) fds_[idx].second();
    }
    // Callbacks run unlocked, so one may schedule the next timer.
    std::vector<std::function<void()>> due;
    {
      util::LockGuard lock{timers_mutex_};
      due = take_due_locked(now_us());
    }
    for (auto& fn : due) fn();
  }
}

}  // namespace cs::netio
