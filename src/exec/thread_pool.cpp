#include "exec/thread_pool.h"

#include <memory>
#include <utility>

#include "exec/config.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/format.h"

namespace cs::exec {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads <= 1) return;
  // Build the tracer here first: it names its constructing thread's lane
  // "main", which a lazily-started worker would otherwise claim.
  obs::Tracer::instance();
  for (unsigned i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard lock{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(Task task) {
  static auto& tasks_metric = obs::counter("exec.pool.tasks");
  tasks_metric.inc();
  if (threads_.empty()) return task();  // sequential mode
  util::LockGuard lock{mutex_};
  tasks_.push_back(std::move(task));
  wake_.notify_one();
}

void ThreadPool::worker_loop(unsigned index) {
  static auto& task_us = obs::histogram(
      "exec.pool.task_us", {10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6});
  detail::tls_inline_regions = true;
  obs::Tracer::instance().set_thread_name(util::fmt("exec-worker-{}", index));
  for (;;) {
    Task task;
    {
      util::LockGuard lock{mutex_};
      while (!stop_ && tasks_.empty()) wake_.wait(mutex_);
      if (tasks_.empty()) return;  // stopped, and nothing left to drain
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    const auto started_us = obs::steady_now_us();
    task();
    task_us.observe(static_cast<double>(obs::steady_now_us() - started_us));
  }
}

namespace {

util::Mutex g_global_mutex;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  util::LockGuard lock{g_global_mutex};
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(thread_count());
  return *slot;
}

void ThreadPool::rebuild_global() {
  util::LockGuard lock{g_global_mutex};
  global_slot().reset();
}

}  // namespace cs::exec
