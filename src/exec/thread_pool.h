#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

/// CS_THREADS workers taking tasks from one FIFO. The tasks are parallel
/// regions' runners (exec/parallel.h); a runner can claim any chunk of its
/// region, so no task needs a home worker. Nothing built on the pool may
/// depend on where a task runs: work and results are keyed by index, RNG
/// streams by shard (exec/sharded_rng.h). Workers name their trace lanes
/// ("exec-worker-0" ...) and feed exec.pool.tasks and exec.pool.task_us.
namespace cs::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers when threads > 1; otherwise none, and
  /// submit() runs each task before it returns (sequential mode).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();  ///< runs every queued task, then joins the workers

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Spawned workers, 0 in sequential mode. size() is the same count but
  /// at least 1: the lanes parallel algorithms pick their fan-out from.
  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }
  unsigned size() const noexcept { return std::max(worker_count(), 1u); }

  /// Enqueues one task. A task must not wait on other pool tasks: fork-join
  /// work uses parallel_for, whose caller drains chunks too.
  void submit(Task task);

  /// The process-wide pool of exec::thread_count() workers, built on first
  /// use. rebuild_global() drops it, only while no pool work is in flight.
  static ThreadPool& global();
  static void rebuild_global();

 private:
  void worker_loop(unsigned index);

  util::Mutex mutex_;
  util::CondVar wake_;
  std::deque<Task> tasks_ CS_GUARDED_BY(mutex_);
  bool stop_ CS_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace cs::exec
