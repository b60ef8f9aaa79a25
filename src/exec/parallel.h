#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "util/sync.h"

/// Fork-join building blocks over the global thread pool.
///
/// parallel_for_chunks(n, grain, fn) runs fn(begin, end) over a chunked
/// [0, n); parallel_for(n, fn) is the per-index form; parallel_map(n, fn)
/// collects fn(i) into a vector *in index order* (the ordered reduction
/// every pipeline stage uses to stay deterministic).
///
/// Guarantees:
///  - The calling thread participates, so a region completes even when
///    every worker is busy, and nested regions (a parallel_for inside a
///    pool task, or inside a chunk the caller itself runs) simply run
///    inline — no deadlock, no oversubscription, and no caller waiting
///    on runners that busy workers dequeue late.
///  - Work is claimed from a shared chunk counter, so threads never idle
///    while chunks remain, but *results* are keyed by index, which makes
///    the output independent of which worker ran what.
///  - The first exception thrown by any chunk is rethrown on the calling
///    thread after the region drains; remaining chunks are abandoned.
///
/// Determinism caveat: the default grain adapts to the pool size. That is
/// fine for pure per-index work, but when per-chunk state influences the
/// result (a resolver cache shared by a chunk, a chunk-seeded RNG), pass
/// an explicit grain so the chunking — and therefore the output — does not
/// change with CS_THREADS.
namespace cs::exec {

namespace detail {

/// True while a region opened on this thread must run inline: on a pool
/// worker for its whole life, and on a region's caller while it drains.
inline thread_local bool tls_inline_regions = false;  // cslint:allow(C1): per-thread nesting marker, not shared state

struct RegionState {
  std::atomic<std::size_t> next_chunk{0};
  std::size_t chunk_count = 0;
  std::atomic<unsigned> live_runners{0};
  util::Mutex mutex;
  util::CondVar done;
  std::exception_ptr error CS_GUARDED_BY(mutex);  ///< first failure

  void abandon_remaining() noexcept {
    next_chunk.store(chunk_count, std::memory_order_relaxed);
  }
};

}  // namespace detail

/// Chunked parallel loop: fn(begin, end) for consecutive [begin, end)
/// slices of [0, n). grain == 0 picks ~4 chunks per pool lane.
template <typename Fn>
void parallel_for_chunks(std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  ThreadPool& pool = ThreadPool::global();
  if (grain == 0) {
    const std::size_t lanes = pool.size();
    grain = std::max<std::size_t>(1, n / (lanes * 4));
  }
  const std::size_t chunks = (n + grain - 1) / grain;

  auto run_chunk = [&fn, grain, n](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = begin + grain < n ? begin + grain : n;
    fn(begin, end);
  };

  if (pool.worker_count() == 0 || chunks <= 1 || detail::tls_inline_regions) {
    // Sequential mode or a nested region: run inline, in chunk order.
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
    return;
  }

  detail::RegionState state;
  state.chunk_count = chunks;
  auto drain = [&state, &run_chunk]() noexcept {
    const bool outer = std::exchange(detail::tls_inline_regions, true);
    for (;;) {
      const std::size_t chunk =
          state.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= state.chunk_count) break;
      try {
        run_chunk(chunk);
      } catch (...) {
        util::LockGuard lock{state.mutex};
        if (!state.error) state.error = std::current_exception();
        state.abandon_remaining();
      }
    }
    detail::tls_inline_regions = outer;
  };

  const unsigned runners = static_cast<unsigned>(
      std::min<std::size_t>(pool.worker_count(), chunks - 1));
  state.live_runners.store(runners, std::memory_order_relaxed);
  for (unsigned r = 0; r < runners; ++r) {
    pool.submit([&state, &drain] {
      drain();
      util::LockGuard lock{state.mutex};
      if (state.live_runners.fetch_sub(1, std::memory_order_acq_rel) == 1)
        state.done.notify_one();
    });
  }

  drain();  // the caller is a lane too
  std::exception_ptr error;
  {
    util::LockGuard lock{state.mutex};
    while (state.live_runners.load(std::memory_order_acquire) != 0)
      state.done.wait(state.mutex);
    error = state.error;
  }
  if (error) std::rethrow_exception(error);
}

/// Per-index parallel loop: fn(i) for every i in [0, n).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  parallel_for_chunks(n, grain, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Ordered parallel map: returns {fn(0), fn(1), ..., fn(n-1)}. The result
/// type must be default-constructible (results are written by index).
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<Result> out(n);
  parallel_for_chunks(n, grain, [&fn, &out](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace cs::exec
