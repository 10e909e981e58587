/// \file parallel.hpp
/// \brief Shared-memory parallel primitives used by the hot kernels.
///
/// One process-wide thread pool with a blocking parallel_for and parallel
/// reductions.  It is the only parallel mechanism in the library: the
/// state vector's chunked gate sweeps and reductions, the Chebyshev
/// operator's tiles and row splits, and task-level sweeps (e.g. one random
/// complex per worker in the Fig. 3 sweep) all run on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace qtda {

/// Number of hardware threads, with a safe floor of 1.
std::size_t hardware_concurrency();

/// A fixed-size pool of worker threads executing submitted closures.
/// Workers are joined on destruction (RAII; no detached threads).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Submits a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

  /// Barrier step: runs body(i) for every i in [0, count) across this pool
  /// and blocks until all invocations have returned.  The state vector's
  /// chunked sweeps dispatch one task per chunk through it, so a gate never
  /// starts before the previous one has finished everywhere.  The first
  /// exception thrown by any task is rethrown here after the barrier.
  /// Called from inside any pool worker it degrades to a serial loop (same
  /// nesting guard as parallel_for).
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed, never torn down before
  /// main exits).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ QTDA_GUARDED_BY(mutex_);
  std::size_t in_flight_ QTDA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ QTDA_GUARDED_BY(mutex_) = false;
};

/// Fair-share split of the shared pool among \p active_requests concurrent
/// consumers: how many workers one request should claim so no single huge
/// register starves the rest.  Never below 1, never above the pool size.
/// The serving layer clamps each request's simulator shard count (the state
/// vector's sweep chunks) with this — safe to apply at any moment because
/// the chunk count never changes results.
std::size_t fair_thread_share(std::size_t active_requests);

/// Runs body(i) for i in [begin, end) across the shared pool, blocking until
/// completion.  Work is split into contiguous chunks, one per worker, which
/// is the right grain for the memory-bound kernels in this library.  Runs
/// serially when the range is small or the pool has one thread.  Safe to
/// call from inside a pool task: nested invocations run serially instead of
/// deadlocking the pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_parallel_size = 1024);

/// Chunked variant: body(chunk_begin, chunk_end) per worker.  Lower
/// per-element overhead for tight loops.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_parallel_size = 1024);

/// Parallel sum-reduction of body(i) over [begin, end).  The chunk partials
/// are merged in completion order, so the floating-point result can jitter
/// between runs; use parallel_reduce_ordered where reproducibility matters.
double parallel_reduce_sum(std::size_t begin, std::size_t end,
                           const std::function<double(std::size_t)>& body,
                           std::size_t min_parallel_size = 1024);

/// Deterministic parallel reduction into \p result: [begin, end) is split
/// into a fixed number of contiguous chunks (at most the pool size),
/// `body(i, partial)` accumulates each chunk into its own partial
/// (initialized to \p identity), and the partials are merged into \p result
/// with `merge(result, partial)` in chunk order.  Because both the split
/// and the merge order are fixed functions of the pool size, the result is
/// reproducible run-to-run on a given machine — the property the sampling
/// cumulative sums need — unlike parallel_reduce_sum's arrival-order merge.
template <typename Partial, typename Body, typename Merge>
void parallel_reduce_ordered(std::size_t begin, std::size_t end,
                             Partial& result, const Partial& identity,
                             Body&& body, Merge&& merge,
                             std::size_t min_parallel_size = 1024) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks =
      n < min_parallel_size ? 1 : std::min(ThreadPool::shared().size(), n);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i, result);
    return;
  }
  const std::size_t span = (n + chunks - 1) / chunks;
  std::vector<Partial> partials(chunks, identity);
  parallel_for(
      0, chunks,
      [&](std::size_t c) {
        const std::size_t lo = begin + c * span;
        const std::size_t hi = std::min(end, lo + span);
        for (std::size_t i = lo; i < hi; ++i) body(i, partials[c]);
      },
      /*min_parallel_size=*/1);
  for (const Partial& partial : partials) merge(result, partial);
}

}  // namespace qtda
