#ifndef SNORKEL_UTIL_THREAD_POOL_H_
#define SNORKEL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace snorkel {

/// Fixed-size worker pool. Labeling-function application is embarrassingly
/// parallel over candidates (paper, Appendix C "Execution Model"); this pool
/// is the single-node replacement for the paper's multiprocessing / Spark
/// layers. The modeling hot paths (GenerativeModel training/inference,
/// structure learning, Dawid-Skene EM) shard over it via ParallelForShards.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 means hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn`; the returned future resolves when it has run.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [begin, end) across the pool in contiguous chunks
  /// and blocks until every index has been processed.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Runs fn(shard, lo, hi) for contiguous shards of [begin, end), each at
  /// most `grain` indices, and blocks until all shards are done. Shard
  /// boundaries are a function of `grain` alone — NOT of the pool size — so
  /// per-shard partial results reduced in shard order are bitwise-identical
  /// for any number of worker threads. This is the primitive behind the
  /// deterministic parallel training loops. A single shard (or a
  /// single-worker pool) runs inline on the calling thread.
  void ParallelForShards(
      size_t begin, size_t end, size_t grain,
      const std::function<void(size_t shard, size_t lo, size_t hi)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

/// The process-wide worker pool (hardware concurrency), created on first
/// use. The core/ and serve/ hot paths share it instead of spawning
/// per-call pools, so one process keeps one set of workers regardless of
/// how many models train or serve concurrently.
ThreadPool& SharedThreadPool();

/// Resolves the conventional `num_threads` knob used by the modeling
/// options structs, in one place: 0 = the process-wide SharedThreadPool();
/// n > 0 = a dedicated pool of n workers owned by this handle for its
/// lifetime (values below 1 are treated as 1).
class ScopedPool {
 public:
  explicit ScopedPool(int num_threads);

  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace snorkel

#endif  // SNORKEL_UTIL_THREAD_POOL_H_
