#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace snorkel {

namespace {

/// Waits for EVERY future before rethrowing the first captured exception:
/// bailing on the first get() would unwind the caller's frame (and
/// everything the submitted closures capture) while other chunks still run.
void WaitAll(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  size_t total = end - begin;
  size_t chunks = std::min(total, workers_.size() * 4);
  size_t chunk_size = (total + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    size_t lo = begin + c * chunk_size;
    size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  WaitAll(futures);
}

void ThreadPool::ParallelForShards(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  size_t total = end - begin;
  size_t num_shards = (total + grain - 1) / grain;
  // Inline fast path: shard boundaries are identical either way, so results
  // match the pooled path bit for bit.
  if (num_shards == 1 || workers_.size() == 1) {
    for (size_t s = 0; s < num_shards; ++s) {
      size_t lo = begin + s * grain;
      size_t hi = std::min(end, lo + grain);
      fn(s, lo, hi);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    size_t lo = begin + s * grain;
    size_t hi = std::min(end, lo + grain);
    futures.push_back(Submit([s, lo, hi, &fn] { fn(s, lo, hi); }));
  }
  WaitAll(futures);
}

ThreadPool& SharedThreadPool() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

ScopedPool::ScopedPool(int num_threads) {
  if (num_threads == 0) {
    pool_ = &SharedThreadPool();
  } else {
    owned_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, num_threads)));
    pool_ = owned_.get();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace snorkel
