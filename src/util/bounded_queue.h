#ifndef SNORKEL_UTIL_BOUNDED_QUEUE_H_
#define SNORKEL_UTIL_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/fault.h"

namespace snorkel {

/// Admission configuration of a BoundedQueue. The defaults give a plain
/// count-bounded queue; turning either knob on adds overload control.
struct BoundedQueueOptions {
  /// Item-count capacity (clamped to >= 1).
  size_t capacity = 1;
  /// Budget of estimated cost units queued at once; 0 = no cost admission
  /// (count-only). Cost units are caller-defined (the shard server uses
  /// rows × LFs) and calibrated against wall clock via OnServiced().
  uint64_t cost_budget = 0;
  /// CoDel-style shedding target: a BULK item popped after sojourning more
  /// than 2× this many milliseconds is shed (handed back to the consumer to
  /// fail typed) instead of served — queued work whose useful life has
  /// drained must not starve fresher work. 0 disables shedding at pop.
  /// Interactive items are never shed here; their own deadlines bound them.
  uint64_t sojourn_target_ms = 0;
};

/// A bounded multi-producer / multi-consumer queue with explicit
/// backpressure — the admission primitive of a shard server
/// (net/shard_server.cc). Capacity is a hard bound: a producer that does not
/// fit gets a typed `kQueueFull` rejection so it can shed load instead of
/// queueing unboundedly.
///
/// On top of the count bound the queue optionally admits against a COST
/// budget with two priority lanes (BoundedQueueOptions): each costed item
/// carries an estimated cost, interactive items are served before bulk, and
/// when an interactive arrival finds the budget (or count) exhausted it
/// displaces queued BULK items — bulk shed first, never the reverse. Shed
/// items are returned to the caller (never silently dropped) so their
/// owners can fail them typed with a retry hint. An EWMA of observed
/// service time per cost unit (OnServiced) turns the queued cost into a
/// `retry_after` estimate for rejections.
///
/// Shutdown is two-phase: `Close()` refuses every subsequent push while
/// consumers keep draining whatever was admitted; once the queue is empty,
/// `Pop` returns nullopt and workers exit. Nothing admitted is ever dropped
/// without being handed back — the clean-drain contract the server's
/// shutdown path relies on.
template <typename T>
class BoundedQueue {
 public:
  enum class PushResult {
    kOk = 0,
    /// The queue is at capacity; the item was NOT consumed.
    kQueueFull,
    /// Close() was called; the item was NOT consumed.
    kClosed,
  };

  /// Priority lane of a costed item. Interactive (small, latency-sensitive)
  /// items are served first and shed last; bulk items absorb displacement.
  enum class Lane : uint8_t { kInteractive = 0, kBulk = 1 };

  explicit BoundedQueue(const BoundedQueueOptions& options)
      : options_(options) {
    if (options_.capacity == 0) options_.capacity = 1;
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission; moves from `item` only on kOk. Admits when both
  /// the count capacity and (when a budget is configured) the cost budget
  /// fit. An INTERACTIVE arrival that does not fit displaces queued BULK
  /// items oldest-first into `*shed` until it does (bulk shed first); a BULK
  /// arrival never displaces anything and is rejected kQueueFull instead. On
  /// kQueueFull/kClosed the item is NOT consumed and nothing was shed —
  /// displacement only happens when it actually makes room (no vain
  /// shedding).
  PushResult TryPush(T&& item, uint64_t cost, Lane lane,
                     std::vector<T>* shed) {
    // Injection site "queue.admit": an injected fault is a capacity
    // rejection — the same typed backpressure a genuinely full queue
    // produces (the item is NOT consumed).
    if (fault::Point("queue.admit")) return PushResult::kQueueFull;
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    auto fits = [&] {
      if (count() >= options_.capacity) return false;
      if (options_.cost_budget > 0 && cost_used_ > 0 &&
          cost_used_ + cost > options_.cost_budget) {
        return false;
      }
      return true;
    };
    if (!fits()) {
      if (lane != Lane::kInteractive) return PushResult::kQueueFull;
      // Would displacing EVERY queued bulk item make room? If not, reject
      // without shedding work that cannot help (an arrival too large for
      // the budget must not vaporize the bulk lane for nothing).
      uint64_t bulk_cost = 0;
      for (const Slot& slot : lanes_[1]) bulk_cost += slot.cost;
      const uint64_t cost_without_bulk = cost_used_ - bulk_cost;
      const bool could_fit =
          lanes_[0].size() < options_.capacity &&
          !(options_.cost_budget > 0 && cost_without_bulk > 0 &&
            cost_without_bulk + cost > options_.cost_budget);
      if (!could_fit) return PushResult::kQueueFull;
      // Bulk-shed-first displacement: drop the oldest queued bulk work to
      // make room for interactive work, handing each victim back to the
      // caller to fail typed. Interactive never displaces interactive.
      while (!fits()) {
        Slot victim = std::move(lanes_[1].front());
        lanes_[1].pop_front();
        cost_used_ -= victim.cost;
        if (shed != nullptr) shed->push_back(std::move(victim.value));
      }
    }
    Enqueue(std::move(item), cost, lane);
    return PushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed AND drained
  /// (then returns nullopt — the consumer's exit signal). Interactive items
  /// are served before bulk. CoDel-style shedding: a bulk item whose
  /// sojourn exceeded 2× the configured target when popped is appended to
  /// `*shed` (null = never shed) for the caller to fail typed, and the next
  /// item is popped instead. Items are never shed without being handed
  /// back.
  std::optional<T> Pop(std::vector<T>* shed) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      while (!closed_ && count() == 0) {
        ++waiting_consumers_;
        not_empty_.wait(lock);
        --waiting_consumers_;
      }
      if (count() == 0) return std::nullopt;
      Slot slot = Dequeue();
      if (shed != nullptr && ShouldShed(slot)) {
        shed->push_back(std::move(slot.value));
        continue;
      }
      return std::move(slot.value);
    }
  }

  /// Refuses all future pushes; consumers drain the remaining items.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Instantaneous depth (a gauge; stale by the time the caller reads it).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count();
  }

  size_t capacity() const { return options_.capacity; }

  /// Cost units currently queued (0 in count-only use).
  uint64_t cost_used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_used_;
  }

  /// Calibration feedback: a consumer finished an item of `cost` units in
  /// `elapsed_us` microseconds of service time. Folded into an EWMA of
  /// per-unit service time, which prices retry_after estimates.
  void OnServiced(uint64_t cost, uint64_t elapsed_us) {
    std::lock_guard<std::mutex> lock(mu_);
    double per_unit =
        static_cast<double>(elapsed_us) / static_cast<double>(cost == 0 ? 1 : cost);
    ewma_us_per_cost_ =
        ewma_us_per_cost_ == 0.0 ? per_unit
                                 : 0.8 * ewma_us_per_cost_ + 0.2 * per_unit;
  }

  /// How long a rejected producer should wait before retrying: the queued
  /// cost priced at the calibrated per-unit service time, divided by the
  /// consumer parallelism `divisor`. Always >= 1 ms so rejections can carry
  /// a non-zero hint even before the first calibration sample.
  uint64_t EstimateRetryAfterMs(uint64_t divisor = 1) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (divisor == 0) divisor = 1;
    // Before any calibration sample, price each queued cost unit (or, in
    // count-only use, each queued item) at 1 ms — deliberately conservative.
    double backlog = cost_used_ > 0 ? static_cast<double>(cost_used_)
                                    : static_cast<double>(count());
    double per_unit_us =
        ewma_us_per_cost_ > 0.0 ? ewma_us_per_cost_ : 1000.0;
    uint64_t ms = static_cast<uint64_t>(backlog * per_unit_us /
                                        (1000.0 * static_cast<double>(divisor)));
    return ms == 0 ? 1 : ms;
  }

 private:
  /// One queued item with its admission metadata.
  struct Slot {
    T value;
    uint64_t cost = 0;
    Lane lane = Lane::kInteractive;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Callers hold mu_ for everything below.

  size_t count() const { return lanes_[0].size() + lanes_[1].size(); }

  void Enqueue(T&& item, uint64_t cost, Lane lane) {
    lanes_[static_cast<size_t>(lane)].push_back(
        Slot{std::move(item), cost, lane, std::chrono::steady_clock::now()});
    cost_used_ += cost;
    NotifyConsumer();
  }

  /// Pops the next item, interactive lane first (priority order).
  Slot Dequeue() {
    std::deque<Slot>& lane = lanes_[0].empty() ? lanes_[1] : lanes_[0];
    Slot slot = std::move(lane.front());
    lane.pop_front();
    cost_used_ -= slot.cost;
    return slot;
  }

  /// CoDel-style drop decision at dequeue: bulk work that sojourned past
  /// twice the target (one target of tolerance + one interval of
  /// persistence) is stale enough that serving it starves fresher work.
  /// Interactive work is never shed here — its own deadline bounds it.
  bool ShouldShed(const Slot& slot) const {
    if (options_.sojourn_target_ms == 0) return false;
    if (slot.lane != Lane::kBulk) return false;
    auto sojourn = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - slot.enqueued)
                       .count();
    return static_cast<uint64_t>(sojourn) >= 2 * options_.sojourn_target_ms;
  }

  /// Wake suppression (callers hold mu_): a busy consumer drains without
  /// ever sleeping, so signalling every push would be a wasted futex
  /// syscall on the hot path. Only threads actually parked in wait() are
  /// counted, and only then is a signal issued.
  void NotifyConsumer() {
    if (waiting_consumers_ > 0) not_empty_.notify_one();
  }

  BoundedQueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  /// lanes_[0] = interactive, lanes_[1] = bulk; served in that order.
  std::deque<Slot> lanes_[2];
  uint64_t cost_used_ = 0;
  double ewma_us_per_cost_ = 0.0;
  size_t waiting_consumers_ = 0;
  bool closed_ = false;
};

}  // namespace snorkel

#endif  // SNORKEL_UTIL_BOUNDED_QUEUE_H_
