// Synchronization primitives for simulator coroutines: one-shot Event,
// unbounded FIFO Channel, counting Semaphore, Condition, countdown Latch,
// and WorkerPool (a semaphore-guarded compute resource that charges
// simulated time).
//
// Lifetime invariant shared by all primitives: a coroutine suspended on a
// primitive must be kept alive until it resumes (the simulator never drops
// scheduled handles), and the primitive must outlive its waiters.
//
// Waiting allocates nothing. A parked coroutine is linked into its
// primitive's FIFO through a node embedded in the awaiter, which lives in
// the waiting coroutine's own frame until it resumes. Event, Latch and
// Condition waits (and Future waits, future.h) return such awaiters
// directly instead of a child Task, so a wait builds no coroutine frame.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"

namespace hpres::sim {

namespace detail {

/// A parked coroutine's link in a WaitQueue.
struct WaitNode {
  WaitNode* next = nullptr;
  std::coroutine_handle<> handle;
};

/// Intrusive FIFO of parked coroutines; wake-ups schedule them through the
/// simulator in park order.
class WaitQueue {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push_back(WaitNode* node) noexcept {
    node->next = nullptr;
    if (tail_ == nullptr) {
      head_ = node;
    } else {
      tail_->next = node;
    }
    tail_ = node;
    ++size_;
  }

  /// Schedules the oldest waiter, if any.
  void wake_one(Simulator& sim) {
    WaitNode* node = head_;
    if (node == nullptr) return;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    sim.schedule(node->handle, 0);
  }

  /// Schedules every waiter, oldest first.
  void wake_all(Simulator& sim) {
    WaitNode* node = std::exchange(head_, nullptr);
    tail_ = nullptr;
    size_ = 0;
    while (node != nullptr) {
      WaitNode* next = node->next;  // the node dies once its owner resumes
      sim.schedule(node->handle, 0);
      node = next;
    }
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Parks the awaiting coroutine on a WaitQueue, unless `*ready` (when
/// given) is already true. Must stay trivially destructible (raw pointers
/// only): g++-12 destroys a non-trivial awaiter temporary twice (once at
/// the end of the co_await full-expression, once during frame cleanup).
struct ParkAwaiter : WaitNode {
  WaitQueue* queue;
  const bool* ready = nullptr;

  explicit ParkAwaiter(WaitQueue* q, const bool* r = nullptr) noexcept
      : queue(q), ready(r) {}

  [[nodiscard]] bool await_ready() const noexcept {
    return ready != nullptr && *ready;
  }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    handle = h;
    queue->push_back(this);
  }
  void await_resume() const noexcept {}
};
static_assert(std::is_trivially_destructible_v<ParkAwaiter>);

/// One waiter with a deadline. Both the signalling primitive and a timer
/// coroutine race to resume the parked handle; `fired` makes the wake-up
/// one-shot so the loser becomes a no-op (no double resume).
struct TimedWaiter {
  std::coroutine_handle<> handle;
  bool fired = false;     ///< the handle has been (re)scheduled
  bool signaled = false;  ///< woken by the primitive, not the deadline
};

/// Parks a coroutine as a TimedWaiter on the owning primitive's list.
/// Trivially destructible for the same g++-12 reason as ParkAwaiter, so
/// it holds the waiter through a raw pointer to the caller's shared_ptr;
/// the list takes its own reference inside await_suspend.
struct TimedParkAwaiter {
  std::vector<std::shared_ptr<TimedWaiter>>* waiters;
  const std::shared_ptr<TimedWaiter>* waiter;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    (*waiter)->handle = h;
    waiters->push_back(*waiter);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

/// One-shot broadcast event. `wait()` suspends until `set()`; waiting on an
/// already-set event completes immediately (same simulated time).
class Event {
 public:
  explicit Event(Simulator& sim) noexcept : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const noexcept { return set_; }

  /// Wakes every waiter at the current time: plain waiters in park order,
  /// then timed waiters whose deadline has not fired, in park order.
  void set() {
    if (set_) return;
    set_ = true;
    waiters_.wake_all(*sim_);
    for (const auto& waiter : timed_waiters_) {
      if (waiter->fired) continue;  // timed-out waiters were already resumed
      waiter->fired = true;
      waiter->signaled = true;
      sim_->schedule(waiter->handle, 0);
    }
    timed_waiters_.clear();
  }

  /// Awaitable: suspends until `set()`. Allocates nothing; the event must
  /// outlive the co_await.
  [[nodiscard]] detail::ParkAwaiter wait() noexcept {
    return detail::ParkAwaiter{&waiters_, &set_};
  }

  /// Suspends until `set()` or until `timeout` simulated nanoseconds pass,
  /// whichever comes first. Returns true when the event fired, false on
  /// timeout. An already-set event returns true without suspending. The
  /// deadline is driven by a spawned timer coroutine, so a wait_for whose
  /// event fires early still holds one queued timer event until the
  /// deadline passes (harmless: it wakes nobody).
  Task<bool> wait_for(SimDur timeout) {
    if (set_) co_return true;
    auto waiter = std::make_shared<detail::TimedWaiter>();
    sim_->spawn(deadline_coro(sim_, waiter, timeout));
    co_await detail::TimedParkAwaiter{&timed_waiters_, &waiter};
    co_return waiter->signaled;
  }

 private:
  static Task<void> deadline_coro(Simulator* sim,
                                  std::shared_ptr<detail::TimedWaiter> waiter,
                                  SimDur timeout) {
    co_await sim->delay(timeout);
    if (waiter->fired) co_return;  // lost the race: set() already woke it
    waiter->fired = true;
    sim->schedule(waiter->handle, 0);
  }

  Simulator* sim_;
  bool set_ = false;
  detail::WaitQueue waiters_;
  std::vector<std::shared_ptr<detail::TimedWaiter>> timed_waiters_;
};

/// Unbounded FIFO channel. Multiple producers and consumers are supported;
/// `recv()` returns nullopt once the channel is closed and drained. Items
/// sit in a power-of-two ring that only grows, so a steady stream of
/// messages through a node's inbox allocates nothing.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) noexcept : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues an item. Valid until close(); sends after close are dropped
  /// (the peer has gone away — mirrors writing to a dead connection).
  void send(T item) {
    if (closed_) return;
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(item);
    ++count_;
    waiters_.wake_one(*sim_);
  }

  /// Closes the channel: queued items remain receivable; subsequent recv()
  /// on an empty channel yields nullopt.
  void close() {
    closed_ = true;
    waiters_.wake_all(*sim_);
  }

  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Receives the next item, suspending while the channel is empty and open.
  Task<std::optional<T>> recv() {
    for (;;) {
      if (count_ > 0) co_return std::optional<T>{pop_front()};
      if (closed_) co_return std::nullopt;
      co_await detail::ParkAwaiter{&waiters_};
    }
  }

  /// Non-suspending receive; nullopt when empty.
  std::optional<T> try_recv() {
    if (count_ == 0) return std::nullopt;
    return pop_front();
  }

 private:
  T pop_front() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return item;
  }

  void grow() {
    std::vector<T> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  Simulator* sim_;
  std::vector<T> ring_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  detail::WaitQueue waiters_;
  bool closed_ = false;
};

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::uint32_t initial) noexcept
      : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::uint32_t available() const noexcept { return count_; }

  /// Coroutines currently parked in acquire() (queue-depth signal).
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  Task<void> acquire() {
    while (count_ == 0) co_await detail::ParkAwaiter{&waiters_};
    --count_;
  }

  /// Acquires without suspending if a permit is free; false otherwise.
  bool try_acquire() noexcept {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  void release() {
    ++count_;
    waiters_.wake_one(*sim_);
  }

 private:
  Simulator* sim_;
  std::uint32_t count_;
  detail::WaitQueue waiters_;
};

/// Condition variable: waiters park until notify_all(), then re-check their
/// predicate (wait() must be used inside a while-loop, as with
/// std::condition_variable).
class Condition {
 public:
  explicit Condition(Simulator& sim) noexcept : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Awaitable: parks until the next notify_all(). Allocates nothing.
  [[nodiscard]] detail::ParkAwaiter wait() noexcept {
    return detail::ParkAwaiter{&waiters_};
  }

  void notify_all() { waiters_.wake_all(*sim_); }

 private:
  Simulator* sim_;
  detail::WaitQueue waiters_;
};

/// Countdown latch: wait() completes once count_down() has been called
/// `expected` times. Used by engines to join fan-out sub-operations.
class Latch {
 public:
  Latch(Simulator& sim, std::uint32_t expected)
      : remaining_(expected), event_(sim) {
    if (remaining_ == 0) event_.set();
  }
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down() {
    assert(remaining_ > 0 && "Latch::count_down past zero");
    if (--remaining_ == 0) event_.set();
  }

  [[nodiscard]] std::uint32_t remaining() const noexcept { return remaining_; }

  /// Awaitable: completes once the count reaches zero.
  [[nodiscard]] detail::ParkAwaiter wait() noexcept { return event_.wait(); }

 private:
  std::uint32_t remaining_;
  Event event_;
};

/// A pool of identical compute workers (e.g. a server's worker threads or a
/// client's encoding cores). `execute(d)` occupies one worker for `d`
/// simulated nanoseconds, queueing when all workers are busy.
class WorkerPool {
 public:
  WorkerPool(Simulator& sim, std::uint32_t workers)
      : sim_(&sim), sem_(sim, workers), workers_(workers) {}

  [[nodiscard]] std::uint32_t size() const noexcept { return workers_; }
  [[nodiscard]] SimDur busy_time() const noexcept { return busy_ns_; }

  /// Tasks queued behind busy workers right now. Servers piggyback this on
  /// responses as a load signal for client-side read-set selection.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return sem_.waiting();
  }

  Task<void> execute(SimDur duration) {
    co_await sem_.acquire();
    co_await sim_->delay(duration);
    busy_ns_ += duration;
    sem_.release();
  }

 private:
  Simulator* sim_;
  Semaphore sem_;
  std::uint32_t workers_;
  SimDur busy_ns_ = 0;
};

}  // namespace hpres::sim
