// Deterministic discrete-event simulator.
//
// A single-threaded event loop over (time, sequence) ordered continuations.
// All awaitable primitives (delay, Event, Channel, Semaphore, resources)
// schedule coroutine resumptions through this loop, so execution order is a
// pure function of the program and its seeds — every experiment in this
// repository is reproducible bit-for-bit.
//
// Two lanes hold pending events. Positive delays go to a binary heap keyed
// on (time, sequence); zero delays — most events: spawns, Event::set,
// Semaphore::release, channel wake-ups — go to a FIFO "ready lane" stamped
// with the current time. The loop runs heap events due now, then the ready
// lane, and only then advances the clock. That is exactly (time, sequence)
// order: a heap event due at now() was scheduled before the clock reached
// now(), so its sequence number is lower than that of every ready-lane
// event, all of which were scheduled at now().
//
// An event is an Action: a plain function pointer and its argument.
// Resuming a coroutine is one kind of action; the fabric's message
// delivery record schedules its own two actions, with no coroutine frame
// in between.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace hpres::sim {

/// One scheduled event: `fn(arg)`.
struct Action {
  void (*fn)(void*);
  void* arg;
};

class Simulator {
 public:
  /// next_event_time() sentinel for an empty queue.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (ns since simulation start).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Schedules `h` to resume after `delay` (>= 0) simulated nanoseconds.
  /// Events at equal times run in scheduling (FIFO) order. A negative delay
  /// is a bug in the caller — typically a cross-shard message stamped
  /// before the receiver's clock — and asserts in debug builds; release
  /// builds keep the historical clamp-to-now behaviour.
  void schedule(std::coroutine_handle<> h, SimDur delay = 0) {
    schedule_action(Action{&resume_handle, h.address()}, delay);
  }

  /// Schedules `action` to run after `delay` (>= 0) simulated nanoseconds,
  /// in the same (time, sequence) order as coroutine resumptions.
  void schedule_action(Action action, SimDur delay = 0) {
    assert(delay >= 0 && "negative schedule() delay (stale timestamp?)");
    if (delay <= 0) {
      ready_.push_back(action);
    } else {
      heap_.push(Scheduled{now_ + delay, next_seq_++, action});
    }
  }

  /// Starts a detached process. The process begins at the current simulated
  /// time once the event loop runs; its own frame is the scheduled event
  /// and frees itself on completion. A process must run to completion
  /// before the Simulator is destroyed (drain with run()).
  void spawn(Task<void> task);

  /// Starts a detached process at absolute simulated time `at` (>= now).
  /// Used by the shard runtime to merge cross-shard messages at their due
  /// time without disturbing the window computation.
  void spawn_at(SimTime at, Task<void> task);

  /// Awaitable: suspends the caller for `d` simulated nanoseconds.
  [[nodiscard]] auto delay(SimDur d) noexcept {
    struct Awaiter {
      Simulator* sim;
      SimDur dur;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->schedule(h, dur);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue is empty. Returns the final simulated time.
  SimTime run();

  /// Runs until the queue is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued.
  SimTime run_until(SimTime deadline);

  /// Executes every event strictly before `end` and leaves events at or
  /// after `end` queued. The clock stays at the last event run, so the
  /// window boundary never moves it into empty time (the one-shard runtime
  /// loop relies on this).
  SimTime run_before(SimTime end);

  /// Conservative-window run: run_before(`end`), then advances the clock to
  /// `end`. The strict bound is what makes the shard lookahead proof work:
  /// a message sent by a peer shard inside the same window is due at
  /// >= `end`, so it can still be merged at its exact timestamp afterwards.
  SimTime run_window(SimTime end);

  /// Timestamp of the earliest queued event, or kNever when idle. This is
  /// the per-shard horizon the conservative scheduler synchronizes on.
  [[nodiscard]] SimTime next_event_time() const noexcept {
    if (ready_head_ < ready_.size()) return now_;
    return heap_.empty() ? kNever : heap_.top().at;
  }

  /// True if no events remain.
  [[nodiscard]] bool idle() const noexcept {
    return ready_head_ == ready_.size() && heap_.empty();
  }

 private:
  /// Pops the next event in (time, sequence) order, advances the clock to
  /// it and resumes it. Requires !idle().
  void run_next();

  static void resume_handle(void* address) {
    std::coroutine_handle<>::from_address(address).resume();
  }

  struct Scheduled {
    SimTime at;
    std::uint64_t seq;
    Action action;

    // std::priority_queue is a max-heap; invert for earliest-first.
    friend bool operator<(const Scheduled& a, const Scheduled& b) noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Scheduled> heap_;          // delay > 0
  std::vector<Action> ready_;                   // delay <= 0, due at now_
  std::size_t ready_head_ = 0;                  // next ready_ entry to run
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hpres::sim
