#include "sim/simulator.h"

#include <exception>

namespace hpres::sim {
namespace {

/// Self-destroying wrapper coroutine used to detach a Task from its owner.
/// The wrapper's frame owns the Task (parameter passed by value, per CP.53);
/// when the inner task finishes, the wrapper runs off its end and
/// suspend_never at the final point frees both frames.
struct Detached {
  std::coroutine_handle<> handle;

  struct promise_type : detail::RecycledFrame {
    Detached get_return_object() noexcept {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      // A detached simulation process has no awaiter to receive the
      // exception; escaping here is always a bug in the process itself.
      std::terminate();
    }
  };
};

Detached run_detached(Task<void> task) { co_await std::move(task); }

}  // namespace

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  // Start from the event loop (never nested inside the spawner) so process
  // start order is FIFO-deterministic at the current simulated time.
  schedule(run_detached(std::move(task)).handle, 0);
}

void Simulator::spawn_at(SimTime at, Task<void> task) {
  if (!task.valid()) return;
  assert(at >= now_ && "spawn_at in the past");
  schedule(run_detached(std::move(task)).handle, at - now_);
}

void Simulator::run_next() {
  std::coroutine_handle<> h;
  if (!heap_.empty() &&
      (ready_head_ == ready_.size() || heap_.top().at == now_)) {
    const Scheduled& top = heap_.top();
    now_ = top.at;
    h = top.handle;
    heap_.pop();
  } else {
    h = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {  // drained: reuse the buffer
      ready_.clear();
      ready_head_ = 0;
    }
  }
  ++executed_;
  h.resume();
}

SimTime Simulator::run() {
  while (!idle()) run_next();
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (!idle() && next_event_time() <= deadline) run_next();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

SimTime Simulator::run_window(SimTime end) {
  while (!idle() && next_event_time() < end) run_next();
  if (now_ < end) now_ = end;
  return now_;
}

}  // namespace hpres::sim
