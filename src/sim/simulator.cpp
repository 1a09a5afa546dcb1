#include "sim/simulator.h"

namespace hpres::sim {

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  // Start from the event loop (never nested inside the spawner) so process
  // start order is FIFO-deterministic at the current simulated time.
  schedule(task.detach(), 0);
}

void Simulator::spawn_at(SimTime at, Task<void> task) {
  if (!task.valid()) return;
  assert(at >= now_ && "spawn_at in the past");
  schedule(task.detach(), at - now_);
}

void Simulator::run_next() {
  Action a{};
  if (!heap_.empty() &&
      (ready_head_ == ready_.size() || heap_.top().at == now_)) {
    const Scheduled& top = heap_.top();
    now_ = top.at;
    a = top.action;
    heap_.pop();
  } else {
    a = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {  // drained: reuse the buffer
      ready_.clear();
      ready_head_ = 0;
    }
  }
  ++executed_;
  a.fn(a.arg);
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

SimTime Simulator::run_before(SimTime end) {
  while (!idle() && next_event_time() < end) run_next();
  return now_;
}

SimTime Simulator::run_window(SimTime end) {
  run_before(end);
  if (now_ < end) now_ = end;
  return now_;
}

}  // namespace hpres::sim
