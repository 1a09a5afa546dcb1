// Promise/Future pair for decoupled completion signalling inside the
// simulator — the mechanism behind non-blocking KV operations: `iset/iget`
// return a Future the caller later waits on (memcached_wait semantics).
//
// State is shared_ptr-owned, so a Future outliving its Promise (or vice
// versa) is safe; both ends are single-threaded simulator objects. A
// `co_await f.wait()` borrows the state through f, so f must outlive the
// co_await: a local, a member of a live object, or a temporary inside the
// co_await expression itself all qualify.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "sim/sync.h"

namespace hpres::sim {

template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& sim) : state_(std::make_shared<State>(sim)) {}

  /// Fulfills the promise; at most once.
  void set_value(T value) {
    assert(!state_->value.has_value() && "Promise fulfilled twice");
    state_->value.emplace(std::move(value));
    state_->event.set();
  }

  [[nodiscard]] Future<T> get_future() const { return Future<T>{state_}; }

 private:
  friend class Future<T>;
  struct State {
    explicit State(Simulator& sim) : event(sim) {}
    Event event;
    std::optional<T> value;
  };

  std::shared_ptr<State> state_;
};

/// Awaitable handle to a Promise's eventual value. Copyable: several waiters
/// may await the same completion; each receives a copy of the value.
template <typename T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept {
    return state_ && state_->value.has_value();
  }

  /// Awaitable: suspends until the promise is fulfilled, then yields a copy
  /// of the value. Builds no coroutine frame and allocates nothing; this
  /// Future must outlive the co_await (see the header comment).
  [[nodiscard]] auto wait() const noexcept {
    assert(state_ && "waiting on an invalid Future");
    struct Awaiter : detail::ParkAwaiter {
      const typename Promise<T>::State* state;
      T await_resume() const { return *state->value; }
    };
    return Awaiter{state_->event.wait(), state_.get()};
  }

  /// Suspends until the promise is fulfilled or `timeout` simulated
  /// nanoseconds pass; nullopt on timeout (the deadline primitive behind
  /// RPC timeouts). The shared state stays valid, so a late fulfillment is
  /// still observable through ready()/try_get().
  Task<std::optional<T>> wait_for(SimDur timeout) const {
    auto state = state_;  // keep alive across suspension
    assert(state && "waiting on an invalid Future");
    const bool fulfilled = co_await state->event.wait_for(timeout);
    if (!fulfilled) co_return std::nullopt;
    co_return *state->value;
  }

  /// Non-suspending poll (memcached_test semantics).
  [[nodiscard]] const T* try_get() const noexcept {
    return ready() ? &*state_->value : nullptr;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> s)
      : state_(std::move(s)) {}

  std::shared_ptr<typename Promise<T>::State> state_;
};

}  // namespace hpres::sim
