// Promise/Future completion semantics (the iset/iget handle machinery).
#include "sim/future.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.h"

namespace hpres::sim {
namespace {

Task<void> fulfill_after(Simulator* sim, Promise<int> promise, SimDur d,
                         int value) {
  co_await sim->delay(d);
  promise.set_value(value);
}

Task<void> await_future(Simulator* sim, Future<int> future,
                        std::vector<std::pair<int, SimTime>>* log) {
  const int v = co_await future.wait();
  log->push_back({v, sim->now()});
}

TEST(Future, DeliversValueAtFulfillmentTime) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(fulfill_after(&sim, p, 250, 7));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 7);
  EXPECT_EQ(log[0].second, 250);
}

TEST(Future, MultipleWaitersAllReceive) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(fulfill_after(&sim, p, 10, 5));
  sim.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST(Future, WaitAfterFulfillmentIsImmediate) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(3);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 0);
}

TEST(Future, TryGetPollsWithoutSuspending) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.get_future();
  EXPECT_FALSE(f.ready());
  EXPECT_EQ(f.try_get(), nullptr);
  p.set_value(9);
  EXPECT_TRUE(f.ready());
  ASSERT_NE(f.try_get(), nullptr);
  EXPECT_EQ(*f.try_get(), 9);
}

TEST(Future, OutlivesPromise) {
  Simulator sim;
  Future<int> f;
  {
    Promise<int> p(sim);
    f = p.get_future();
    p.set_value(11);
  }  // promise destroyed
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(*f.try_get(), 11);
}

TEST(Future, DefaultConstructedIsInvalid) {
  const Future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.ready());
}

// --- Future::wait_for (RPC deadline primitive) -------------------------------

Task<void> timed_await(Simulator* sim, Future<int> future, SimDur timeout,
                       std::vector<std::pair<std::optional<int>, SimTime>>* log) {
  std::optional<int> v = co_await future.wait_for(timeout);
  log->push_back({std::move(v), sim->now()});
}

TEST(FutureWaitFor, DeliversValueBeforeDeadline) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<std::optional<int>, SimTime>> log;
  sim.spawn(timed_await(&sim, p.get_future(), 1'000, &log));
  sim.spawn(fulfill_after(&sim, p, 250, 7));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  ASSERT_TRUE(log[0].first.has_value());
  EXPECT_EQ(*log[0].first, 7);
  EXPECT_EQ(log[0].second, 250);
}

TEST(FutureWaitFor, NulloptAtExactDeadline) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<std::optional<int>, SimTime>> log;
  sim.spawn(timed_await(&sim, p.get_future(), 1'000, &log));
  sim.spawn(fulfill_after(&sim, p, 5'000, 7));  // too late
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].first.has_value());
  EXPECT_EQ(log[0].second, 1'000);
}

TEST(FutureWaitFor, LateFulfillmentStillObservable) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.get_future();
  std::vector<std::pair<std::optional<int>, SimTime>> log;
  sim.spawn(timed_await(&sim, f, 100, &log));
  sim.spawn(fulfill_after(&sim, p, 700, 42));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].first.has_value());
  ASSERT_TRUE(f.ready());  // the shared state caught the late value
  EXPECT_EQ(*f.try_get(), 42);
}

TEST(FutureWaitFor, ManyRacingWaitersStress) {
  // Dense race coverage around the deadline: fulfillment lands before, at,
  // and after each waiter's deadline, all at close-packed timestamps.
  Simulator sim;
  std::vector<std::pair<std::optional<int>, SimTime>> log;
  std::vector<Promise<int>> promises;
  promises.reserve(64);
  for (int i = 0; i < 64; ++i) {
    promises.emplace_back(sim);
    const SimDur timeout = 10 + (i % 7);
    const SimDur fulfill = 8 + (i % 9);
    sim.spawn(timed_await(&sim, promises[static_cast<std::size_t>(i)]
                                    .get_future(),
                          timeout, &log));
    sim.spawn(fulfill_after(&sim, promises[static_cast<std::size_t>(i)],
                            fulfill, i));
  }
  sim.run();
  EXPECT_EQ(log.size(), 64u);
  for (const auto& [value, at] : log) {
    if (value.has_value()) {
      const int i = *value;
      EXPECT_LE(8 + (i % 9), 10 + (i % 7)) << "value delivered past deadline";
    }
  }
}

// --- Frame-free waits and allocation budget ----------------------------------

Task<void> await_counting_events(Simulator* sim, Future<int> future,
                                 std::uint64_t* events_while_waiting,
                                 int* got) {
  const std::uint64_t before = sim->events_executed();
  *got = co_await future.wait();
  *events_while_waiting = sim->events_executed() - before;
}

TEST(Future, WaitOnFulfilledFutureDoesNotSuspend) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(4);
  const Future<int> f = p.get_future();
  EXPECT_TRUE(f.wait().await_ready());
  std::uint64_t events = 99;
  int got = 0;
  sim.spawn(await_counting_events(&sim, f, &events, &got));
  sim.run();
  EXPECT_EQ(got, 4);
  EXPECT_EQ(events, 0u);  // resumed inline, no scheduled wake-up
}

Task<void> await_copy(Future<std::string> future, std::string label,
                      std::vector<std::string>* log) {
  std::string value = co_await future.wait();
  log->push_back(label + ":" + value);
  value += "-mutated";  // a private copy: other waiters must not see this
}

TEST(Future, WaitersGetCopiesInParkOrder) {
  Simulator sim;
  Promise<std::string> p(sim);
  const Future<std::string> f = p.get_future();
  std::vector<std::string> log;
  for (const char* label : {"w0", "w1", "w2", "w3", "w4"}) {
    sim.spawn(await_copy(f, label, &log));
  }
  sim.run();  // all five parked, in spawn order
  EXPECT_TRUE(log.empty());
  p.set_value("v");
  sim.run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"w0:v", "w1:v", "w2:v", "w3:v", "w4:v"}));
  ASSERT_NE(f.try_get(), nullptr);
  EXPECT_EQ(*f.try_get(), "v");
}

Task<void> fulfill_slot(Simulator* sim, Promise<int>** slot, SimDur d,
                        int value) {
  co_await sim->delay(d);
  (*slot)->set_value(value);
}

Task<void> measured_round_trip(Simulator* sim, Promise<int>** slot,
                               std::uint64_t* allocations, int* got) {
  const std::uint64_t before = test_alloc::allocations();
  Promise<int> promise(*sim);
  *slot = &promise;
  const Future<int> future = promise.get_future();
  *got = co_await future.wait();  // parks until fulfill_slot sets it
  *allocations = test_alloc::allocations() - before;
}

// A Promise round trip — create, park a waiter, fulfil, resume — allocates
// exactly its shared state block: the wait builds no coroutine frame and
// the waiter list is intrusive.
TEST(Future, PromiseRoundTripAllocatesOnlyItsState) {
  Simulator sim;
  Promise<int>* slot = nullptr;
  std::uint64_t allocations = 0;
  int got = 0;
  for (int round = 0; round < 2; ++round) {  // round 0 warms the queues
    sim.spawn(fulfill_slot(&sim, &slot, 10, 7 + round));
    sim.spawn(measured_round_trip(&sim, &slot, &allocations, &got));
    sim.run();
    EXPECT_EQ(got, 7 + round);
  }
  EXPECT_EQ(allocations, 1u);
}

// --- Frame recycler ----------------------------------------------------------

TEST(FrameRecycler, CapBoundsCachedFramesPerClass) {
  if (!detail::kFrameRecycling) GTEST_SKIP() << "recycler compiled out";
  constexpr std::size_t kSize = 48;
  constexpr std::size_t kBlocks = detail::kFrameCacheCap + 44;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(detail::allocate_frame(kSize));
  }
  EXPECT_EQ(detail::cached_frames(kSize), 0u);
  const std::uint64_t frees = test_alloc::deallocations();
  for (void* b : blocks) detail::deallocate_frame(b, kSize);
  EXPECT_EQ(detail::cached_frames(kSize), detail::kFrameCacheCap);
  EXPECT_EQ(test_alloc::deallocations() - frees,
            kBlocks - detail::kFrameCacheCap);
  // A cached block is handed out again without touching the heap.
  const std::uint64_t allocs = test_alloc::allocations();
  void* again = detail::allocate_frame(kSize);
  EXPECT_EQ(test_alloc::allocations(), allocs);
  detail::deallocate_frame(again, kSize);
}

TEST(FrameRecycler, OversizeFramesBypassCache) {
  if (!detail::kFrameRecycling) GTEST_SKIP() << "recycler compiled out";
  constexpr std::size_t kSize = detail::kMaxRecycledFrame + 1;
  const std::uint64_t allocs = test_alloc::allocations();
  const std::uint64_t frees = test_alloc::deallocations();
  void* frame = detail::allocate_frame(kSize);
  detail::deallocate_frame(frame, kSize);
  EXPECT_EQ(test_alloc::allocations() - allocs, 1u);
  EXPECT_EQ(test_alloc::deallocations() - frees, 1u);
  EXPECT_EQ(detail::cached_frames(kSize), 0u);
}

Task<int> small_frame(int x) { co_return x + 1; }

Task<void> call_small_frame(int* out) { *out = co_await small_frame(*out); }

// The compiler hands operator delete the size it gave operator new, so a
// destroyed frame lands in its own class and the next frame of the same
// coroutine reuses it.
TEST(FrameRecycler, CoroutineFramesAreReused) {
  if (!detail::kFrameRecycling) GTEST_SKIP() << "recycler compiled out";
  Simulator sim;
  int value = 0;
  sim.spawn(call_small_frame(&value));  // warms the frame classes and queue
  sim.run();
  const std::uint64_t allocs = test_alloc::allocations();
  sim.spawn(call_small_frame(&value));
  sim.run();
  EXPECT_EQ(value, 2);
  EXPECT_EQ(test_alloc::allocations(), allocs);
}

}  // namespace
}  // namespace hpres::sim
