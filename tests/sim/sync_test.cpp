// Channel / Event / Semaphore / Latch / WorkerPool semantics.
#include "sim/sync.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <optional>
#include <vector>

namespace hpres::sim {
namespace {

// --- Event -------------------------------------------------------------------

Task<void> wait_and_log(Simulator* sim, Event* ev, std::string label,
                        std::vector<std::string>* log) {
  co_await ev->wait();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

Task<void> set_after(Simulator* sim, Event* ev, SimDur d) {
  co_await sim->delay(d);
  ev->set();
}

TEST(Event, BroadcastWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::string> log;
  sim.spawn(wait_and_log(&sim, &ev, "a", &log));
  sim.spawn(wait_and_log(&sim, &ev, "b", &log));
  sim.spawn(set_after(&sim, &ev, 100));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@100", "b@100"}));
}

TEST(Event, WaitOnSetEventCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  std::vector<std::string> log;
  sim.spawn(wait_and_log(&sim, &ev, "x", &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x@0"}));
}

TEST(Event, DoubleSetIsIdempotent) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.set();
  EXPECT_TRUE(ev.is_set());
}

// --- Channel -----------------------------------------------------------------

Task<void> drain(Channel<int>* ch, std::vector<int>* out) {
  for (;;) {
    const std::optional<int> v = co_await ch->recv();
    if (!v) break;
    out->push_back(*v);
  }
}

Task<void> feed(Simulator* sim, Channel<int>* ch, int count, SimDur gap) {
  for (int i = 0; i < count; ++i) {
    co_await sim->delay(gap);
    ch->send(i);
  }
  ch->close();
}

TEST(Channel, FifoDelivery) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.spawn(drain(&ch, &out));
  sim.spawn(feed(&sim, &ch, 5, 10));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BufferedItemsSurviveUntilReceived) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(7);
  ch.send(8);
  ch.close();
  std::vector<int> out;
  sim.spawn(drain(&ch, &out));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
}

// The ring grows while its contents wrap around the end and keeps FIFO
// order across the growth.
TEST(Channel, FifoAcrossRingWrapAndGrowth) {
  Simulator sim;
  Channel<int> ch(sim);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + 3 * round; ++i) ch.send(next_in++);
    for (int i = 0; i < 4 + 2 * round; ++i) {
      const std::optional<int> got = ch.try_recv();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, next_out++);
    }
    EXPECT_EQ(ch.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (const std::optional<int> got = ch.try_recv()) {
    EXPECT_EQ(*got, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, CloseReleasesBlockedReceiver) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  bool finished = false;
  struct Helper {
    static Task<void> run(Channel<int>* c, std::vector<int>* o, bool* done) {
      const auto v = co_await c->recv();
      EXPECT_FALSE(v.has_value());
      (void)o;
      *done = true;
    }
  };
  sim.spawn(Helper::run(&ch, &out, &finished));
  struct Closer {
    static Task<void> run(Simulator* s, Channel<int>* c) {
      co_await s->delay(100);
      c->close();
    }
  };
  sim.spawn(Closer::run(&sim, &ch));
  sim.run();
  EXPECT_TRUE(finished);
}

TEST(Channel, SendAfterCloseIsDropped) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.close();
  ch.send(1);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, TryRecvDoesNotSuspend) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(3);
  const auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3);
}

TEST(Channel, MultipleConsumersShareItems) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> out_a;
  std::vector<int> out_b;
  sim.spawn(drain(&ch, &out_a));
  sim.spawn(drain(&ch, &out_b));
  sim.spawn(feed(&sim, &ch, 10, 1));
  sim.run();
  EXPECT_EQ(out_a.size() + out_b.size(), 10u);
}

// --- Semaphore ---------------------------------------------------------------

Task<void> hold_permit(Simulator* sim, Semaphore* sem, SimDur hold,
                       std::vector<SimTime>* acquired) {
  co_await sem->acquire();
  acquired->push_back(sim->now());
  co_await sim->delay(hold);
  sem->release();
}

TEST(Semaphore, SerializesBeyondPermits) {
  Simulator sim;
  Semaphore sem(sim, 2);
  std::vector<SimTime> acquired;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_permit(&sim, &sem, 100, &acquired));
  }
  sim.run();
  // Two run at t=0, the next two at t=100.
  EXPECT_EQ(acquired, (std::vector<SimTime>{0, 0, 100, 100}));
}

TEST(Semaphore, TryAcquireNonBlocking) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

// --- Latch -------------------------------------------------------------------

Task<void> latch_waiter(Simulator* sim, Latch* latch, SimTime* completed_at) {
  co_await latch->wait();
  *completed_at = sim->now();
}

Task<void> latch_worker(Simulator* sim, Latch* latch, SimDur d) {
  co_await sim->delay(d);
  latch->count_down();
}

TEST(Latch, WaitsForAllParties) {
  Simulator sim;
  Latch latch(sim, 3);
  SimTime completed_at = -1;
  sim.spawn(latch_waiter(&sim, &latch, &completed_at));
  sim.spawn(latch_worker(&sim, &latch, 10));
  sim.spawn(latch_worker(&sim, &latch, 200));
  sim.spawn(latch_worker(&sim, &latch, 50));
  sim.run();
  EXPECT_EQ(completed_at, 200);  // slowest party gates completion
}

TEST(Latch, ZeroCountIsImmediatelyOpen) {
  Simulator sim;
  Latch latch(sim, 0);
  SimTime completed_at = -1;
  sim.spawn(latch_waiter(&sim, &latch, &completed_at));
  sim.run();
  EXPECT_EQ(completed_at, 0);
}

// --- WorkerPool ---------------------------------------------------------------

Task<void> submit_job(Simulator* sim, WorkerPool* pool, SimDur d,
                      std::vector<SimTime>* done) {
  co_await pool->execute(d);
  done->push_back(sim->now());
}

TEST(WorkerPool, ParallelismBoundedByWorkerCount) {
  Simulator sim;
  WorkerPool pool(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(submit_job(&sim, &pool, 100, &done));
  }
  sim.run();
  // 4 jobs x 100ns on 2 workers: finish at 100,100,200,200.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 200, 200}));
  EXPECT_EQ(pool.busy_time(), 400);
}

TEST(WorkerPool, SingleWorkerSerializesFifo) {
  Simulator sim;
  WorkerPool pool(sim, 1);
  std::vector<SimTime> done;
  sim.spawn(submit_job(&sim, &pool, 10, &done));
  sim.spawn(submit_job(&sim, &pool, 20, &done));
  sim.spawn(submit_job(&sim, &pool, 30, &done));
  sim.run();
  EXPECT_EQ(done, (std::vector<SimTime>{10, 30, 60}));
}

// --- Event::wait_for (deadline primitive) ------------------------------------

Task<void> timed_wait_and_log(Simulator* sim, Event* ev, SimDur timeout,
                              std::vector<std::pair<bool, SimTime>>* log) {
  const bool fired = co_await ev->wait_for(timeout);
  log->push_back({fired, sim->now()});
}

TEST(EventWaitFor, TimesOutAtExactDeadline) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::pair<bool, SimTime>> log;
  sim.spawn(timed_wait_and_log(&sim, &ev, 500, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].first);
  EXPECT_EQ(log[0].second, 500);
}

TEST(EventWaitFor, SignaledBeforeDeadlineReturnsTrue) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::pair<bool, SimTime>> log;
  sim.spawn(timed_wait_and_log(&sim, &ev, 500, &log));
  sim.spawn(set_after(&sim, &ev, 100));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].first);
  EXPECT_EQ(log[0].second, 100);
}

TEST(EventWaitFor, AlreadySetCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  std::vector<std::pair<bool, SimTime>> log;
  sim.spawn(timed_wait_and_log(&sim, &ev, 500, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].first);
  EXPECT_EQ(log[0].second, 0);
}

TEST(EventWaitFor, SetAtExactDeadlineInstantWakesOnce) {
  // The deadline timer and the set() land at the same simulated instant;
  // whichever runs first must win exactly once (no double resume).
  Simulator sim;
  Event ev(sim);
  std::vector<std::pair<bool, SimTime>> log;
  sim.spawn(timed_wait_and_log(&sim, &ev, 300, &log));
  sim.spawn(set_after(&sim, &ev, 300));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 300);
}

TEST(EventWaitFor, MixedTimedAndPlainWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::string> plain_log;
  std::vector<std::pair<bool, SimTime>> timed_log;
  sim.spawn(wait_and_log(&sim, &ev, "p", &plain_log));
  sim.spawn(timed_wait_and_log(&sim, &ev, 50, &timed_log));   // expires
  sim.spawn(timed_wait_and_log(&sim, &ev, 500, &timed_log));  // fires
  sim.spawn(set_after(&sim, &ev, 200));
  sim.run();
  EXPECT_EQ(plain_log, (std::vector<std::string>{"p@200"}));
  ASSERT_EQ(timed_log.size(), 2u);
  EXPECT_FALSE(timed_log[0].first);
  EXPECT_EQ(timed_log[0].second, 50);
  EXPECT_TRUE(timed_log[1].first);
  EXPECT_EQ(timed_log[1].second, 200);
}

// --- Frame-free waits --------------------------------------------------------

Task<void> wait_counting_events(Simulator* sim, Event* ev,
                                std::uint64_t* events_while_waiting) {
  const std::uint64_t before = sim->events_executed();
  co_await ev->wait();
  *events_while_waiting = sim->events_executed() - before;
}

TEST(EventAwaiter, WaitOnSetEventDoesNotSuspend) {
  Simulator sim;
  Event ev(sim);
  EXPECT_FALSE(ev.wait().await_ready());
  ev.set();
  EXPECT_TRUE(ev.wait().await_ready());
  std::uint64_t events = 99;
  sim.spawn(wait_counting_events(&sim, &ev, &events));
  sim.run();
  EXPECT_EQ(events, 0u);
}

TEST(EventAwaiter, ParkedWaiterResumesInOneEvent) {
  Simulator sim;
  Event ev(sim);
  std::uint64_t events = 0;
  sim.spawn(wait_counting_events(&sim, &ev, &events));
  sim.run();
  ev.set();
  sim.run();
  EXPECT_EQ(events, 1u);  // the set() wake-up itself, nothing more
}

Task<void> timed_wait_labelled(Simulator* sim, Event* ev, SimDur timeout,
                               std::string label,
                               std::vector<std::string>* log) {
  const bool fired = co_await ev->wait_for(timeout);
  log->push_back(label + ":" + (fired ? "1" : "0") + "@" +
                 std::to_string(sim->now()));
}

// Plain and timed waiters parked interleaved wake as Event::set always
// ordered them: every plain waiter in park order, then every live timed
// waiter in park order, all at the set() instant.
TEST(EventAwaiter, PlainAndTimedWaitersWakeInSetOrder) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::string> log;
  sim.spawn(wait_and_log(&sim, &ev, "p1", &log));
  sim.spawn(timed_wait_labelled(&sim, &ev, 500, "t1", &log));
  sim.spawn(wait_and_log(&sim, &ev, "p2", &log));
  sim.spawn(timed_wait_labelled(&sim, &ev, 50, "t2", &log));  // expires
  sim.spawn(timed_wait_labelled(&sim, &ev, 500, "t3", &log));
  sim.spawn(wait_and_log(&sim, &ev, "p3", &log));
  sim.spawn(set_after(&sim, &ev, 100));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"t2:0@50", "p1@100", "p2@100",
                                           "p3@100", "t1:1@100",
                                           "t3:1@100"}));
}

Task<void> condition_waiter(Simulator* sim, Condition* cv, std::string label,
                            std::vector<std::string>* log) {
  co_await cv->wait();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

Task<void> notify_after(Simulator* sim, Condition* cv, SimDur d) {
  co_await sim->delay(d);
  cv->notify_all();
}

TEST(Condition, NotifyAllWakesParkedWaitersInOrder) {
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  sim.spawn(condition_waiter(&sim, &cv, "a", &log));
  sim.spawn(condition_waiter(&sim, &cv, "b", &log));
  sim.spawn(notify_after(&sim, &cv, 40));
  sim.spawn(notify_after(&sim, &cv, 90));  // nobody left to wake
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@40", "b@40"}));
}

Task<void> acquire_and_log(Simulator* sim, Semaphore* sem, std::string label,
                           std::vector<std::string>* log) {
  co_await sem->acquire();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

TEST(Semaphore, WaitingCountsParkedAcquirers) {
  Simulator sim;
  Semaphore sem(sim, 0);
  std::vector<std::string> log;
  sim.spawn(acquire_and_log(&sim, &sem, "x", &log));
  sim.spawn(acquire_and_log(&sim, &sem, "y", &log));
  sim.run();
  EXPECT_EQ(sem.waiting(), 2u);
  sem.release();
  EXPECT_EQ(sem.waiting(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x@0"}));
  sem.release();  // let "y" finish so its frames are freed
  sim.run();
  EXPECT_EQ(sem.waiting(), 0u);
}

}  // namespace
}  // namespace hpres::sim
