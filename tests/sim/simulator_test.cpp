// Event-loop semantics: virtual time, ordering, determinism, task lifetime.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace hpres::sim {
namespace {

Task<void> record_at(Simulator* sim, SimDur delay, std::vector<SimTime>* log) {
  co_await sim->delay(delay);
  log->push_back(sim->now());
}

TEST(Simulator, StartsAtTimeZero) {
  const Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, DelayAdvancesVirtualTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 1000, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 500, &log));
  sim.spawn(record_at(&sim, 100, &log));
  sim.spawn(record_at(&sim, 300, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 300, 500}));
}

Task<void> record_label(Simulator* sim, SimDur delay, std::string label,
                        std::vector<std::string>* log) {
  co_await sim->delay(delay);
  log->push_back(std::move(label));
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn(record_label(&sim, 100, "first", &log));
  sim.spawn(record_label(&sim, 100, "second", &log));
  sim.spawn(record_label(&sim, 100, "third", &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "third"}));
}

Task<void> nested_child(Simulator* sim, std::vector<std::string>* log) {
  log->push_back("child-start");
  co_await sim->delay(10);
  log->push_back("child-end");
}

Task<void> nested_parent(Simulator* sim, std::vector<std::string>* log) {
  log->push_back("parent-start");
  co_await nested_child(sim, log);
  log->push_back("parent-end");
}

TEST(Simulator, AwaitingSubTaskRunsInline) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn(nested_parent(&sim, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
  EXPECT_EQ(sim.now(), 10);
}

Task<int> produce_value(Simulator* sim) {
  co_await sim->delay(5);
  co_return 41 + 1;
}

Task<void> consume_value(Simulator* sim, int* out) {
  *out = co_await produce_value(sim);
}

TEST(Simulator, TaskReturnsValue) {
  Simulator sim;
  int result = 0;
  sim.spawn(consume_value(&sim, &result));
  sim.run();
  EXPECT_EQ(result, 42);
}

Task<void> spawner(Simulator* sim, std::vector<SimTime>* log) {
  co_await sim->delay(50);
  // Spawn from inside a running process; child starts at current time.
  sim->spawn(record_at(sim, 25, log));
}

TEST(Simulator, SpawnFromInsideProcess) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(spawner(&sim, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 75);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 100, &log));
  sim.spawn(record_at(&sim, 10'000, &log));
  sim.run_until(5'000);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sim.now(), 5'000);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(log.size(), 2u);
}

#ifdef NDEBUG
// Release builds keep the defensive clamp: a stale-timestamp delay never
// schedules into the past.
TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, -50, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 0);
}
#else
// Debug builds assert instead of silently clamping — a negative delay means
// the caller computed a deadline from a stale timestamp (the class of bug
// the clamp used to hide).
TEST(SimulatorDeathTest, NegativeDelayAssertsInDebug) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule(std::noop_coroutine(), -50);
      },
      "negative schedule\\(\\) delay");
}
#endif

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 1, &log));
  sim.spawn(record_at(&sim, 2, &log));
  sim.run();
  EXPECT_GE(sim.events_executed(), 2u);
}

Task<void> record_seq(Simulator* sim, SimDur delay, std::size_t seq,
                      std::vector<std::pair<SimTime, std::size_t>>* log) {
  co_await sim->delay(delay);
  log->emplace_back(sim->now(), seq);
}

// Property: over many events with heavy timestamp collisions, execution is
// sorted by time, and equal-time events run in exact spawn (FIFO) order —
// the tie-break the whole replay/trace layer depends on.
TEST(Simulator, EqualTimeFifoProperty) {
  Simulator sim;
  std::vector<std::pair<SimTime, std::size_t>> log;
  constexpr std::size_t kEvents = 500;
  for (std::size_t i = 0; i < kEvents; ++i) {
    // Only 7 distinct timestamps for 500 events: every bucket collides.
    sim.spawn(record_seq(&sim, static_cast<SimDur>((i * 13) % 7), i, &log));
  }
  sim.run();
  ASSERT_EQ(log.size(), kEvents);
  std::vector<std::pair<SimTime, std::size_t>> expected = log;
  // Stable sort by time alone: within a timestamp, spawn order survives.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  // The log must already be sorted by (time, spawn order) — i.e. equal to
  // its own stable sort by time, with seq strictly increasing per bucket.
  EXPECT_EQ(log, expected);
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].first == log[i - 1].first) {
      EXPECT_LT(log[i - 1].second, log[i].second);
    }
  }
}

// Property: run_until(D) executes exactly the events due at or before D and
// leaves every later event queued and runnable — nothing is dropped.
TEST(Simulator, RunUntilLeavesPostDeadlineEventsQueued) {
  Simulator sim;
  std::vector<SimTime> log;
  constexpr SimTime kDeadline = 1'000;
  std::size_t due_before = 0;
  std::size_t total = 0;
  for (SimDur d = 100; d <= 2'000; d += 100) {
    sim.spawn(record_at(&sim, d, &log));
    ++total;
    if (d <= kDeadline) ++due_before;
  }
  sim.run_until(kDeadline);
  EXPECT_EQ(log.size(), due_before);
  EXPECT_EQ(sim.now(), kDeadline);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), kDeadline + 100);
  sim.run();
  ASSERT_EQ(log.size(), total);
  EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<SimTime> log;
    for (int i = 0; i < 100; ++i) {
      sim.spawn(record_at(&sim, (i * 37) % 11, &log));
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Ready lane vs. heap: (time, sequence) order -----------------------------

// Reference model for the event order: every schedule the processes below
// make is mirrored into a plain (at, seq) priority queue, and each process
// wake-up must be the model's minimum. This is the order the single-heap
// loop produced; the ready lane must reproduce it exactly.
struct OrderModel {
  using Entry = std::tuple<SimTime, std::uint64_t, std::size_t>;  // at,seq,id

  Simulator* sim;
  Xoshiro256 rng;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pending;
  std::uint64_t next_seq = 0;
  std::size_t next_id = 0;
  std::size_t steps_left = 0;
  std::size_t wakeups = 0;
  std::size_t mismatches = 0;

  void expect(SimTime at, std::size_t id) {
    pending.emplace(at, next_seq++, id);
  }

  void on_wake(std::size_t id) {
    ++wakeups;
    if (pending.empty() || std::get<0>(pending.top()) != sim->now() ||
        std::get<2>(pending.top()) != id) {
      ++mismatches;
    }
    if (!pending.empty()) pending.pop();
  }

  [[nodiscard]] SimTime model_next() const {
    return pending.empty() ? Simulator::kNever : std::get<0>(pending.top());
  }

  /// A delay drawn to collide often: zero, small, and (release builds
  /// only, where the simulator clamps instead of asserting) negative.
  SimDur draw_delay() {
    switch (rng() % 6) {
      case 0:
      case 1:
        return 0;
#ifdef NDEBUG
      case 2:
        return -static_cast<SimDur>(1 + rng() % 3);
#endif
      default:
        return static_cast<SimDur>(1 + rng() % 4);
    }
  }

  void spawn_new();
};

Task<void> random_process(OrderModel* m, std::size_t id) {
  for (;;) {
    m->on_wake(id);
    if (m->steps_left == 0) co_return;
    --m->steps_left;
    // Spawn zero to two children, half of them through spawn_at(now).
    for (std::uint64_t n = m->rng() % 3; n > 0; --n) m->spawn_new();
    if (m->rng() % 5 == 0) co_return;
    const SimDur d = m->draw_delay();
    m->expect(m->sim->now() + std::max<SimDur>(d, 0), id);
    co_await m->sim->delay(d);
  }
}

void OrderModel::spawn_new() {
  const std::size_t id = next_id++;
  expect(sim->now(), id);
  if (rng() % 2 == 0) {
    sim->spawn(random_process(this, id));
  } else {
    sim->spawn_at(sim->now(), random_process(this, id));
  }
}

enum class Drive { kRun, kRunUntil, kRunWindow };

// Drives one seeded run to completion under `drive`, checking every wake-up
// against the model. Between bounded runs it injects work from outside the loop — spawns at
// now() land behind heap events already due at now() — and checks the
// horizon the shard runtime synchronizes on.
void drive_random_run(std::uint64_t seed, Drive drive) {
  Simulator sim;
  OrderModel m{&sim, Xoshiro256(seed)};
  m.steps_left = 400;
  for (int i = 0; i < 4; ++i) m.spawn_new();
  std::size_t horizon_errors = 0;
  std::size_t bound_errors = 0;
  while (!sim.idle()) {
    if (sim.next_event_time() != m.model_next()) ++horizon_errors;
    if (drive == Drive::kRun) {
      sim.run();
      continue;
    }
    const SimTime before = sim.now();
    const SimTime bound = before + static_cast<SimTime>(m.rng() % 4);
    if (drive == Drive::kRunUntil) {
      sim.run_until(bound);
      if (m.model_next() <= bound) ++bound_errors;
    } else {
      sim.run_window(bound);
      if (m.model_next() < bound) ++bound_errors;
    }
    if (sim.now() != std::max(before, bound)) ++bound_errors;
    if (m.rng() % 3 == 0) {
      const std::size_t id = m.next_id++;
      const SimTime at = sim.now() + static_cast<SimTime>(m.rng() % 2);
      m.expect(at, id);
      sim.spawn_at(at, random_process(&m, id));
    }
  }
  EXPECT_EQ(m.mismatches, 0u) << "seed " << seed;
  EXPECT_EQ(horizon_errors, 0u) << "seed " << seed;
  EXPECT_EQ(bound_errors, 0u) << "seed " << seed;
  EXPECT_TRUE(m.pending.empty()) << "seed " << seed;
  EXPECT_EQ(m.wakeups, sim.events_executed()) << "seed " << seed;
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

TEST(SimulatorOrder, RunMatchesAtSeqModel) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    drive_random_run(seed, Drive::kRun);
  }
}

TEST(SimulatorOrder, RunUntilMatchesAtSeqModel) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    drive_random_run(seed, Drive::kRunUntil);
  }
}

TEST(SimulatorOrder, RunWindowMatchesAtSeqModel) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    drive_random_run(seed, Drive::kRunWindow);
  }
}

Task<void> zero_delay_chain(Simulator* sim, int hops,
                            std::vector<SimTime>* log) {
  for (int i = 0; i < hops; ++i) co_await sim->delay(0);
  log->push_back(sim->now());
}

// With only ready-lane (zero-delay) events pending, the horizon is now(),
// the simulator is not idle, and the strict window bound still holds.
TEST(SimulatorOrder, ReadyLaneOnlyHorizon) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.run_until(50);
  ASSERT_TRUE(sim.idle());
  sim.spawn(zero_delay_chain(&sim, 3, &log));
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 50);
  sim.run_window(50);  // strict: nothing due before 50 runs
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.next_event_time(), 50);
  sim.run_until(50);  // inclusive: the whole chain runs at 50
  EXPECT_EQ(log, (std::vector<SimTime>{50}));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

// A heap event due at now() (scheduled earlier) runs before a ready-lane
// event scheduled at now(), and a later heap event stays behind the lane.
TEST(SimulatorOrder, DueHeapEventPrecedesReadyLane) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn(record_label(&sim, 10, "heap@10", &log));
  sim.spawn(record_label(&sim, 11, "heap@11", &log));
  sim.run_window(10);
  EXPECT_EQ(sim.now(), 10);
  sim.spawn(record_label(&sim, 0, "lane@10", &log));
  EXPECT_EQ(sim.next_event_time(), 10);
  sim.run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"heap@10", "lane@10", "heap@11"}));
}

// Plain actions and coroutine resumptions share one (time, seq) order: at
// one instant the ready lane runs FIFO, and heap events due at the same
// time run in scheduling order whatever their kind.
struct Mark {
  std::vector<int>* log;
  int tag;
};

void mark(void* arg) {
  const auto* m = static_cast<const Mark*>(arg);
  m->log->push_back(m->tag);
}

Task<void> mark_after(Simulator* sim, SimDur d, std::vector<int>* log,
                      int tag) {
  co_await sim->delay(d);
  log->push_back(tag);
}

TEST(SimulatorOrder, ActionsAndResumptionsShareOneOrder) {
  Simulator sim;
  std::vector<int> log;
  Mark m2{&log, 2};
  Mark m3{&log, 3};
  Mark m5{&log, 5};
  sim.spawn(mark_after(&sim, 5, &log, 1));        // lane; resumes at 5 (3rd)
  sim.schedule_action(Action{&mark, &m2}, 5);     // heap @5 (1st)
  sim.schedule_action(Action{&mark, &m3}, 0);     // lane
  sim.spawn(mark_after(&sim, 0, &log, 4));        // lane, then lane again
  sim.schedule_action(Action{&mark, &m5}, 5);     // heap @5 (2nd)
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{3, 4, 2, 5, 1}));
  EXPECT_EQ(sim.now(), 5);
  // Two spawn starts, one zero-delay resume, three actions, one resume @5.
  EXPECT_EQ(sim.events_executed(), 7u);
}

// A spawned process is its own event: spawning builds no wrapper frame,
// and finishing returns exactly the process's frame to the recycler.
Task<void> padded_process(Simulator* sim, int* out) {
  std::array<int, 300> pad{};  // lives across the suspension: in the frame
  pad[static_cast<std::size_t>(*out) % pad.size()] = 7;
  co_await sim->delay(1);
  *out += pad[static_cast<std::size_t>(*out) % pad.size()];
}

std::size_t cached_frames_total() {
  std::size_t total = 0;
  for (std::size_t c = 0; c < detail::kFrameClasses; ++c) {
    total += detail::cached_frames((c + 1) * detail::kFrameGranule);
  }
  return total;
}

TEST(Simulator, FinishedSpawnReturnsExactlyItsOwnFrame) {
  if (!detail::kFrameRecycling) GTEST_SKIP() << "recycler compiled out";
  Simulator sim;
  int value = 0;
  sim.spawn(padded_process(&sim, &value));  // warms the event queues
  sim.run();
  Task<void> task = padded_process(&sim, &value);
  const std::size_t before = cached_frames_total();
  sim.spawn(std::move(task));
  EXPECT_EQ(cached_frames_total(), before);
  sim.run();
  EXPECT_EQ(value, 14);
  EXPECT_EQ(cached_frames_total(), before + 1);
}

}  // namespace
}  // namespace hpres::sim
