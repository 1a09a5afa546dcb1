// Conservative shard-runtime semantics: window math, cross-shard delivery,
// termination, oracle equivalence, fixed-shard-count determinism, and the
// quiesce-hook contract on the one-shard (oracle) round loop.
#include "sim/shard_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/units.h"

namespace hpres::sim {
namespace {

constexpr SimDur kLookahead = 1'000;

Task<void> record_at(Simulator* sim, SimDur delay, std::vector<SimTime>* log) {
  co_await sim->delay(delay);
  log->push_back(sim->now());
}

TEST(ShardRuntime, ZeroShardsNormalizesToOracle) {
  ShardRuntime rt(0, kLookahead);
  EXPECT_EQ(rt.num_shards(), 1u);
  EXPECT_FALSE(rt.parallel());
}

TEST(ShardRuntime, OracleModeRunsLikePlainSimulator) {
  ShardRuntime rt(1, kLookahead);
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 500, &log));
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  const SimTime end = rt.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 500}));
  EXPECT_EQ(end, 500);
  EXPECT_EQ(rt.rounds(), 0u);  // oracle never takes the barrier path
}

TEST(ShardRuntime, RunIsRepeatable) {
  ShardRuntime rt(2, kLookahead);
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  rt.run();
  ASSERT_EQ(log.size(), 1u);
  // Second batch after quiescence — the harness "spawn, run, spawn, run"
  // pattern (preload then measured pass).
  rt.shard(1).spawn(record_at(&rt.shard(1), 50, &log));
  rt.run();
  EXPECT_EQ(log.size(), 2u);
}

// A message posted with the lookahead contract lands on the destination
// shard at exactly its due time.
TEST(ShardRuntime, CrossShardPostRunsAtDueTime) {
  ShardRuntime rt(2, kLookahead);
  std::vector<SimTime> log;
  std::atomic<SimTime> delivered_at{-1};
  // Shard 0 runs an event at t=100 that posts to shard 1 due t=100+L.
  rt.shard(0).spawn([](ShardRuntime* r, std::vector<SimTime>* lg,
                       std::atomic<SimTime>* at) -> Task<void> {
    Simulator* self = &r->shard(0);
    co_await self->delay(100);
    lg->push_back(self->now());
    r->post(0, 1, self->now() + kLookahead, [r, at] {
      at->store(r->shard(1).now(), std::memory_order_relaxed);
    });
  }(&rt, &log, &delivered_at));
  rt.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 100);
  EXPECT_EQ(delivered_at.load(std::memory_order_relaxed), 100 + kLookahead);
}

// Ping-pong across shards: each hop schedules the next one lookahead out.
// Exercises repeated window rounds, both lane directions, and termination
// with work still flowing right up to the end.
TEST(ShardRuntime, PingPongAcrossShards) {
  ShardRuntime rt(2, kLookahead);
  constexpr int kHops = 32;
  std::vector<std::pair<std::size_t, SimTime>> hops;
  std::mutex mu;  // hops alternate shards; the mutex keeps TSan exact
  // self-referential hop closure: posts the next hop until kHops.
  struct Bouncer {
    ShardRuntime* rt;
    std::vector<std::pair<std::size_t, SimTime>>* hops;
    std::mutex* mu;
    void hop(std::size_t at_shard, int remaining) {
      {
        const std::lock_guard<std::mutex> lock(*mu);
        hops->emplace_back(at_shard, rt->shard(at_shard).now());
      }
      if (remaining == 0) return;
      const std::size_t next = 1 - at_shard;
      rt->post(at_shard, next, rt->shard(at_shard).now() + kLookahead,
               [this, next, remaining] { hop(next, remaining - 1); });
    }
  };
  Bouncer b{&rt, &hops, &mu};
  rt.shard(0).spawn([](Bouncer* bp) -> Task<void> {
    bp->hop(0, kHops);
    co_return;
  }(&b));
  rt.run();
  ASSERT_EQ(hops.size(), static_cast<std::size_t>(kHops) + 1);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].first, i % 2) << "hop " << i;
    EXPECT_EQ(hops[i].second, static_cast<SimTime>(i) * kLookahead)
        << "hop " << i;
  }
  EXPECT_GT(rt.rounds(), 0u);
}

// Lane overflow: more same-round messages than the SPSC ring holds must all
// arrive (the spill vector) and still in FIFO order per source shard.
TEST(ShardRuntime, LaneOverflowPreservesAllMessagesInOrder)  {
  ShardRuntime rt(2, kLookahead);
  constexpr std::size_t kMessages = 1'000;  // > kLaneCapacity
  std::vector<std::size_t> order;
  rt.shard(0).spawn([](ShardRuntime* r,
                       std::vector<std::size_t>* out) -> Task<void> {
    co_await r->shard(0).delay(10);
    const SimTime due = r->shard(0).now() + kLookahead;
    for (std::size_t i = 0; i < kMessages; ++i) {
      r->post(0, 1, due, [out, i] { out->push_back(i); });
    }
  }(&rt, &order));
  rt.run();
  ASSERT_EQ(order.size(), kMessages);
  for (std::size_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(order[i], i);
    if (order[i] != i) break;
  }
}

// Fixed (program, shard count) => bit-identical execution order, regardless
// of thread scheduling. Runs the ping-pong twice and compares transcripts.
TEST(ShardRuntime, DeterministicForFixedShardCount) {
  auto transcript = [] {
    ShardRuntime rt(4, kLookahead);
    std::vector<std::vector<SimTime>> logs(4);
    for (std::size_t s = 0; s < 4; ++s) {
      for (int i = 0; i < 50; ++i) {
        rt.shard(s).spawn(
            record_at(&rt.shard(s), (i * 37 + static_cast<int>(s) * 11) % 23,
                      &logs[s]));
      }
    }
    rt.run();
    return logs;
  };
  EXPECT_EQ(transcript(), transcript());
}

// Quiescence time: every shard's clock ends on the same final window, so
// harness makespans read the same value from any shard.
TEST(ShardRuntime, ShardsAgreeOnFinalTime) {
  ShardRuntime rt(3, kLookahead);
  std::vector<SimTime> log;
  rt.shard(1).spawn(record_at(&rt.shard(1), 12'345, &log));
  rt.run();
  EXPECT_EQ(rt.shard(0).now(), rt.shard(1).now());
  EXPECT_EQ(rt.shard(1).now(), rt.shard(2).now());
}

// --- Quiesce hooks at one shard ------------------------------------------

/// Registers a hook that applies one action per time in `due` (ascending):
/// each bumps *applied and logs the min_next it was applied at.
void add_timed_hook(ShardRuntime& rt, std::vector<SimTime> due, int* applied,
                    std::vector<SimTime>* seen) {
  rt.add_quiesce_hook([due = std::move(due), next = std::size_t{0}, applied,
                       seen](SimTime min_next) mutable {
    for (; next < due.size() && due[next] <= min_next; ++next) {
      ++*applied;
      seen->push_back(min_next);
    }
    return next < due.size() ? due[next] : Simulator::kNever;
  });
}

Task<void> observe_at(Simulator* sim, SimDur delay, const int* applied,
                      std::vector<std::pair<SimTime, int>>* log) {
  co_await sim->delay(delay);
  log->emplace_back(sim->now(), *applied);
}

// Each action applies at its own due time: after every event before it and
// before every event at or after it, including events at the same instant.
TEST(ShardRuntime, OneShardHookActionsApplyAtExactDueTimes) {
  ShardRuntime rt(1, kLookahead);
  int applied = 0;
  std::vector<SimTime> seen;
  add_timed_hook(rt, {250, 700, 1'500}, &applied, &seen);
  std::vector<std::pair<SimTime, int>> log;
  for (const SimDur at : {100, 250, 500, 700, 1'000, 2'000}) {
    rt.shard(0).spawn(observe_at(&rt.shard(0), at, &applied, &log));
  }
  EXPECT_EQ(rt.run(), 2'000);
  EXPECT_EQ(log, (std::vector<std::pair<SimTime, int>>{
                     {100, 0}, {250, 1}, {500, 1}, {700, 2}, {1'000, 2},
                     {2'000, 3}}));
  // Applied in the round of the first event at or after each due time.
  EXPECT_EQ(seen, (std::vector<SimTime>{250, 700, 2'000}));
}

// An action past the last event flushes at quiescence, and run() still
// returns the last event's time: the window cap moved no clock.
TEST(ShardRuntime, OneShardHookPastLastEventKeepsEndTime) {
  ShardRuntime rt(1, kLookahead);
  int applied = 0;
  std::vector<SimTime> seen;
  add_timed_hook(rt, {50'000}, &applied, &seen);
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 500, &log));
  EXPECT_EQ(rt.run(), 500);
  EXPECT_EQ(rt.shard(0).now(), 500);
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(seen, (std::vector<SimTime>{Simulator::kNever}));
}

struct FlagState {
  bool requested = false;
  bool applied = false;
  SimTime observed_at = 0;
};

/// Publishes a request at t=300, then polls every 10 ns until a hook has
/// applied it — the placement plane's publish/poll handshake.
Task<void> publish_and_poll(Simulator* sim, FlagState* st) {
  co_await sim->delay(300);
  st->requested = true;
  while (!st->applied) co_await sim->delay(10);
  st->observed_at = sim->now();
}

// A flag-style hook (always kNever) sees a flag set mid-window at the next
// round, so the request lands within one lookahead window.
TEST(ShardRuntime, OneShardFlagHookAppliesWithinOneLookahead) {
  ShardRuntime rt(1, kLookahead);
  FlagState st;
  rt.add_quiesce_hook([&st](SimTime) {
    if (st.requested) st.applied = true;
    return Simulator::kNever;
  });
  rt.shard(0).spawn(publish_and_poll(&rt.shard(0), &st));
  rt.run();
  ASSERT_TRUE(st.applied);
  EXPECT_GT(st.observed_at, 300);
  EXPECT_LE(st.observed_at, 300 + kLookahead);
}

// Removing the last hook restores the hook-free path: no further rounds.
TEST(ShardRuntime, OneShardRemovedHookTakesNoRound) {
  ShardRuntime rt(1, kLookahead);
  const std::size_t id =
      rt.add_quiesce_hook([](SimTime) { return Simulator::kNever; });
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  rt.run();
  const std::uint64_t rounds = rt.rounds();
  EXPECT_GT(rounds, 0u);
  rt.remove_quiesce_hook(id);
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  EXPECT_EQ(rt.run(), 200);
  EXPECT_EQ(rt.rounds(), rounds);
}

}  // namespace
}  // namespace hpres::sim
