// Hedged (late-binding) reads and load-aware read-set selection: the
// tracker's score ordering, the codec's preference-preserving read-set
// selection, a hedge racing a crashed primary, suppression under buffer
// pressure, and the correctness property that hedging never changes the
// bytes a Get returns.
#include <gtest/gtest.h>

#include "resilience/load_tracker.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

TEST(NodeLoadTracker, OrdersSlotsByOwnerScore) {
  NodeLoadTracker tracker(5);
  // Server 2 is clearly loaded, server 4 clearly idle, the rest unknown.
  tracker.observe_rtt(2, 400'000, 12);
  tracker.observe_rtt(4, 5'000, 0);
  EXPECT_GT(tracker.score(2), tracker.score(4));
  EXPECT_DOUBLE_EQ(tracker.score(0), 1.0);  // unknown servers are neutral

  const std::vector<std::size_t> slots{0, 1, 2, 3, 4};
  const std::vector<std::size_t> owners{0, 1, 2, 3, 4};  // slot i on server i
  const std::vector<std::size_t> order =
      tracker.order_slots(slots, owners, /*randomize_ties=*/false);
  // Unknown servers (neutral 1.0) rank ahead of anything with an observed
  // RTT; the loaded server sorts dead last; equal scores keep slot order
  // (stable sort).
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 4, 2}));
  // The unrandomized ordering is a pure function of the observations.
  EXPECT_EQ(order, tracker.order_slots(slots, owners, false));
}

TEST(NodeLoadTracker, EwmaTracksQueueMovement) {
  NodeLoadTracker tracker(3);
  tracker.observe(1, 10);
  const double warm = tracker.queue_estimate(1);
  EXPECT_DOUBLE_EQ(warm, 10.0);  // first sample seeds the EWMA directly
  for (int i = 0; i < 20; ++i) tracker.observe(1, 0);
  EXPECT_LT(tracker.queue_estimate(1), 1.0);  // drains toward the new level
  EXPECT_EQ(tracker.total_samples(), 21u);
}

TEST(SelectReadSetOrdered, PreservesPreferenceOrder) {
  ec::RsVandermondeCodec codec(3, 2);
  std::vector<bool> available(5, true);
  const std::vector<std::size_t> preference{4, 2, 1, 0, 3};
  const Result<std::vector<std::size_t>> chosen =
      codec.select_read_set_ordered(available, preference);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  // RS-Vandermonde is MDS: the first k of the preference decode, and the
  // result keeps the caller's order (cheapest server first), unsorted.
  EXPECT_EQ(*chosen, (std::vector<std::size_t>{4, 2, 1}));

  available[4] = false;
  const Result<std::vector<std::size_t>> without4 =
      codec.select_read_set_ordered(available, preference);
  ASSERT_TRUE(without4.ok());
  EXPECT_EQ(*without4, (std::vector<std::size_t>{2, 1, 0}));

  available.assign(5, false);
  available[0] = available[3] = true;  // only 2 of k=3 left
  EXPECT_FALSE(codec.select_read_set_ordered(available, preference).ok());
}

TEST(SelectReadSetOrdered, PartialPreferenceFallsBackToNaturalOrder) {
  ec::RsVandermondeCodec codec(3, 2);
  const std::vector<bool> available(5, true);
  // A preference mentioning fewer than k slots is topped up in slot order.
  const Result<std::vector<std::size_t>> chosen =
      codec.select_read_set_ordered(available, std::vector<std::size_t>{3});
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(*chosen, (std::vector<std::size_t>{3, 0, 1}));
}

class HedgeTest : public FiveNodeClusterTest {};

// The flagship scenario: a primary fragment owner crashes after the Get's
// fetches are sent but before it answers. Without a deadline policy that
// fetch would hang forever; the hedge completes the op (late binding: the
// first k arrivals win) and the straggler is cancelled — no failover loop,
// no degraded accounting, correct bytes.
TEST_F(HedgeTest, HedgeWinsOverCrashedPrimary) {
  HedgeParams hedge;
  hedge.delta = 1;  // hedge fires with the primaries (no delay)
  auto engine = make_engine(Design::kEraCeCd, 3, {}, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> killer(sim::Simulator* sim, kv::Server* victim) {
      // 5 us: after the Get posts its fetches (~1 us of issue CPU), far
      // before an ~85 KB fragment response can arrive. The server dies
      // silently — membership keeps routing to it (gray crash).
      co_await sim->delay(5'000);
      victim->fail();
    }
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(256 * 1024, 11);
      const Status s =
          co_await e->set("hedged", make_shared_bytes(Bytes(original)));
      EXPECT_TRUE(s.ok()) << s;
      const std::size_t owner0 = cl->ring().slot_index("hedged", 0);
      cl->sim().spawn(killer(&cl->sim(), &cl->server(owner0)));
      const Result<Bytes> got = co_await e->get("hedged");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      const EngineStats& st = e->stats();
      EXPECT_EQ(st.hedges_fired, 1u);
      EXPECT_EQ(st.hedged_gets, 1u);
      EXPECT_EQ(st.hedge_wins, 1u);
      // The hedge resolved the op before anything looked like a failure:
      // no failover round, no degraded read, and the hung straggler was
      // cancelled rather than retried.
      EXPECT_EQ(st.failover_fetches, 0u);
      EXPECT_EQ(st.degraded_gets, 0u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// Hedges borrow spare ARPE buffers opportunistically: with the pool sized
// so the admitted op holds the only buffer, every hedge is suppressed and
// the Get completes exactly like an unhedged one.
TEST_F(HedgeTest, HedgeSuppressedWhenBufferPoolTight) {
  HedgeParams hedge;
  hedge.delta = 2;
  ArpeParams arpe;
  arpe.buffers = 1;
  auto engine = make_engine(Design::kEraCeCd, 3, arpe, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      const Bytes original = make_pattern(60'000, 4);
      (void)co_await e->set("tight", make_shared_bytes(Bytes(original)));
      // iget: ARPE admission holds the pool's only buffer for the op's
      // lifetime, so the hedge finds nothing to borrow. (A blocking get()
      // bypasses the window and would leave the pool free.)
      sim::Future<Result<Bytes>> fut = e->iget("tight");
      co_await e->wait_all();
      const Result<Bytes>* got = fut.try_get();
      EXPECT_NE(got, nullptr);
      if (got != nullptr) {
        EXPECT_TRUE(got->ok()) << got->status();
        if (got->ok()) { EXPECT_EQ(got->value(), original); }
      }
      EXPECT_EQ(e->stats().hedges_fired, 0u);
      EXPECT_GE(e->stats().hedges_suppressed, 1u);
      EXPECT_GE(e->arpe().stats().hedge_denials, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

// Property: hedging and load-aware selection change WHICH fragments are
// fetched and WHEN, never the bytes returned. The same keys read through
// an unhedged engine and through an aggressive hedged one (delta=2,
// load-aware, zero delay) must agree exactly, across sizes that exercise
// padding, sub-fragment tails, multi-MTU fragments and packed stripes —
// healthy, and with each server down in turn, so per-key and packed
// degraded reads both go through the any-k fetch.
TEST_F(HedgeTest, HedgingNeverChangesReturnedValues) {
  const PackParams pack{.pack_threshold = 512};
  auto plain = make_engine(Design::kEraCeCd, 3, {}, {}, pack);
  HedgeParams hedge;
  hedge.delta = 2;
  hedge.load_aware = true;
  auto hedged = make_engine(Design::kEraCeCd, 3, {}, hedge, pack);
  cluster_.start();
  struct Body {
    // Every third value is small enough to pack into a shared stripe.
    static std::size_t size_of(std::size_t i) {
      return i % 3 == 0 ? 100 + i * 13 : 1'000 + i * 4'337;
    }
    static sim::Task<void> run(Engine* p, Engine* h, cluster::Cluster* cl) {
      constexpr std::size_t kKeys = 24;
      for (std::size_t i = 0; i < kKeys; ++i) {
        const kv::Key key = "prop-" + std::to_string(i);
        const Bytes original = make_pattern(size_of(i), i + 1);
        const Status s =
            co_await p->set(key, make_shared_bytes(Bytes(original)));
        EXPECT_TRUE(s.ok()) << key << ": " << s;
      }
      std::uint64_t per_key_gets = 0;
      // down == kServers: every server up.
      for (std::size_t down = 0; down <= kServers; ++down) {
        if (down < kServers) cl->fail_server(down);
        for (std::size_t i = 0; i < kKeys; ++i) {
          const kv::Key key = "prop-" + std::to_string(i);
          const Result<Bytes> via_plain = co_await p->get(key);
          const Result<Bytes> via_hedged = co_await h->get(key);
          EXPECT_TRUE(via_plain.ok()) << key << ": " << via_plain.status();
          EXPECT_TRUE(via_hedged.ok()) << key << ": " << via_hedged.status();
          if (via_plain.ok() && via_hedged.ok()) {
            EXPECT_EQ(*via_hedged, *via_plain) << key << " down " << down;
          }
          if (i % 3 != 0) ++per_key_gets;
        }
        if (down < kServers) cl->recover_server(down);
      }
      // The hedged engine really hedged every per-key read, and every
      // packed value was read degraded at least once (while its range
      // owner was down). A degraded Get counts once, however many of its
      // stages (locator lookup, per-key fallback, failover) worked around
      // the dead server, and the healthy pass counts none.
      EXPECT_GE(h->stats().hedged_gets, per_key_gets);
      for (const Engine* e : {p, h}) {
        EXPECT_EQ(e->stats().get_failures, 0u);
        EXPECT_GE(e->stats().packed_degraded_gets, kKeys / 3);
        EXPECT_LE(e->stats().degraded_gets, e->stats().gets - kKeys);
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, plain.get(), hedged.get(), &cluster_);
}

// Degraded reads stay correct on the hedged path: with a fragment owner
// down before the Get starts, selection avoids it, the hedge rides along,
// and reconstruction returns the original bytes.
TEST_F(HedgeTest, HedgedDegradedReadReconstructs) {
  HedgeParams hedge;
  hedge.delta = 1;
  hedge.load_aware = true;
  auto engine = make_engine(Design::kEraCeCd, 3, {}, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(96'000, 7);
      (void)co_await e->set("degr", make_shared_bytes(Bytes(original)));
      cl->fail_server(cl->ring().slot_index("degr", 1));
      const Result<Bytes> got = co_await e->get("degr");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      EXPECT_GE(e->stats().degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

}  // namespace
}  // namespace hpres::resilience
