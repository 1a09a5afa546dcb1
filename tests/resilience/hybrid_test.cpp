// Hybrid replication/erasure engine: routing by size, read fallback,
// deletes across both schemes, failure tolerance.
#include "resilience/hybrid.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class HybridTest : public FiveNodeClusterTest {
 protected:
  static constexpr std::size_t kThreshold = 16 * 1024;

  std::unique_ptr<HybridEngine> make_hybrid() {
    // rep_factor m+1 = 3 keeps tolerance uniform at 2 across schemes.
    return std::make_unique<HybridEngine>(cluster_.engine_context(0), codec_,
                                          cost_, 3, kThreshold);
  }
};

TEST_F(HybridTest, SmallValuesAreReplicated) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("small", make_shared_bytes(make_pattern(512, 1)));
      EXPECT_EQ(e->replication_stats().sets, 1u);
      EXPECT_EQ(e->erasure_stats().sets, 0u);
      // 3 full copies under the plain key, no fragments.
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 3u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, LargeValuesAreErasureCoded) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("large",
                            make_shared_bytes(make_pattern(64 * 1024, 2)));
      EXPECT_EQ(e->replication_stats().sets, 0u);
      EXPECT_EQ(e->erasure_stats().sets, 1u);
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 5u);  // k+m fragments
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, GetsRouteTransparently) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e) {
      const Bytes small = make_pattern(1000, 3);
      const Bytes large = make_pattern(100'000, 4);
      (void)co_await e->set("s", make_shared_bytes(Bytes(small)));
      (void)co_await e->set("l", make_shared_bytes(Bytes(large)));
      const Result<Bytes> got_s = co_await e->get("s");
      const Result<Bytes> got_l = co_await e->get("l");
      EXPECT_TRUE(got_s.ok());
      EXPECT_TRUE(got_l.ok());
      if (got_s.ok()) { EXPECT_EQ(*got_s, small); }
      if (got_l.ok()) { EXPECT_EQ(*got_l, large); }
      // The large read probed replication (miss), then hit erasure.
      EXPECT_EQ(e->erasure_stats().gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(HybridTest, MissingKeyIsNotFoundAfterBothProbes) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e) {
      const Result<Bytes> got = co_await e->get("ghost");
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(HybridTest, SurvivesTwoFailuresOnBothPaths) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      const Bytes small = make_pattern(1000, 5);
      const Bytes large = make_pattern(80'000, 6);
      (void)co_await e->set("s", make_shared_bytes(Bytes(small)));
      (void)co_await e->set("l", make_shared_bytes(Bytes(large)));
      cl->fail_server(cl->ring().slot_index("l", 0));
      cl->fail_server(cl->ring().slot_index("l", 1));
      const Result<Bytes> got_l = co_await e->get("l");
      EXPECT_TRUE(got_l.ok()) << got_l.status();
      if (got_l.ok()) { EXPECT_EQ(*got_l, large); }
      const Result<Bytes> got_s = co_await e->get("s");
      // Small value survives iff <= 2 of ITS replicas died; with 2 dead
      // servers of 5 and F=3 consecutive placement, at least one replica
      // remains.
      EXPECT_TRUE(got_s.ok()) << got_s.status();
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, DeleteClearsWhicheverSchemeHolds) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("s", make_shared_bytes(make_pattern(100, 7)));
      (void)co_await e->set("l",
                            make_shared_bytes(make_pattern(50'000, 8)));
      EXPECT_TRUE((co_await e->del("s")).ok());
      EXPECT_TRUE((co_await e->del("l")).ok());
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 0u);
      EXPECT_EQ((co_await e->del("never")).code(), StatusCode::kNotFound);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, MemoryFootprintBeatsPureReplicationForMixedSizes) {
  auto hybrid = make_hybrid();
  auto rep = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* h, Engine* r,
                               cluster::Cluster* cl) {
      // Mixed workload: a few small hot keys, many large objects.
      for (int i = 0; i < 4; ++i) {
        (void)co_await h->set("hs" + std::to_string(i),
                              make_shared_bytes(make_pattern(512, static_cast<std::uint64_t>(i))));
        (void)co_await h->set("hl" + std::to_string(i),
                              make_shared_bytes(make_pattern(90'000, static_cast<std::uint64_t>(i))));
      }
      const std::uint64_t hybrid_bytes = cl->total_bytes_used();
      for (int i = 0; i < 4; ++i) {
        (void)co_await r->set("rs" + std::to_string(i),
                              make_shared_bytes(make_pattern(512, static_cast<std::uint64_t>(i))));
        (void)co_await r->set("rl" + std::to_string(i),
                              make_shared_bytes(make_pattern(90'000, static_cast<std::uint64_t>(i))));
      }
      const std::uint64_t rep_bytes = cl->total_bytes_used() - hybrid_bytes;
      EXPECT_LT(static_cast<double>(hybrid_bytes),
                0.7 * static_cast<double>(rep_bytes));
    }
  };
  run_sim(cluster_.sim(), Body::run, hybrid.get(), rep.get(), &cluster_);
}

}  // namespace
}  // namespace hpres::resilience
