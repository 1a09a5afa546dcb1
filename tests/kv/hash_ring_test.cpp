// Consistent hashing and chunk placement properties.
#include "kv/hash_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace hpres::kv {
namespace {

TEST(HashRing, PrimaryIsStable) {
  const HashRing ring(5);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(ring.primary_index(key), ring.primary_index(key));
  }
}

TEST(HashRing, PrimaryInRange) {
  const HashRing ring(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(ring.primary_index("k" + std::to_string(i)), 5u);
  }
}

TEST(HashRing, DistributionIsRoughlyBalanced) {
  const HashRing ring(5, /*vnodes=*/256);
  std::vector<int> counts(5, 0);
  constexpr int kKeys = 20'000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.primary_index("user:" + std::to_string(i))];
  }
  for (const int c : counts) {
    // Each server should own 20% +- 8% absolute of keys.
    EXPECT_NEAR(c, kKeys / 5, kKeys * 8 / 100);
  }
}

TEST(HashRing, SlotPlacementIsListSuccessors) {
  const HashRing ring(5);
  const std::string key = "abc";
  const std::size_t p = ring.primary_index(key);
  for (std::size_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(ring.slot_index(key, slot), (p + slot) % 5);
  }
}

TEST(HashRing, NSlotsCoverNDistinctServers) {
  // The paper places K+M fragments on K+M unique nodes.
  const HashRing ring(5);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "obj" + std::to_string(i);
    std::set<std::size_t> owners;
    for (std::size_t slot = 0; slot < 5; ++slot) {
      owners.insert(ring.slot_index(key, slot));
    }
    EXPECT_EQ(owners.size(), 5u);
  }
}

TEST(HashRing, DifferentSeedsGiveDifferentLayouts) {
  const HashRing a(5, 128, 1);
  const HashRing b(5, 128, 2);
  int diff = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (a.primary_index(key) != b.primary_index(key)) ++diff;
  }
  EXPECT_GT(diff, 50);
}

TEST(HashRing, SingleServerOwnsEverything) {
  const HashRing ring(1);
  EXPECT_EQ(ring.primary_index("anything"), 0u);
  EXPECT_EQ(ring.slot_index("anything", 3), 0u);
}

TEST(HashRing, HashAvoidsTrivialCollisions) {
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 10'000; ++i) {
    hashes.insert(HashRing::hash_key("key-" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), 10'000u);
}

// --- Elastic placement: epochs, active sets, moved-range diffs ------------

TEST(HashRingEpoch, GrownRingMatchesFixedMembershipRing) {
  // A partial ring grown to the full provisioned set places every key and
  // slot exactly like the classic constructor — migration converges to the
  // same layout a fresh cluster of that size would have.
  const HashRing fixed(5);
  HashRing grown(5, 128, 0x5eed, /*initial_active=*/3);
  EXPECT_EQ(grown.num_active(), 3u);
  EXPECT_EQ(grown.epoch(), 1u);
  grown.add_server(3);
  grown.add_server(4);
  EXPECT_EQ(grown.num_active(), 5u);
  EXPECT_EQ(grown.epoch(), 3u);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(grown.primary_index(key), fixed.primary_index(key));
    for (std::size_t slot = 0; slot < 5; ++slot) {
      EXPECT_EQ(grown.slot_index(key, slot), fixed.slot_index(key, slot));
    }
  }
}

TEST(HashRingEpoch, PartialRingOnlyUsesActiveServers) {
  const HashRing ring(6, 128, 0x5eed, /*initial_active=*/4);
  EXPECT_TRUE(ring.is_active(0));
  EXPECT_TRUE(ring.is_active(3));
  EXPECT_FALSE(ring.is_active(4));
  EXPECT_FALSE(ring.is_active(5));
  EXPECT_EQ(ring.num_servers(), 6u);  // provisioned space is unchanged
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_LT(ring.slot_index(key, slot), 4u);
    }
  }
}

TEST(HashRingEpoch, JoinMovesKeysOnlyToTheJoiner) {
  // Consistent-hashing minimality: after a join, a key either keeps its
  // primary or moves to the joining server — never between two incumbents.
  HashRing before(6, 128, 0x5eed, /*initial_active=*/4);
  HashRing after = before;
  after.add_server(4);
  const auto ranges = HashRing::moved_ranges(before, after);
  EXPECT_FALSE(ranges.empty());
  for (const auto& r : ranges) {
    EXPECT_NE(r.from, 4u);
    EXPECT_EQ(r.to, 4u);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::size_t was = before.primary_index(key);
    const std::size_t now = after.primary_index(key);
    if (now != was) {
      EXPECT_EQ(now, 4u);
    }
    // The range diff is exact: a key moved iff some range covers its hash.
    EXPECT_EQ(now != was,
              HashRing::any_covers(ranges, HashRing::hash_key(key)));
  }
  // Roughly 1/5 of the circle should move to the fifth active server.
  EXPECT_NEAR(HashRing::moved_fraction(ranges), 0.2, 0.1);
}

TEST(HashRingEpoch, LeaveSpillsKeysOnlyFromTheLeaver) {
  HashRing before(6, 128, 0x5eed, /*initial_active=*/5);
  HashRing after = before;
  after.remove_server(2);
  for (const auto& r : HashRing::moved_ranges(before, after)) {
    EXPECT_EQ(r.from, 2u);
    EXPECT_NE(r.to, 2u);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (before.primary_index(key) != 2u) {
      EXPECT_EQ(after.primary_index(key), before.primary_index(key));
    } else {
      EXPECT_NE(after.primary_index(key), 2u);
    }
  }
}

TEST(HashRingEpoch, AddThenRemoveRoundTripsPlacement) {
  const HashRing original(6, 128, 0x5eed, /*initial_active=*/4);
  HashRing ring = original;
  ring.add_server(5);
  ring.remove_server(5);
  EXPECT_EQ(ring.epoch(), 3u);  // epochs only move forward
  EXPECT_TRUE(HashRing::moved_ranges(original, ring).empty());
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(ring.slot_index(key, slot), original.slot_index(key, slot));
    }
  }
}

TEST(HashRingEpoch, UnmovedPrimariesKeepOwnersWithinOldUnionJoiner) {
  // For a key whose primary did not move, the joiner merely splices into
  // the successor walk: the new owner set is drawn from the old owners
  // plus the joiner, so at most one fragment of such a key migrates.
  HashRing before(6, 128, 0x5eed, /*initial_active=*/5);
  HashRing after = before;
  after.add_server(5);
  int checked = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (after.primary_index(key) != before.primary_index(key)) continue;
    ++checked;
    std::set<std::size_t> old_owners;
    for (std::size_t slot = 0; slot < 4; ++slot) {
      old_owners.insert(before.slot_index(key, slot));
    }
    old_owners.insert(5);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_TRUE(old_owners.count(after.slot_index(key, slot)) == 1)
          << "key " << key << " slot " << slot;
    }
  }
  EXPECT_GT(checked, 300);  // most keys keep their primary after one join
}

TEST(HashRingEpoch, MovedRangesCoverMutuallyExclusiveArcs) {
  HashRing before(8, 128, 0x5eed, /*initial_active=*/6);
  HashRing after = before;
  after.add_server(6);
  const auto ranges = HashRing::moved_ranges(before, after);
  // Arcs are disjoint: no hash may be covered twice (the migration pass
  // would otherwise move a key twice).
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    int covered = 0;
    for (const auto& r : ranges) {
      if (r.covers(ranges[i].end)) ++covered;
    }
    EXPECT_EQ(covered, 1) << "arc " << i;
  }
  EXPECT_GT(HashRing::moved_fraction(ranges), 0.0);
  EXPECT_LT(HashRing::moved_fraction(ranges), 0.5);
}

// --- Flat point array vs. the std::map layout --------------------------------

// Reference: the ordered-map ring HashRing kept before its points moved into
// a sorted array. Same point formula, same (server, vnode) insertion order,
// same last-writer-wins rule on colliding points.
class MapRing {
 public:
  MapRing(const std::vector<std::size_t>& active, std::size_t vnodes,
          std::uint64_t seed) {
    for (const std::size_t s : active) {
      for (std::size_t v = 0; v < vnodes; ++v) {
        ring_[splitmix64(seed ^ splitmix64(s * 0x10001 + v))] = s;
      }
    }
  }

  [[nodiscard]] std::size_t owner_of(std::uint64_t h) const {
    auto it = ring_.lower_bound(h);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  [[nodiscard]] static std::vector<HashRing::MovedRange> moved_ranges(
      const MapRing& before, const MapRing& after) {
    std::vector<std::uint64_t> points;
    for (const auto& [p, s] : before.ring_) points.push_back(p);
    for (const auto& [p, s] : after.ring_) points.push_back(p);
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    std::vector<HashRing::MovedRange> out;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t hi = points[i];
      const std::uint64_t lo = i == 0 ? points.back() : points[i - 1];
      const std::size_t from = before.owner_of(hi);
      const std::size_t to = after.owner_of(hi);
      if (from == to) continue;
      if (!out.empty() && out.back().end == lo && out.back().from == from &&
          out.back().to == to) {
        out.back().end = hi;
      } else {
        out.push_back(HashRing::MovedRange{lo, hi, from, to});
      }
    }
    return out;
  }

 private:
  std::map<std::uint64_t, std::size_t> ring_;
};

void expect_same_ranges(const std::vector<HashRing::MovedRange>& got,
                        const std::vector<HashRing::MovedRange>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].begin, want[i].begin) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
    EXPECT_EQ(got[i].from, want[i].from) << i;
    EXPECT_EQ(got[i].to, want[i].to) << i;
  }
}

TEST(HashRingFlat, OwnersAndMovedRangesMatchMapLayout) {
  constexpr std::size_t kVnodes = 128;
  constexpr std::uint64_t kSeed = 0x5eed;
  constexpr int kKeys = 100'000;
  HashRing ring(8, kVnodes, kSeed, /*initial_active=*/5);
  Xoshiro256 rng(42);
  // Joins and leaves, including re-adding a removed server.
  const std::vector<std::pair<bool, std::size_t>> steps = {
      {true, 5}, {true, 6}, {false, 2}, {true, 7}, {false, 0}, {true, 2}};
  for (std::size_t step = 0; step <= steps.size(); ++step) {
    const MapRing ref(ring.active(), kVnodes, kSeed);
    int mismatched = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "user" + std::to_string(rng());
      if (ring.primary_index(key) != ref.owner_of(HashRing::hash_key(key))) {
        ++mismatched;
      }
    }
    EXPECT_EQ(mismatched, 0) << "step " << step;
    if (step == steps.size()) break;
    const HashRing before = ring;
    const auto [join, server] = steps[step];
    if (join) {
      ring.add_server(server);
    } else {
      ring.remove_server(server);
    }
    const MapRing after_ref(ring.active(), kVnodes, kSeed);
    expect_same_ranges(HashRing::moved_ranges(before, ring),
                       MapRing::moved_ranges(ref, after_ref));
  }
}

}  // namespace
}  // namespace hpres::kv
