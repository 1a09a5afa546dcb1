// StorageEngine against a reference model, and the open-addressing map
// behind its index.
//
// The model is a node-based store (std::unordered_map index + std::list
// LRU per tier) with the engine's documented semantics. A seeded random
// mix of set/get/erase/clear under capacity pressure, with and without the
// SSD tier, must agree with it after every step: LRU key order, item and
// byte counts, every GetResult and every StoreStats field.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "kv/flat_map.h"
#include "kv/store.h"

namespace hpres::kv {
namespace {

class ModelStore {
 public:
  explicit ModelStore(std::uint64_t capacity, std::uint64_t ssd_capacity)
      : capacity_(capacity), ssd_capacity_(ssd_capacity) {}

  Status set(const Key& key, SharedBytes value,
             std::optional<ChunkInfo> chunk) {
    ++stats.set_ops;
    const std::size_t charge = charge_for(key, value, chunk);
    if (charge > capacity_) {
      ++stats.rejected_sets;
      return Status{StatusCode::kOutOfMemory};
    }
    remove(mem_, key);
    remove(ssd_, key);
    while (mem_.used + charge > capacity_) evict_one();
    push_front(mem_, key, Entry{std::move(value), chunk, charge, {}});
    return Status::Ok();
  }

  Result<StorageEngine::GetResult> get(const Key& key) {
    ++stats.get_ops;
    if (const auto it = mem_.map.find(key); it != mem_.map.end()) {
      ++stats.hits;
      mem_.lru.splice(mem_.lru.begin(), mem_.lru, it->second.lru_it);
      return StorageEngine::GetResult{it->second.value, it->second.chunk,
                                      false};
    }
    const auto sit = ssd_.map.find(key);
    if (sit == ssd_.map.end()) {
      ++stats.misses;
      return Status{StatusCode::kNotFound};
    }
    ++stats.hits;
    ++stats.ssd_hits;
    ++stats.promotions;
    Entry entry = take(ssd_, key);
    StorageEngine::GetResult out{entry.value, entry.chunk, true};
    while (mem_.used + entry.charged > capacity_ && !mem_.lru.empty()) {
      evict_one();
    }
    push_front(mem_, key, std::move(entry));
    return out;
  }

  bool erase(const Key& key) { return remove(mem_, key) || remove(ssd_, key); }

  void clear() {
    mem_ = Tier{};
    ssd_ = Tier{};
  }

  [[nodiscard]] std::vector<Key> keys() const {
    return {mem_.lru.begin(), mem_.lru.end()};
  }
  [[nodiscard]] std::size_t items() const { return mem_.map.size(); }
  [[nodiscard]] std::uint64_t bytes_used() const { return mem_.used; }
  [[nodiscard]] std::uint64_t ssd_bytes_used() const { return ssd_.used; }

  StoreStats stats;

 private:
  struct Entry {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    std::size_t charged = 0;
    std::list<Key>::iterator lru_it;
  };
  struct Tier {
    std::unordered_map<Key, Entry> map;
    std::list<Key> lru;  // front = most recent
    std::uint64_t used = 0;
  };

  static std::size_t charge_for(const Key& key, const SharedBytes& value,
                                const std::optional<ChunkInfo>& chunk) {
    return key.size() + (value ? value->size() : 0) +
           StorageEngine::kItemOverhead + (chunk ? sizeof(ChunkInfo) : 0);
  }

  static void push_front(Tier& t, const Key& key, Entry entry) {
    t.lru.push_front(key);
    entry.lru_it = t.lru.begin();
    t.used += entry.charged;
    t.map.emplace(key, std::move(entry));
  }
  static Entry take(Tier& t, const Key& key) {
    const auto it = t.map.find(key);
    Entry entry = std::move(it->second);
    t.used -= entry.charged;
    t.lru.erase(entry.lru_it);
    t.map.erase(it);
    return entry;
  }
  static bool remove(Tier& t, const Key& key) {
    if (!t.map.contains(key)) return false;
    take(t, key);
    return true;
  }

  void evict_one() {
    const Key victim = mem_.lru.back();
    ++stats.evictions;
    Entry entry = take(mem_, victim);
    if (ssd_capacity_ > 0 && entry.charged <= ssd_capacity_) {
      while (ssd_.used + entry.charged > ssd_capacity_) {
        const Key cold = ssd_.lru.back();
        ++stats.evictions;
        const Entry lost = take(ssd_, cold);
        stats.evicted_bytes += lost.value ? lost.value->size() : 0;
      }
      remove(ssd_, victim);
      ++stats.demotions;
      stats.demoted_bytes += entry.value ? entry.value->size() : 0;
      push_front(ssd_, victim, std::move(entry));
    } else {
      stats.evicted_bytes += entry.value ? entry.value->size() : 0;
    }
  }

  std::uint64_t capacity_;
  std::uint64_t ssd_capacity_;
  Tier mem_;
  Tier ssd_;
};

void expect_same_stats(const StoreStats& a, const StoreStats& b) {
  EXPECT_EQ(a.set_ops, b.set_ops);
  EXPECT_EQ(a.get_ops, b.get_ops);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.evicted_bytes, b.evicted_bytes);
  EXPECT_EQ(a.rejected_sets, b.rejected_sets);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.demoted_bytes, b.demoted_bytes);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.ssd_hits, b.ssd_hits);
}

/// Runs `steps` random operations over `key_space` keys on both stores.
void run_differential(std::uint64_t seed, std::uint64_t capacity,
                      std::uint64_t ssd_capacity, std::size_t key_space,
                      std::size_t steps) {
  StorageEngine store(capacity);
  if (ssd_capacity > 0) store.enable_ssd(SsdConfig{ssd_capacity});
  ModelStore model(capacity, ssd_capacity);
  Xoshiro256 rng(seed);
  for (std::size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    // Long keys leave the small-string buffer; short ones stay in it.
    const std::size_t id = rng.next_below(key_space);
    const Key key = (id % 3 == 0 ? "a-much-longer-key-name/" : "k") +
                    std::to_string(id);
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      // Values up to a third of capacity; some larger than everything.
      std::size_t size = rng.next_below(capacity / 3);
      if (rng.next_below(50) == 0) size = capacity + 1;
      SharedBytes value =
          rng.next_below(8) == 0 ? nullptr : make_shared_bytes(Bytes(size));
      std::optional<ChunkInfo> chunk;
      if (rng.next_below(2) == 0) {
        chunk = ChunkInfo{size * 3, static_cast<std::uint32_t>(id % 5), 3, 2};
      }
      const Status a = store.set(key, value, chunk);
      const Status b = model.set(key, value, chunk);
      EXPECT_EQ(a.code(), b.code());
    } else if (op < 85) {
      const auto a = store.get(key);
      const auto b = model.get(key);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        EXPECT_EQ(a->value, b->value);  // the very same shared buffer
        EXPECT_EQ(a->chunk, b->chunk);
        EXPECT_EQ(a->from_ssd, b->from_ssd);
      } else {
        EXPECT_EQ(a.status().code(), b.status().code());
      }
    } else if (op < 98) {
      EXPECT_EQ(store.erase(key), model.erase(key));
    } else {
      store.clear();
      model.clear();
    }
    ASSERT_EQ(store.keys(), model.keys());
    EXPECT_EQ(store.items(), model.items());
    EXPECT_EQ(store.bytes_used(), model.bytes_used());
    EXPECT_EQ(store.ssd_bytes_used(), model.ssd_bytes_used());
    expect_same_stats(store.stats(), model.stats);
  }
}

TEST(StoreModel, MatchesReferenceWithoutSsd) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_differential(seed, /*capacity=*/4096, /*ssd=*/0, /*keys=*/64,
                     /*steps=*/3000);
  }
}

TEST(StoreModel, MatchesReferenceWithSsd) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    run_differential(seed, /*capacity=*/4096, /*ssd=*/8192, /*keys=*/64,
                     /*steps=*/3000);
  }
}

TEST(StoreModel, MatchesReferenceWithTightSsd) {
  // SSD smaller than memory: some evictions cannot demote at all.
  for (const std::uint64_t seed : {7u, 8u}) {
    run_differential(seed, /*capacity=*/4096, /*ssd=*/1200, /*keys=*/48,
                     /*steps=*/3000);
  }
}

TEST(StoreModel, ManyKeysGrowTheIndex) {
  run_differential(9, /*capacity=*/1 << 20, /*ssd=*/1 << 18, /*keys=*/2000,
                   /*steps=*/6000);
}

// ---- FlatMap ------------------------------------------------------------

/// A test map of int -> int: each value carries its key.
using Pair = std::pair<int, int>;
using Map = FlatMap<Pair>;

auto is_key(int k) {
  return [k](const Pair& p) { return p.first == k; };
}

const int* lookup(Map& map, int k, std::uint64_t hash) {
  const Pair* p = map.find(hash, is_key(k));
  return p != nullptr ? &p->second : nullptr;
}

TEST(FlatMap, EraseInsideWrappedProbeChain) {
  Map map;
  map.insert(0, -1, -1);  // first insert sizes the table
  const std::size_t cap = map.capacity();
  ASSERT_EQ(cap, Map::kInitialCapacity);
  ASSERT_TRUE(map.erase(0, is_key(-1)));
  // Five keys share the home slot cap-2, so the run wraps through slot 0
  // into slot 2; a sixth key homed at slot 0 lands behind it in slot 3.
  const std::uint64_t home = cap - 2;
  const auto h = [&](int k) {
    return home + cap * static_cast<std::uint64_t>(k);
  };
  for (int k = 0; k < 5; ++k) map.insert(h(k), k, k * 10);
  map.insert(cap * 7, 100, 1000);
  // Erase from the middle of the wrapped run: later entries shift back
  // across the wrap and every key stays reachable.
  EXPECT_TRUE(map.erase(h(1), is_key(1)));
  EXPECT_EQ(lookup(map, 1, h(1)), nullptr);
  for (const int k : {0, 2, 3, 4}) {
    const int* v = lookup(map, k, h(k));
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 10);
  }
  ASSERT_NE(lookup(map, 100, cap * 7), nullptr);
  // Erase the entry sitting just past the wrap, then the wrap-homed key.
  EXPECT_TRUE(map.erase(h(3), is_key(3)));
  EXPECT_TRUE(map.erase(cap * 7, is_key(100)));
  for (const int k : {0, 2, 4}) {
    ASSERT_NE(lookup(map, k, h(k)), nullptr) << k;
  }
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.erase(h(3), is_key(3)));
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  Map map;
  constexpr int kKeys = 1000;
  const auto h = [](int k) {
    return static_cast<std::uint64_t>(k) * std::uint64_t{0x9E3779B97F4A7C15};
  };
  for (int k = 0; k < kKeys; ++k) {
    const Pair& p = map.insert(h(k), k, k);
    EXPECT_EQ(p.second, k);
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  EXPECT_GE(map.capacity() * 3, map.size() * 4);  // load stays <= 3/4
  for (int k = 0; k < kKeys; ++k) {
    const int* v = lookup(map, k, h(k));
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(lookup(map, kKeys, h(kKeys)), nullptr);
}

TEST(FlatMap, ReinsertAfterErase) {
  Map map;
  // Colliding keys: all hash to 5.
  for (int k = 0; k < 8; ++k) map.insert(5, k, k);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 8; k += 2) EXPECT_TRUE(map.erase(5, is_key(k)));
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(lookup(map, k, 5) != nullptr, k % 2 == 1) << k;
    }
    for (int k = 0; k < 8; k += 2) map.insert(5, k, k + round);
    EXPECT_EQ(map.size(), 8u);
  }
  EXPECT_EQ(*lookup(map, 4, 5), 6);
  const std::optional<Pair> taken = map.take(5, is_key(4));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->second, 6);
  EXPECT_FALSE(map.take(5, is_key(4)).has_value());
  // Hash 0 is the empty marker internally; such keys still work.
  map.insert(0, 42, 1);
  ASSERT_NE(lookup(map, 42, 0), nullptr);
  EXPECT_TRUE(map.erase(0, is_key(42)));
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(lookup(map, 1, 5), nullptr);
}

}  // namespace
}  // namespace hpres::kv
