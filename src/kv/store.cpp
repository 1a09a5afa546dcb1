#include "kv/store.h"

#include <cassert>
#include <functional>
#include <string_view>

namespace hpres::kv {

std::uint64_t StorageEngine::key_hash(const Key& key) noexcept {
  return std::hash<std::string_view>{}(key);
}

Status StorageEngine::set(const Key& key, SharedBytes value,
                          std::optional<ChunkInfo> chunk) {
  ++stats_.set_ops;
  const std::size_t charge = charge_for(key, value, chunk);
  if (charge > capacity_) {
    ++stats_.rejected_sets;
    return Status{StatusCode::kOutOfMemory, "item exceeds server capacity"};
  }

  const std::uint64_t hash = key_hash(key);
  // A replaced item leaves the LRU list (and the byte count) before the
  // evictions below and comes back at the front; it keeps its index slot.
  const std::uint32_t slot = mem_.find(key, hash);
  if (slot != Tier::kNil) mem_.unlink(slot);
  // Drop any stale SSD copy so a later promotion cannot resurrect it.
  if (const std::uint32_t stale = ssd_.find(key, hash); stale != Tier::kNil) {
    ssd_.take(stale);
  }
  while (mem_.used() + charge > capacity_) evict_one();

  if (slot == Tier::kNil) {
    mem_.push_front(Entry{key, hash, std::move(value), chunk, charge});
  } else {
    Entry& entry = mem_.at(slot);
    entry.value = std::move(value);
    entry.chunk = chunk;
    entry.charged_bytes = charge;
    mem_.relink(slot);
  }
  return Status::Ok();
}

Result<StorageEngine::GetResult> StorageEngine::get(const Key& key) {
  ++stats_.get_ops;
  const std::uint64_t hash = key_hash(key);
  const std::uint32_t slot = mem_.find(key, hash);
  if (slot == Tier::kNil) {
    // Memory miss: consult the SSD tier, promoting on a hit.
    const std::uint32_t sslot = ssd_.find(key, hash);
    if (sslot == Tier::kNil) {
      ++stats_.misses;
      return Status{StatusCode::kNotFound};
    }
    ++stats_.hits;
    ++stats_.ssd_hits;
    ++stats_.promotions;
    Entry entry = ssd_.take(sslot);
    GetResult out{entry.value, entry.chunk, /*from_ssd=*/true};
    // Re-admit to memory (may demote colder items in turn).
    while (mem_.used() + entry.charged_bytes > capacity_ &&
           mem_.lru_back() != Tier::kNil) {
      evict_one();
    }
    mem_.push_front(std::move(entry));
    return out;
  }
  ++stats_.hits;
  mem_.touch(slot);
  const Entry& entry = mem_.at(slot);
  return GetResult{entry.value, entry.chunk, false};
}

bool StorageEngine::erase(const Key& key) {
  const std::uint64_t hash = key_hash(key);
  if (const std::uint32_t slot = mem_.find(key, hash); slot != Tier::kNil) {
    mem_.take(slot);
    return true;
  }
  if (const std::uint32_t slot = ssd_.find(key, hash); slot != Tier::kNil) {
    ssd_.take(slot);
    return true;
  }
  return false;
}

void StorageEngine::evict_one() {
  const std::uint32_t victim = mem_.lru_back();
  assert(victim != Tier::kNil && "capacity accounting underflow");
  ++stats_.evictions;
  Entry entry = mem_.take(victim);
  if (ssd_enabled() && entry.charged_bytes <= ssd_capacity_) {
    demote_to_ssd(std::move(entry));
  } else {
    stats_.evicted_bytes += entry.value ? entry.value->size() : 0;
  }
}

void StorageEngine::demote_to_ssd(Entry entry) {
  while (ssd_.used() + entry.charged_bytes > ssd_capacity_) {
    evict_one_from_ssd();
  }
  // Replace any stale SSD copy of the same key.
  if (const std::uint32_t stale = ssd_.find(entry.key, entry.hash);
      stale != Tier::kNil) {
    ssd_.take(stale);
  }
  ++stats_.demotions;
  stats_.demoted_bytes += entry.value ? entry.value->size() : 0;
  ssd_.push_front(std::move(entry));
}

void StorageEngine::evict_one_from_ssd() {
  const std::uint32_t victim = ssd_.lru_back();
  assert(victim != Tier::kNil && "SSD accounting underflow");
  ++stats_.evictions;
  const Entry entry = ssd_.take(victim);
  stats_.evicted_bytes += entry.value ? entry.value->size() : 0;
}

// ---- Tier ---------------------------------------------------------------

void StorageEngine::Tier::push_front(Entry entry) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  index_.insert(entry.hash, slot);
  slots_[slot].entry = std::move(entry);
  relink(slot);
}

void StorageEngine::Tier::unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = kNil;
  s.next = kNil;
  used_ -= s.entry.charged_bytes;
}

void StorageEngine::Tier::relink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) {
    slots_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
  used_ += s.entry.charged_bytes;
}

StorageEngine::Entry StorageEngine::Tier::take(std::uint32_t slot) {
  unlink(slot);
  Entry& entry = slots_[slot].entry;
  index_.erase(entry.hash, [slot](std::uint32_t s) { return s == slot; });
  Entry out = std::move(entry);
  entry = Entry{};
  free_.push_back(slot);
  return out;
}

void StorageEngine::Tier::clear() {
  index_.clear();
  slots_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
  used_ = 0;
}

std::vector<Key> StorageEngine::Tier::keys() const {
  std::vector<Key> out;
  out.reserve(index_.size());
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    out.push_back(slots_[s].entry.key);
  }
  return out;
}

}  // namespace hpres::kv
