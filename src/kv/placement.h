// Client-visible snapshot of the versioned placement plane.
//
// A single authority (cluster::PlacementManager) owns one PlacementView per
// cluster and hands out const pointers; it mutates the view only at
// quiesce-safe points (from a runtime quiesce hook, at any shard count),
// so readers on any shard always observe a consistent
// {epoch, ring} pair without locks.
#pragma once

#include <cstdint>

namespace hpres::kv {

class HashRing;

struct PlacementView {
  /// Current placement epoch — HashRing::epoch() of the live ring. Clients
  /// stamp it onto outgoing requests; servers bounce writes carrying an
  /// older (non-zero) one with kWrongEpoch.
  std::uint64_t epoch = 0;
  /// A migration pass is in flight: fragments may still sit at their
  /// pre-cutover positions, so reads that miss under the new ring fall
  /// back to `prev`, and deletes dual-issue under both rings.
  bool in_transition = false;
  /// The pre-cutover ring while in_transition (stable address owned by
  /// the placement manager), nullptr otherwise.
  const HashRing* prev = nullptr;
};

}  // namespace hpres::kv
