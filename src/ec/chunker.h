// Value <-> fragment conversion: splits a key-value pair's value of size D
// into K equal fragments of size ceil(D/K) (zero-padded, aligned for the
// codec), and joins any reconstructed fragments back into the original
// value. Fragment size and original size travel with every fragment so a
// Get can size its reassembly buffers from any single chunk's metadata.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace hpres::ec {

class Codec;

struct ChunkLayout {
  std::size_t original_size = 0;  ///< bytes in the value before padding
  std::size_t fragment_size = 0;  ///< bytes per fragment (padded, aligned)
  std::size_t k = 0;              ///< data fragments

  [[nodiscard]] bool operator==(const ChunkLayout&) const = default;
};

/// Computes the layout for a value of `value_size` split into k fragments,
/// with fragment size rounded up to `alignment` bytes (codec requirement).
/// A zero-size value still yields fragments of one alignment unit so that
/// parity math stays well-defined.
[[nodiscard]] ChunkLayout make_layout(std::size_t value_size, std::size_t k,
                                      std::size_t alignment);

/// Splits `value` into layout.k owned fragments, zero-padding the tail.
[[nodiscard]] std::vector<Bytes> split_value(ConstByteSpan value,
                                             const ChunkLayout& layout);

/// The one erasure encoder of every write path (per-key Sets, packed
/// stripe commits, server-side SetEncode): returns codec.n() fragments in
/// slot order, the k data fragments of split_value followed by the m parity
/// fragments. A null `value` is size-only mode: n shared zero buffers of
/// layout.fragment_size, no host encode work.
[[nodiscard]] std::vector<SharedBytes> encode_fragments(
    const Codec& codec, const ChunkLayout& layout, const Bytes* value);

/// Reassembles the original value from the k data fragments (in index
/// order). Fails if sizes disagree with the layout.
[[nodiscard]] Result<Bytes> join_fragments(
    std::span<const ConstByteSpan> data_fragments, const ChunkLayout& layout);

}  // namespace hpres::ec
