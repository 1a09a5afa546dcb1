#include "ec/chunker.h"

#include <cassert>
#include <cstring>

#include "ec/codec.h"

namespace hpres::ec {

ChunkLayout make_layout(std::size_t value_size, std::size_t k,
                        std::size_t alignment) {
  assert(k >= 1 && alignment >= 1);
  const std::size_t raw = (value_size + k - 1) / k;
  std::size_t frag = (raw + alignment - 1) / alignment * alignment;
  if (frag == 0) frag = alignment;
  return ChunkLayout{value_size, frag, k};
}

std::vector<Bytes> split_value(ConstByteSpan value,
                               const ChunkLayout& layout) {
  assert(value.size() == layout.original_size);
  std::vector<Bytes> out;
  out.reserve(layout.k);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < layout.k; ++i) {
    Bytes frag(layout.fragment_size);  // zero-initialized => tail padding
    const std::size_t take =
        offset < value.size()
            ? std::min(layout.fragment_size, value.size() - offset)
            : 0;
    if (take > 0) {
      std::memcpy(frag.data(), value.data() + offset, take);
    }
    offset += take;
    out.push_back(std::move(frag));
  }
  return out;
}

std::vector<SharedBytes> encode_fragments(const Codec& codec,
                                          const ChunkLayout& layout,
                                          const Bytes* value) {
  assert(layout.k == codec.k());
  std::vector<SharedBytes> out;
  if (value == nullptr) {
    // One cache lookup (and one lock) per value, not per fragment.
    out.assign(codec.n(), zero_bytes(layout.fragment_size));
    return out;
  }
  out.reserve(codec.n());
  std::vector<Bytes> data = split_value(*value, layout);
  const std::vector<ConstByteSpan> data_spans(data.begin(), data.end());
  std::vector<Bytes> parity(codec.m(), Bytes(layout.fragment_size));
  std::vector<ByteSpan> parity_spans(parity.begin(), parity.end());
  codec.encode(data_spans, parity_spans);
  for (Bytes& f : data) out.push_back(make_shared_bytes(std::move(f)));
  for (Bytes& p : parity) out.push_back(make_shared_bytes(std::move(p)));
  return out;
}

Result<Bytes> join_fragments(std::span<const ConstByteSpan> data_fragments,
                             const ChunkLayout& layout) {
  if (data_fragments.size() != layout.k) {
    return Status{StatusCode::kInvalidArgument, "fragment count != k"};
  }
  for (const auto& f : data_fragments) {
    if (f.size() != layout.fragment_size) {
      return Status{StatusCode::kInvalidArgument, "fragment size mismatch"};
    }
  }
  if (layout.original_size > layout.k * layout.fragment_size) {
    return Status{StatusCode::kInvalidArgument, "layout overflows fragments"};
  }
  Bytes out(layout.original_size);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < layout.k && offset < out.size(); ++i) {
    const std::size_t take =
        std::min(layout.fragment_size, out.size() - offset);
    std::memcpy(out.data() + offset, data_fragments[i].data(), take);
    offset += take;
  }
  return out;
}

}  // namespace hpres::ec
