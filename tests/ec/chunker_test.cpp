// Value <-> fragment layout math and round-trips.
#include "ec/chunker.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {
namespace {

TEST(Chunker, LayoutDividesEvenly) {
  const ChunkLayout l = make_layout(3000, 3, 1);
  EXPECT_EQ(l.fragment_size, 1000u);
  EXPECT_EQ(l.original_size, 3000u);
}

TEST(Chunker, LayoutRoundsUpToK) {
  const ChunkLayout l = make_layout(3001, 3, 1);
  EXPECT_EQ(l.fragment_size, 1001u);
}

TEST(Chunker, LayoutAlignsFragment) {
  const ChunkLayout l = make_layout(3001, 3, 8);
  EXPECT_EQ(l.fragment_size, 1008u);
  EXPECT_EQ(l.fragment_size % 8, 0u);
}

TEST(Chunker, ZeroSizeValueStillHasNonEmptyFragments) {
  const ChunkLayout l = make_layout(0, 3, 8);
  EXPECT_EQ(l.fragment_size, 8u);
  const std::vector<Bytes> frags = split_value({}, l);
  ASSERT_EQ(frags.size(), 3u);
  for (const auto& f : frags) EXPECT_EQ(f.size(), 8u);
}

TEST(Chunker, ValueSmallerThanAlignmentRoundTrips) {
  // A 3-byte value with k=4, alignment 8: every fragment is one alignment
  // unit and the value lives entirely inside fragment 0.
  const Bytes value = make_pattern(3, 9);
  const ChunkLayout layout = make_layout(3, 4, 8);
  EXPECT_EQ(layout.fragment_size, 8u);
  const std::vector<Bytes> frags = split_value(value, layout);
  ASSERT_EQ(frags.size(), 4u);
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, ValueSmallerThanKBytesRoundTrips) {
  // Fewer bytes than data fragments: with alignment 1 each fragment is a
  // single byte and the trailing ones are pure padding.
  const Bytes value = make_pattern(2, 5);
  const ChunkLayout layout = make_layout(2, 4, 1);
  EXPECT_EQ(layout.fragment_size, 1u);
  const std::vector<Bytes> frags = split_value(value, layout);
  ASSERT_EQ(frags.size(), 4u);
  EXPECT_EQ(frags[2][0], std::byte{0});
  EXPECT_EQ(frags[3][0], std::byte{0});
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, ExactlyKTimesAlignmentHasNoPadding) {
  const ChunkLayout layout = make_layout(4 * 8, 4, 8);
  EXPECT_EQ(layout.fragment_size, 8u);  // no rounding slack
  const Bytes value = make_pattern(32, 2);
  const std::vector<Bytes> frags = split_value(value, layout);
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, SplitJoinRoundTripAcrossSizes) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{1024},
        std::size_t{1'000'000}, std::size_t{1'048'576}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      const Bytes value = make_pattern(size, size + k);
      const ChunkLayout layout = make_layout(size, k, 8);
      const std::vector<Bytes> frags = split_value(value, layout);
      ASSERT_EQ(frags.size(), k);
      const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
      const Result<Bytes> joined = join_fragments(spans, layout);
      ASSERT_TRUE(joined.ok()) << "size=" << size << " k=" << k;
      EXPECT_EQ(*joined, value);
    }
  }
}

TEST(Chunker, TailFragmentIsZeroPadded) {
  const Bytes value = make_pattern(10, 1);
  const ChunkLayout layout = make_layout(10, 3, 8);  // fragment 8, holds 24
  const std::vector<Bytes> frags = split_value(value, layout);
  // value fills fragment 0 (8 bytes) and 2 bytes of fragment 1.
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(frags[1][i], std::byte{0});
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(frags[2][i], std::byte{0});
  }
}

TEST(Chunker, JoinRejectsWrongArity) {
  const ChunkLayout layout = make_layout(100, 3, 1);
  const Bytes frag(layout.fragment_size);
  const std::vector<ConstByteSpan> two{frag, frag};
  EXPECT_EQ(join_fragments(two, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsWrongFragmentSize) {
  const ChunkLayout layout = make_layout(100, 2, 1);
  const Bytes good(layout.fragment_size);
  const Bytes bad(layout.fragment_size + 1);
  const std::vector<ConstByteSpan> frags{good, bad};
  EXPECT_EQ(join_fragments(frags, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsInconsistentLayout) {
  ChunkLayout layout = make_layout(100, 2, 1);
  layout.original_size = 1000;  // exceeds k * fragment_size
  const Bytes frag(layout.fragment_size);
  const std::vector<ConstByteSpan> frags{frag, frag};
  EXPECT_EQ(join_fragments(frags, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, EncodeFragmentsIsSplitPlusParity) {
  const RsVandermondeCodec codec(3, 2);
  const Bytes value = make_pattern(1000, 21);
  const ChunkLayout layout = make_layout(value.size(), 3, codec.alignment());
  const std::vector<SharedBytes> frags =
      encode_fragments(codec, layout, &value);
  ASSERT_EQ(frags.size(), codec.n());

  // Byte-equal to the split data plus the codec's own parity.
  const std::vector<Bytes> data = split_value(value, layout);
  const std::vector<ConstByteSpan> data_spans(data.begin(), data.end());
  std::vector<Bytes> parity(codec.m(), Bytes(layout.fragment_size));
  std::vector<ByteSpan> parity_spans(parity.begin(), parity.end());
  codec.encode(data_spans, parity_spans);
  for (std::size_t i = 0; i < codec.k(); ++i) EXPECT_EQ(*frags[i], data[i]);
  for (std::size_t j = 0; j < codec.m(); ++j) {
    EXPECT_EQ(*frags[codec.k() + j], parity[j]);
  }

  // Any k of them decode back to the value: drop two data fragments.
  std::vector<Bytes> storage;
  for (const SharedBytes& f : frags) storage.push_back(*f);
  std::vector<bool> present(codec.n(), true);
  present[0] = present[2] = false;
  storage[0].assign(layout.fragment_size, std::byte{0});
  storage[2].assign(layout.fragment_size, std::byte{0});
  std::vector<ByteSpan> spans(storage.begin(), storage.end());
  ASSERT_TRUE(codec.reconstruct_data(spans, present).ok());
  const std::vector<ConstByteSpan> rebuilt(storage.begin(),
                                           storage.begin() + 3);
  const Result<Bytes> joined = join_fragments(rebuilt, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, EncodeFragmentsSizeOnlyIsZeroBuffers) {
  const RsVandermondeCodec codec(3, 2);
  const ChunkLayout layout = make_layout(1000, 3, codec.alignment());
  const std::vector<SharedBytes> frags =
      encode_fragments(codec, layout, nullptr);
  ASSERT_EQ(frags.size(), codec.n());
  for (const SharedBytes& f : frags) {
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, Bytes(layout.fragment_size));
  }
}

}  // namespace
}  // namespace hpres::ec
