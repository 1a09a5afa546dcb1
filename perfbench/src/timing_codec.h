// Timing decorator over ec::Codec: forwards every call to the wrapped codec
// unchanged and counts calls, bytes and host nanoseconds of the coding
// kernels. This is how the benchmark measures the `ec` layer from outside:
// engines and servers are handed the decorator instead of the bare codec.
//
// Counters are relaxed atomics because one decorator is shared by engines
// and servers that may run on different shard threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "ec/codec.h"

namespace perfbench {

struct CodecCounters {
  std::uint64_t encode_calls = 0;
  std::uint64_t encode_bytes = 0;  ///< data-fragment bytes encoded
  std::uint64_t encode_ns = 0;     ///< host time inside encode
  std::uint64_t decode_calls = 0;  ///< reconstruct, reconstruct_data, rebuild
  std::uint64_t decode_bytes = 0;  ///< stripe bytes the decode ran over
  std::uint64_t decode_ns = 0;
};

class TimingCodec final : public hpres::ec::Codec {
 public:
  /// `inner` must outlive the decorator.
  explicit TimingCodec(const Codec& inner)
      : Codec(inner.k(), inner.m()), inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t alignment() const noexcept override {
    return inner_->alignment();
  }

  void encode(std::span<const hpres::ConstByteSpan> data,
              std::span<hpres::ByteSpan> parity) const override {
    const auto t0 = Clock::now();
    inner_->encode(data, parity);
    add(encode_calls_, encode_bytes_, encode_ns_, t0,
        data.empty() ? 0 : data.size() * data[0].size());
  }

  [[nodiscard]] hpres::Status reconstruct(
      std::span<hpres::ByteSpan> fragments,
      const std::vector<bool>& present) const override {
    const auto t0 = Clock::now();
    hpres::Status s = inner_->reconstruct(fragments, present);
    add(decode_calls_, decode_bytes_, decode_ns_, t0, stripe_bytes(fragments));
    return s;
  }

  [[nodiscard]] hpres::Status reconstruct_data(
      std::span<hpres::ByteSpan> fragments,
      const std::vector<bool>& present) const override {
    const auto t0 = Clock::now();
    hpres::Status s = inner_->reconstruct_data(fragments, present);
    add(decode_calls_, decode_bytes_, decode_ns_, t0, stripe_bytes(fragments));
    return s;
  }

  [[nodiscard]] std::optional<std::vector<std::size_t>> minimal_repair_sources(
      std::size_t slot, const std::vector<bool>& present) const override {
    return inner_->minimal_repair_sources(slot, present);
  }

  [[nodiscard]] hpres::Result<std::vector<std::size_t>> select_read_set(
      const std::vector<bool>& available) const override {
    return inner_->select_read_set(available);
  }

  [[nodiscard]] hpres::Result<std::vector<std::size_t>> select_read_set_ordered(
      const std::vector<bool>& available,
      std::span<const std::size_t> preference) const override {
    return inner_->select_read_set_ordered(available, preference);
  }

  [[nodiscard]] hpres::Status rebuild_from_sources(
      std::size_t slot, std::span<const hpres::ConstByteSpan> sources,
      hpres::ByteSpan out) const override {
    const auto t0 = Clock::now();
    hpres::Status s = inner_->rebuild_from_sources(slot, sources, out);
    add(decode_calls_, decode_bytes_, decode_ns_, t0,
        sources.size() * out.size());
    return s;
  }

  [[nodiscard]] CodecCounters counters() const noexcept {
    return CodecCounters{encode_calls_.load(std::memory_order_relaxed),
                         encode_bytes_.load(std::memory_order_relaxed),
                         encode_ns_.load(std::memory_order_relaxed),
                         decode_calls_.load(std::memory_order_relaxed),
                         decode_bytes_.load(std::memory_order_relaxed),
                         decode_ns_.load(std::memory_order_relaxed)};
  }

 private:
  using Clock = std::chrono::steady_clock;
  using Counter = std::atomic<std::uint64_t>;

  /// Bytes of the k data fragments of a stripe (all spans share one size).
  [[nodiscard]] std::uint64_t stripe_bytes(
      std::span<hpres::ByteSpan> fragments) const noexcept {
    return fragments.empty() ? 0 : k() * fragments[0].size();
  }

  static void add(Counter& calls, Counter& bytes, Counter& ns,
                  Clock::time_point t0, std::uint64_t n) noexcept {
    const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - t0);
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(n, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(dt.count()),
                 std::memory_order_relaxed);
  }

  const Codec* inner_;
  mutable Counter encode_calls_{0};
  mutable Counter encode_bytes_{0};
  mutable Counter encode_ns_{0};
  mutable Counter decode_calls_{0};
  mutable Counter decode_bytes_{0};
  mutable Counter decode_ns_{0};
};

}  // namespace perfbench
