#include "selftest.h"

#include <cstring>

#include "common/rng.h"
#include "ec/rs_vandermonde.h"
#include "timing_codec.h"
#include "workload.h"

namespace perfbench {

namespace {

using hpres::Bytes;
using hpres::ByteSpan;
using hpres::ConstByteSpan;

struct Stripe {
  std::vector<Bytes> frags;
  std::vector<ByteSpan> spans() {
    std::vector<ByteSpan> out;
    for (Bytes& f : frags) out.emplace_back(f);
    return out;
  }
};

Stripe random_stripe(const hpres::ec::Codec& codec, std::size_t frag_size,
                     hpres::Xoshiro256& rng) {
  Stripe s;
  s.frags.assign(codec.n(), Bytes(frag_size));
  for (std::size_t i = 0; i < codec.k(); ++i) {
    hpres::fill_pattern(ByteSpan(s.frags[i]), rng());
  }
  return s;
}

void encode(const hpres::ec::Codec& codec, Stripe& s) {
  std::vector<ConstByteSpan> data;
  for (std::size_t i = 0; i < codec.k(); ++i) data.emplace_back(s.frags[i]);
  std::vector<ByteSpan> parity;
  for (std::size_t i = codec.k(); i < codec.n(); ++i) {
    parity.emplace_back(s.frags[i]);
  }
  codec.encode(data, parity);
}

/// Erases `present == false` slots, then decodes with `codec`.
bool decode(const hpres::ec::Codec& codec, Stripe& s,
            const std::vector<bool>& present, bool data_only) {
  for (std::size_t i = 0; i < s.frags.size(); ++i) {
    if (!present[i]) std::memset(s.frags[i].data(), 0xA5, s.frags[i].size());
  }
  std::vector<ByteSpan> spans = s.spans();
  const hpres::Status st = data_only ? codec.reconstruct_data(spans, present)
                                     : codec.reconstruct(spans, present);
  return st.ok();
}

}  // namespace

std::vector<std::string> codec_transparency_failures(std::uint64_t seed) {
  std::vector<std::string> fails;
  const hpres::ec::RsVandermondeCodec bare(3, 2);
  const TimingCodec timed(bare);
  hpres::Xoshiro256 rng(seed ^ 0x7153C0DECULL);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t frag = 1 + rng.next_below(6000);
    Stripe a = random_stripe(bare, frag, rng);
    Stripe b = a;
    encode(bare, a);
    encode(timed, b);
    if (a.frags != b.frags) fails.push_back("encode output differs");
    std::vector<bool> present(bare.n(), true);
    present[rng.next_below(bare.n())] = false;
    present[rng.next_below(bare.n())] = false;
    const bool data_only = (trial % 2) == 0;
    const bool ok_a = decode(bare, a, present, data_only);
    const bool ok_b = decode(timed, b, present, data_only);
    if (ok_a != ok_b || a.frags != b.frags) {
      fails.push_back("reconstruct output differs");
    }
    if (bare.select_read_set(present).ok() !=
            timed.select_read_set(present).ok() ||
        *bare.select_read_set(present) != *timed.select_read_set(present)) {
      fails.push_back("select_read_set differs");
    }
    const std::vector<std::size_t> pref = {4, 3, 2, 1, 0};
    if (*bare.select_read_set_ordered(present, pref) !=
        *timed.select_read_set_ordered(present, pref)) {
      fails.push_back("select_read_set_ordered differs");
    }
  }
  if (timed.name() != bare.name() || timed.alignment() != bare.alignment()) {
    fails.push_back("name or alignment differs");
  }
  const CodecCounters c = timed.counters();
  if (c.encode_calls != 64 || c.decode_calls != 64) {
    fails.push_back("timing codec miscounted calls");
  }
  return fails;
}

std::vector<std::string> checker_failures() {
  std::vector<std::string> fails;
  // Key 0: preload v0 acked at 0; v1 acked over [10, 20]; v2 in flight
  // over [30, 60] and failed.
  // Key 1: preload v0; v1 failed over [10, 20]; v2 acked over [30, 40].
  HistoryChecker h(2);
  h.add_write(0, 0, 0, 0, true);
  h.add_write(0, 1, 10, 20, true);
  h.add_write(0, 2, 30, 60, false);
  h.add_write(1, 0, 0, 0, true);
  h.add_write(1, 1, 10, 20, false);
  h.add_write(1, 2, 30, 40, true);
  const auto expect = [&](bool accept, std::uint32_t key, ReadView r,
                          SimTime s, SimTime e, const char* what) {
    if (h.check_read(key, r, s, e).empty() != accept) fails.push_back(what);
  };
  expect(true, 0, {true, 2}, 25, 40, "newer in-flight version rejected");
  expect(true, 0, {true, 1}, 25, 40, "latest acked version rejected");
  expect(true, 0, {true, 0}, 5, 15, "read concurrent with a write rejected");
  expect(false, 0, {true, 0}, 25, 40, "stale version accepted");
  expect(false, 0, {false, 1}, 25, 40, "torn value accepted");
  expect(false, 0, {true, 2}, 22, 28, "version read before it was written");
  expect(false, 0, {true, 3}, 25, 40, "never-written version accepted");
  expect(true, 0, {true, 1}, kNever, kNever, "sweep rejected last acked");
  expect(false, 0, {true, 0}, kNever, kNever, "sweep accepted a stale version");
  expect(true, 1, {true, 1}, 35, 45,
         "failed write read before a later write acked rejected");
  expect(false, 1, {true, 1}, 50, 60,
         "failed write read after a later acked write accepted");
  expect(false, 1, {true, 1}, kNever, kNever,
         "sweep accepted a failed write superseded by an acked one");
  return fails;
}

}  // namespace perfbench
