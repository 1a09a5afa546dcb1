#include "workload.h"

#include <cstring>

#include "common/rng.h"
#include "workload/ycsb.h"
#include "workload/zipf.h"

namespace perfbench {

namespace {

constexpr std::size_t kHeaderBytes = 16;  // key id, version (little endian)

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

hpres::SharedBytes make_payload(std::size_t size, std::uint64_t seed,
                                std::uint32_t key, std::uint32_t version) {
  hpres::Bytes b(size);
  const std::uint64_t key64 = key;
  const std::uint64_t version64 = version;
  std::memcpy(b.data(), &key64, sizeof key64);
  std::memcpy(b.data() + 8, &version64, sizeof version64);
  hpres::fill_pattern(
      hpres::ByteSpan(b).subspan(kHeaderBytes),
      hpres::splitmix64(seed ^ hpres::splitmix64((key64 << 32) | version64)));
  return hpres::make_shared_bytes(std::move(b));
}

}  // namespace

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "ycsb-a-16k") {
    s.read_fraction = 0.5;
    s.value_size = 16 * 1024;
    s.records = 10'000;
    s.ops_per_client = 200;
  } else if (name == "ycsb-b-4k-crash-repair") {
    s.read_fraction = 0.95;
    s.value_size = 4 * 1024;
    s.records = 2'000;
    s.ops_per_client = 160;
    s.cells = 4;
    s.materialize = true;
    s.crash = true;
  } else {
    return std::nullopt;
  }
  return s;
}

std::uint64_t Inputs::ops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.keys.reserve(spec.records);
  for (std::uint64_t id = 0; id < spec.records; ++id) {
    in.keys.push_back(hpres::workload::ycsb_key(id, 16));
  }
  const hpres::workload::ScrambledZipfianGenerator keygen(spec.records);
  std::vector<std::uint32_t> next_version(spec.records, 0);
  in.streams.resize(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    hpres::Xoshiro256 rng(hpres::splitmix64(seed * 0x9E3779B97F4A7C15ULL + c));
    std::vector<Op>& stream = in.streams[c];
    stream.reserve(spec.ops_per_client);
    for (std::uint64_t i = 0; i < spec.ops_per_client; ++i) {
      Op op;
      op.key = static_cast<std::uint32_t>(keygen.next(rng));
      op.read = rng.next_double() < spec.read_fraction;
      if (!op.read) op.version = ++next_version[op.key];
      stream.push_back(op);
    }
  }
  if (spec.materialize) {
    in.payloads.resize(spec.records);
    for (std::uint32_t key = 0; key < spec.records; ++key) {
      auto& versions = in.payloads[key];
      versions.reserve(next_version[key] + 1);
      for (std::uint32_t v = 0; v <= next_version[key]; ++v) {
        versions.push_back(make_payload(spec.value_size, seed, key, v));
      }
    }
  } else {
    in.zero = hpres::zero_bytes(spec.value_size);
  }
  return in;
}

ReadView inspect_read(const Inputs& in, std::uint32_t key,
                      const hpres::Bytes& value) {
  ReadView view;
  if (value.size() < kHeaderBytes || key >= in.payloads.size()) return view;
  const std::uint64_t got_key = load_u64(value.data());
  const std::uint64_t got_version = load_u64(value.data() + 8);
  const auto& versions = in.payloads[key];
  if (got_key != key || got_version >= versions.size()) return view;
  const hpres::Bytes& expect = *versions[got_version];
  view.version = static_cast<std::uint32_t>(got_version);
  view.well_formed = value.size() == expect.size() &&
                     std::memcmp(value.data(), expect.data(), value.size()) == 0;
  return view;
}

void HistoryChecker::add_write(std::uint32_t key, std::uint32_t version,
                               SimTime start, SimTime end, bool acked) {
  auto& w = writes_.at(key);
  if (w.size() <= version) w.resize(version + 1);
  w[version] = Write{start, end, acked, true};
}

std::string HistoryChecker::check_read(std::uint32_t key, ReadView read,
                                       SimTime start, SimTime end) const {
  if (!read.well_formed) return "torn or corrupt value";
  const auto& w = writes_.at(key);
  if (read.version >= w.size() || !w[read.version].known) {
    return "version " + std::to_string(read.version) + " was never written";
  }
  const Write& got = w[read.version];
  if (got.start > end) {
    return "version " + std::to_string(read.version) +
           " was written after the read ended";
  }
  for (std::size_t v = 0; v < w.size(); ++v) {
    const Write& other = w[v];
    if (other.known && other.acked && other.end < start &&
        other.start > got.end) {
      return "stale: read version " + std::to_string(read.version) +
             " but version " + std::to_string(v) +
             " was acked before the read began";
    }
  }
  return {};
}

}  // namespace perfbench
