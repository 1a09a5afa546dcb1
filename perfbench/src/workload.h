// The benchmark's own `workload` layer: the named workloads, the
// seeded input generator (per-client op streams and (key, version)-derived
// payloads), and the read checker that judges every Get against the
// history of acked writes.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"

namespace perfbench {

using hpres::SimDur;
using hpres::SimTime;

inline constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

struct WorkloadSpec {
  std::string name;
  double read_fraction = 0.5;
  std::size_t value_size = 16 * 1024;
  std::size_t servers = 5;
  std::size_t clients = 150;
  std::uint64_t records = 0;
  std::uint64_t ops_per_client = 0;
  /// Independent clusters per round, each with its own inputs derived from
  /// the seed; their samples and counts pool into one set of metrics.
  std::size_t cells = 1;
  /// Real payloads derived from (key, version), value-checked on read.
  /// False = size-only payloads (one shared zero buffer).
  bool materialize = false;
  /// Crash-with-wipe at pass start, restart mid-pass, repair beside the
  /// foreground traffic, then a quiescent readback of every key.
  bool crash = false;
};

/// The named workloads; nullopt for an unknown name.
[[nodiscard]] std::optional<WorkloadSpec> find_workload(const std::string& name);

struct Op {
  std::uint32_t key = 0;
  std::uint32_t version = 0;  ///< version a write stores (reads: unused)
  bool read = false;
};

/// Everything the program sees, generated from the seed ahead of the run.
struct Inputs {
  std::vector<std::string> keys;          ///< record id -> key
  std::vector<std::vector<Op>> streams;   ///< one op stream per client
  /// payloads[key][version]; version 0 is the preload value. Empty when
  /// the workload is size-only.
  std::vector<std::vector<hpres::SharedBytes>> payloads;
  hpres::SharedBytes zero;  ///< shared size-only value

  [[nodiscard]] std::uint64_t ops() const noexcept;
  [[nodiscard]] const hpres::SharedBytes& value(std::uint32_t key,
                                                std::uint32_t version) const {
    return payloads.empty() ? zero : payloads[key][version];
  }
};

[[nodiscard]] Inputs generate_inputs(const WorkloadSpec& spec,
                                     std::uint64_t seed);

/// Which version of `key` a Get returned: well_formed is false for bytes
/// that are no complete version of that key (torn or corrupt reads).
struct ReadView {
  bool well_formed = false;
  std::uint32_t version = 0;
};

[[nodiscard]] ReadView inspect_read(const Inputs& in, std::uint32_t key,
                                    const hpres::Bytes& value);

/// History of writes per key, and the rules a read must satisfy.
///
/// A read of version v from write W is accepted when W is a well-formed
/// version of the key, W began before the read ended, and no write W'
/// acked before the read began had started after W ended (W' would have
/// superseded W). A write that did not ack OK never supersedes another and
/// may still be read, but its end is its last possible effect: the client's
/// retries are over once it returns, so a later acked write supersedes it.
/// The preload (version 0) starts and acks at time 0.
class HistoryChecker {
 public:
  explicit HistoryChecker(std::size_t keys) : writes_(keys) {}

  /// Records the write of `version` over [start, end] (versions of one key
  /// are added in any order); `acked` is false when it did not ack OK.
  void add_write(std::uint32_t key, std::uint32_t version, SimTime start,
                 SimTime end, bool acked);

  /// Empty when the read is accepted, else the reason. A quiescent
  /// readback passes start = end = kNever.
  [[nodiscard]] std::string check_read(std::uint32_t key, ReadView read,
                                       SimTime start, SimTime end) const;

 private:
  struct Write {
    SimTime start = kNever;
    SimTime end = kNever;
    bool acked = false;
    bool known = false;
  };
  std::vector<std::vector<Write>> writes_;  ///< [key][version]
};

}  // namespace perfbench
