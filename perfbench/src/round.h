// One round of a workload: for each of its cells, generate the inputs,
// build and preload a cluster, run the measured pass and verify; then pool
// the cells into every metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RoundResult {
  /// Simulated-clock values and exact counts: a pure function of the
  /// workload and the seed, so every round of one run
  /// must reproduce them bit for bit.
  std::map<std::string, double> sim;
  /// Host-clock values (seconds, nanoseconds, rates), one map per cell,
  /// read on the round thread's CPU clock.
  std::vector<std::map<std::string, double>> host;
  /// Critical-path phase means of a traced round, in simulated ns.
  std::map<std::string, double> trace;
  /// One line per read-check violation (key, client, op index, reason).
  std::vector<std::string> violations;
  /// Correctness gates that failed; any entry fails the run.
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] RoundResult run_round(const WorkloadSpec& spec,
                                    std::uint64_t seed, bool traced);

}  // namespace perfbench
