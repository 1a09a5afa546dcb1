// The repo benchmark. One invocation runs one named workload for a fixed
// host-time budget and prints every metric by name with its unit and the
// sample count it rests on; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats whole rounds (generate inputs, build, preload, measured
// pass, verify) until the budget is spent. Simulated-clock metrics must be
// bit-identical across rounds; host-clock metrics are medians over every
// cell (one cluster each) of every round, on the round thread's CPU clock.
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, and one extra traced round supplies the
// critical-path phases and the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "round.h"
#include "selftest.h"

namespace {

using perfbench::RoundResult;

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced rounds).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"host_kops_per_s", "kops/s"},
    {"peak_rss_mib", "MiB"},    {"sim_kops", "kops/s"},
    {"get_p50_us", "us"},       {"get_p99_us", "us"},
    {"set_p50_us", "us"},       {"set_p99_us", "us"},
};

// Per-layer metrics (--trace 1), besides the `<layer>.cp.*` phases.
constexpr Metric kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.run_host_s", "s"},
    {"sim.shard_stall_frac", "ratio"},
    {"sim.shard_rounds_per_op", "count"},
    {"sim.cross_shard_msgs_per_op", "count"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_user_byte", "B/B"},
    {"net.rendezvous_per_op", "count"},
    {"net.dropped_msgs", "count"},
    {"kv.rpc_timeouts", "count"},
    {"kv.rpc_retries", "count"},
    {"kv.rpc_expired_calls", "count"},
    {"kv.store_hit_ratio", "ratio"},
    {"kv.store_items", "count"},
    {"kv.stored_bytes_per_user_byte", "B/B"},
    {"ec.encode_calls", "count"},
    {"ec.encode_host_ns", "ns"},
    {"ec.encode_mb_per_s", "MB/s"},
    {"ec.decode_calls", "count"},
    {"ec.decode_host_ns", "ns"},
    {"ec.decode_mb_per_s", "MB/s"},
    {"ec.sim_compute_ns_per_op", "ns"},
    {"resilience.degraded_get_frac", "ratio"},
    {"resilience.failover_fetches", "count"},
    {"resilience.hedges_fired", "count"},
    {"resilience.hedge_win_ratio", "ratio"},
    {"resilience.hedge_wasted_bytes", "B"},
    {"resilience.set_wait_ns_per_op", "ns"},
    {"resilience.get_wait_ns_per_op", "ns"},
    {"resilience.arpe_window_waits", "count"},
    {"resilience.bufpool_high_water", "count"},
    {"resilience.repair_fragments_rebuilt", "count"},
    {"resilience.repair_read_bytes_per_rebuilt_byte", "B/B"},
    {"resilience.repair_host_s", "s"},
    {"resilience.repair_ms", "ms"},
    {"cluster.build_host_s", "s"},
    {"cluster.preload_host_s", "s"},
    {"workload.gen_host_s", "s"},
    {"workload.verify_host_s", "s"},
    {"workload.wrong_reads", "count"},
    {"workload.sweep_mismatches", "count"},
    {"workload.failed_op_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_spans", "count"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median of a host-clock value over every cell of `rounds`.
double host_median(const std::vector<RoundResult>& rounds,
                   const std::string& name) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    for (const auto& cell : r.host) v.push_back(cell.at(name));
  }
  return median(v);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Names a simulated-clock value on which two rounds disagree.
std::string first_sim_difference(const RoundResult& a, const RoundResult& b) {
  if (a.sim.size() != b.sim.size()) return "metric set";
  for (const auto& [name, value] : a.sim) {
    const auto it = b.sim.find(name);
    if (it == b.sim.end() || it->second != value) return name;
  }
  return {};
}

void append_json_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ycsb-a-16k|ycsb-b-4k-crash-repair> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      traced = std::string_view(value) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const std::optional<perfbench::WorkloadSpec> spec =
      perfbench::find_workload(workload);
  if (!spec || seconds <= 0.0) return usage();

  std::vector<std::string> gate_failures = perfbench::checker_failures();
  for (std::string& f : perfbench::codec_transparency_failures(seed)) {
    gate_failures.push_back("timing codec: " + f);
  }

  std::printf("workload %s seed %llu: %zu servers x %zu clients, "
              "%llu records x %zu B, %llu ops/client, read fraction %.2f\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              spec->servers, spec->clients,
              static_cast<unsigned long long>(spec->records), spec->value_size,
              static_cast<unsigned long long>(spec->ops_per_client),
              spec->read_fraction);

  // Untraced rounds until the budget is spent (at least two, so the
  // bit-identity gate always has a pair to compare).
  std::vector<RoundResult> rounds;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (rounds.size() < 2 || std::chrono::steady_clock::now() < deadline) {
    rounds.push_back(perfbench::run_round(*spec, seed, /*traced=*/false));
    const std::string diff = first_sim_difference(rounds.front(), rounds.back());
    if (!diff.empty()) {
      gate_failures.push_back("round " + std::to_string(rounds.size()) +
                              " is not bit-identical to round 1 (" + diff + ")");
    }
  }
  const RoundResult& first = rounds.front();
  std::printf("per cell: host_kops_per_s / setup_s =");
  for (const RoundResult& r : rounds) {
    for (const auto& cell : r.host) {
      std::printf(" %.2f/%.3f", cell.at("host_kops_per_s"), cell.at("setup_s"));
    }
  }
  std::printf("\n");
  for (const RoundResult& r : rounds) {
    gate_failures.insert(gate_failures.end(), r.gate_failures.begin(),
                         r.gate_failures.end());
  }
  const double rss = peak_rss_mib();
  const double pass_s = host_median(rounds, "sim.run_host_s");

  std::optional<RoundResult> traced_round;
  if (traced) {
    traced_round = perfbench::run_round(*spec, seed, /*traced=*/true);
    gate_failures.insert(gate_failures.end(),
                         traced_round->gate_failures.begin(),
                         traced_round->gate_failures.end());
    const std::string diff = first_sim_difference(first, *traced_round);
    if (!diff.empty()) {
      gate_failures.push_back("traced round changed simulated metric " + diff);
    }
  }

  for (const std::string& v : first.violations) std::printf("%s\n", v.c_str());
  const double n_rounds = static_cast<double>(rounds.size());
  const double ops = first.sim.at("ops");
  std::printf("\n%zu untraced rounds of %zu cell(s), %.0f ops each; host "
              "metrics are cell medians, simulated metrics repeat exactly\n",
              rounds.size(), spec->cells, ops);
  std::printf("  attempted %llu, failed %llu (failed_op_frac %.6g)\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              first.sim.at("workload.failed_op_frac"));

  std::string json;
  const auto emit = [&json](const std::string& name, double value,
                            const char* unit) {
    if (json.size() > 1) json += ", ";
    json += "\"" + name + "\": {\"value\": ";
    append_json_number(json, value);
    json += ", \"unit\": \"" + std::string(unit) + "\"}";
  };
  json = "{";
  if (!traced) {
    for (const Metric& m : kEndToEnd) {
      const std::string name = m.name;
      double value = 0.0;
      std::string samples;
      if (name == "peak_rss_mib") {
        value = rss;
        samples = "process high-water over all rounds";
      } else if (first.host.front().count(name) != 0) {
        value = host_median(rounds, name);
        samples = "median of " + std::to_string(rounds.size() * spec->cells) +
                  " cells";
      } else {
        value = first.sim.at(name);
        const std::string op = name.substr(0, 3);
        samples = name == "sim_kops"
                      ? std::to_string(static_cast<long long>(ops)) + " ops"
                      : std::to_string(static_cast<long long>(
                            first.sim.at(op + "_samples"))) +
                            " " + op + "s";
      }
      std::printf("  %-22s %14.4f %-7s (%s)\n", m.name, value, m.unit,
                  samples.c_str());
      emit(name, value, m.unit);
    }
    for (const char* name : {"get_mean_us", "set_mean_us"}) {
      std::printf("  %-22s %14.4f %-7s (printed only)\n", name,
                  first.sim.at(name), "us");
    }
    std::printf("  %-22s %14.4f %-7s (simulated; crash workload only)\n",
                "repair_ms", first.sim.at("resilience.repair_ms"), "ms");
    std::printf("  %-22s %14.6f %-7s (over %llu attempted ops)\n",
                "failed_op_frac", first.sim.at("workload.failed_op_frac"),
                "ratio", static_cast<unsigned long long>(first.attempted));
  } else {
    std::map<std::string, double> values;
    for (const auto& [k, v] : first.sim) values[k] = v;
    for (const auto& [k, v] : first.host.front()) {
      values[k] = host_median(rounds, k);
    }
    values["obs.trace_overhead_frac"] =
        pass_s > 0.0
            ? host_median({*traced_round}, "sim.run_host_s") / pass_s - 1.0
            : 0.0;
    for (const auto& [k, v] : traced_round->trace) values[k] = v;
    for (const Metric& m : kPerLayer) {
      std::printf("  %-46s %16.4f %s\n", m.name, values.at(m.name), m.unit);
      emit(m.name, values.at(m.name), m.unit);
    }
    for (const auto& [k, v] : traced_round->trace) {
      if (k == "obs.trace_spans") continue;
      std::printf("  %-46s %16.4f ns\n", k.c_str(), v);
      emit(k, v, "ns");
    }
    std::printf("  (host timings: median of %.0f untraced cells; critical "
                "path: one traced round)\n",
                n_rounds * static_cast<double>(spec->cells));
  }
  json += "}";

  for (const std::string& g : gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }
  const bool correct = gate_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed), json.c_str());
  return correct ? 0 : 1;
}
