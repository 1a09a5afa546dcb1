// The one YCSB driver every YCSB harness shares: ycsb_preload() loads the
// record set, ycsb_pass() runs every client's op stream concurrently and
// merges the results. run_ycsb() wraps both around a Testbench for the
// FIG11/FIG12 points; the fault, gray-failure and scale-out harnesses put
// their fault, monitor or placement setup between the two calls.
//
// Scale note: the paper preloads 250K records and runs 2.5K ops on each of
// 150 clients. The simulated runs keep the 150-client concurrency (that is
// what stresses the servers) but scale record/op counts down by default;
// set HPRES_BENCH_SCALE to grow them.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "cluster/fault_schedule.h"
#include "workload/ycsb.h"

namespace hpres::bench {

/// Epoch-invalidated memo of HashRing::primary_index. Primary resolution
/// walks the ring's point map (log |ring| per lookup); workload tooling
/// that classifies many keys against the same ring — e.g. the scale-out
/// bench's moved-key audit — hits the same keys repeatedly. The cache
/// keys validity on the ring's placement epoch, so a join/leave cutover
/// invalidates every memoized owner at once. Host-side only: simulated
/// costs never route through it.
class PrimaryCache {
 public:
  explicit PrimaryCache(const kv::HashRing* ring) : ring_(ring) {}

  [[nodiscard]] std::size_t primary_index(const std::string& key) {
    ++lookups_;
    if (epoch_ != ring_->epoch()) {
      cache_.clear();
      epoch_ = ring_->epoch();
    }
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    const std::size_t owner = ring_->primary_index(key);
    cache_.emplace(key, owner);
    return owner;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }

 private:
  const kv::HashRing* ring_;
  std::uint64_t epoch_ = 0;  ///< epoch the cache entries resolved under
  std::unordered_map<std::string, std::size_t> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
};

/// Every client's engine, indexed by client (Testbench::engines() or a
/// self-assembled harness's own vector).
using Engines = std::vector<std::unique_ptr<resilience::Engine>>;

/// Preloads records [0, record_count), partitioned over min(8, clients)
/// loaders, each on its own client's shard loop; runs to quiescence.
inline void ycsb_preload(cluster::Cluster& cluster, const Engines& engines,
                         const workload::YcsbConfig& cfg) {
  const std::size_t loaders = std::min<std::size_t>(8, engines.size());
  const std::uint64_t stride = (cfg.record_count + loaders - 1) / loaders;
  for (std::size_t l = 0; l < loaders; ++l) {
    const std::uint64_t first = static_cast<std::uint64_t>(l) * stride;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + stride, cfg.record_count);
    if (first >= last) continue;
    sim::Simulator& sim = cluster.sim_for_client(l);
    sim.spawn(workload::ycsb_load(&sim, engines[l].get(), cfg, first, last));
  }
  cluster.run();
}

namespace detail {

/// One client's op stream, stamping its own finish time.
inline sim::Task<void> timed_client(sim::Simulator* sim,
                                    resilience::Engine* engine,
                                    workload::YcsbConfig cfg,
                                    std::uint64_t seed,
                                    workload::YcsbResult* result,
                                    SimTime* finished) {
  co_await workload::ycsb_client(sim, engine, cfg, seed, result);
  *finished = sim->now();
}

}  // namespace detail

/// One measured pass over every client.
struct YcsbPass {
  workload::YcsbResult merged;  ///< all clients
  /// Pass start to the latest client finish: what the client fleet
  /// observes. The quiesced clock would also charge server background
  /// work, migrations and stray RPC timers that outlive the last op.
  SimDur makespan_ns = 0;
  /// Percentile rows ({op, scheme, degraded}, p50..p99.9) over the
  /// engines' latency recorders; the pass clears them first, so preload
  /// ops are excluded.
  std::vector<obs::LatencyRow> latency;

  [[nodiscard]] double throughput_ops_s() const {
    return merged.throughput_ops_per_s(makespan_ns);
  }
  /// Ops resolved OK / ops issued (1.0 for an empty pass).
  [[nodiscard]] double availability() const {
    const double ops = static_cast<double>(merged.reads + merged.writes);
    if (ops <= 0.0) return 1.0;
    return 1.0 - static_cast<double>(merged.failures) / ops;
  }
};

/// Runs every client's op stream concurrently on its own shard loop
/// (client c seeded cfg.seed + 1000 + c) to quiescence. Fault schedules
/// and monitors armed before the call fire from the runtime's quiesce
/// hooks.
inline YcsbPass ycsb_pass(cluster::Cluster& cluster, const Engines& engines,
                          const workload::YcsbConfig& cfg) {
  std::vector<obs::LatencyRecorder*> recorders;
  for (const auto& engine : engines) {
    obs::LatencyRecorder* r = engine->recorder();
    if (r != nullptr && std::find(recorders.begin(), recorders.end(), r) ==
                            recorders.end()) {
      recorders.push_back(r);
    }
  }
  for (obs::LatencyRecorder* r : recorders) r->clear();

  const std::size_t clients = engines.size();
  const SimTime start = cluster.now_quiesced();
  std::vector<workload::YcsbResult> results(clients);
  std::vector<SimTime> finished(clients, start);
  for (std::size_t c = 0; c < clients; ++c) {
    sim::Simulator& sim = cluster.sim_for_client(c);
    sim.spawn(detail::timed_client(&sim, engines[c].get(), cfg,
                                   cfg.seed + 1000 + c, &results[c],
                                   &finished[c]));
  }
  cluster.run();

  YcsbPass pass;
  pass.makespan_ns = *std::max_element(finished.begin(), finished.end()) -
                     start;
  for (const auto& r : results) pass.merged.merge(r);
  obs::LatencyRecorder merged;
  for (const obs::LatencyRecorder* r : recorders) merged.merge(*r);
  pass.latency = merged.rows();
  return pass;
}

/// One run_ycsb point: the measured pass plus engine and runtime totals.
struct YcsbRun : YcsbPass {
  /// Hedging / failure-handling counters summed over all client engines
  /// (measured pass; the preload runs before a fault or hedge can fire).
  std::uint64_t hedged_gets = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_suppressed = 0;
  std::uint64_t hedge_wasted_bytes = 0;
  std::uint64_t failover_fetches = 0;
  std::uint64_t degraded_gets = 0;
  /// Fabric counters at quiescence, merged over all shards (conservation
  /// identities: sent == delivered + dropped, in bytes and messages).
  net::FabricStats fabric;
  /// Simulator events executed over the whole run (all shards).
  std::uint64_t sim_events = 0;
  /// Runtime execution profile (per-shard events / barrier stall / lane
  /// traffic, window advance stats). A hook-free oracle run takes no
  /// round.
  sim::RuntimeProfile profile;

  [[nodiscard]] double avg_read_us() const {
    return units::to_us(
        static_cast<SimDur>(merged.read_latency.mean()));
  }
  [[nodiscard]] double avg_write_us() const {
    return units::to_us(
        static_cast<SimDur>(merged.write_latency.mean()));
  }
};

/// Knobs for run_ycsb beyond the testbed/design/workload triple.
struct YcsbRunOpts {
  std::size_t servers = 5;
  std::size_t clients = 150;
  std::uint32_t rep_factor = 3;
  resilience::ArpeParams arpe = {};
  resilience::HedgeParams hedge = {};
  /// RPC deadline policy armed on every node when set (required for runs
  /// that crash servers mid-op; harmless otherwise).
  std::optional<kv::RpcPolicy> policy;
  /// > 1.0: gray-slow `slow_server` by this compute factor from the start
  /// of the measured pass (the preload runs at full speed).
  double slow_factor = 1.0;
  std::size_t slow_server = 0;
  std::string point_label = {};
  /// Shard count for the parallel runtime. Defaults to the harness-wide
  /// resolution (--shards / HPRES_SHARDS, oracle when unset). Fault
  /// injection works at any count: FaultSchedule applies events from
  /// runtime quiesce points when sharded.
  std::size_t shards = Testbench::kAutoShards;
};

inline YcsbRun run_ycsb(const cluster::Testbed& bed,
                        resilience::Design design,
                        const workload::YcsbConfig& cfg,
                        const YcsbRunOpts& opts = {}) {
  Testbench bench(bed, opts.servers, opts.clients, design, 3, 2,
                  opts.rep_factor, opts.arpe, opts.hedge, opts.point_label,
                  {}, opts.shards);
  if (opts.policy) bench.cluster().set_rpc_policy(*opts.policy);
  cluster::FaultSchedule faults(bench.cluster());
  ycsb_preload(bench.cluster(), bench.engines(), cfg);
  if (opts.slow_factor > 1.0) {
    faults.add_slowdown(bench.cluster().now_quiesced(), opts.slow_server,
                        opts.slow_factor);
    faults.arm();
  }
  YcsbRun run;
  static_cast<YcsbPass&>(run) =
      ycsb_pass(bench.cluster(), bench.engines(), cfg);
  run.fabric = bench.cluster().fabric().stats();
  run.sim_events = bench.cluster().runtime().events_executed();
  run.profile = bench.cluster().runtime().profile();
  for (const auto& engine : bench.engines()) {
    const resilience::EngineStats& eng = engine->stats();
    run.hedged_gets += eng.hedged_gets;
    run.hedges_fired += eng.hedges_fired;
    run.hedge_wins += eng.hedge_wins;
    run.hedges_suppressed += eng.hedges_suppressed;
    run.hedge_wasted_bytes += eng.hedge_wasted_bytes;
    run.failover_fetches += eng.failover_fetches;
    run.degraded_gets += eng.degraded_gets;
  }
  return run;
}

/// Testbed variant that swaps the fabric for IPoIB (the Memc-IPoIB
/// baseline: kernel TCP over the same wires).
inline cluster::Testbed with_ipoib(cluster::Testbed bed) {
  bed.fabric = net::FabricParams::ipoib_qdr();
  return bed;
}

}  // namespace hpres::bench
