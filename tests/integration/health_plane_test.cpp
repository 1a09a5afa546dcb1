// Health plane end-to-end: the closed detection loop over a real YCSB run
// (injected fault -> detector flag -> ground-truth join), zero false
// positives on a healthy run, and the observation-only invariant — a run
// with the monitor and flight recorder attached is byte-identical to one
// without them.
#include <gtest/gtest.h>

#include "cluster/fault_schedule.h"
#include "cluster/health_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/sync.h"
#include "testing/fixtures.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

constexpr std::size_t kServers = 5;
constexpr std::size_t kClients = 3;

kv::RpcPolicy test_policy() {
  kv::RpcPolicy policy;
  policy.timeout_ns = 500'000;  // 500 us per attempt
  policy.max_retries = 1;
  policy.backoff_ns = 50'000;
  return policy;
}

cluster::HealthMonitorParams test_monitor_params() {
  cluster::HealthMonitorParams p;
  p.interval_ns = 200 * units::kMicrosecond;
  p.slo_ns = 1 * units::kMillisecond;
  p.detector.min_samples = 4;
  return p;
}

/// Symptom-propagation grace: the 500 us x2 deadline ladder plus a couple
/// of 200 us detector windows.
constexpr SimDur kGraceNs = 2 * units::kMillisecond;

struct PlaneOutcome {
  SimTime makespan = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t rpc_timeouts = 0;
  std::int64_t read_latency_sum = 0;
  std::uint64_t detector_ticks = 0;
  obs::DetectionReport report;
  std::string metrics_json;
};

enum class Fault { kNone, kCrash };

/// Small YCSB-A run, optionally crashing server 1 mid-stream, with the
/// health plane armed (unless `with_plane` is false, for the perturbation
/// check).
PlaneOutcome run_plane_ycsb(std::uint64_t seed, Fault fault,
                            bool with_plane) {
  obs::MetricsRegistry registry;
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(cluster::ClusterConfig{.num_servers = kServers,
                                             .num_clients = kClients});
  cl.enable_server_ec(codec, cost, false);
  cl.set_rpc_policy(test_policy());

  obs::FlightRecorder flight(64);
  if (with_plane) cl.set_flight_recorder(&flight);

  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    resilience::EngineContext ctx = cl.engine_context(c);
    ctx.materialize = false;
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost));
  }
  cl.start();
  cl.register_metrics(registry, "plane");

  cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/200'000);
  obs::FaultLog fault_log;
  faults.set_fault_log(&fault_log);
  if (fault == Fault::kCrash) {
    faults.add_crash(2 * units::kMillisecond, 1);
    faults.add_restart(6 * units::kMillisecond, 1);
    faults.arm();
  }

  cluster::HealthMonitor monitor(cl, test_monitor_params());
  if (with_plane) monitor.arm();

  workload::YcsbConfig cfg;
  cfg.record_count = 150;
  cfg.ops_per_client = 120;
  cfg.value_size = 8192;
  cfg.seed = seed;
  std::vector<workload::YcsbResult> results(kClients);
  sim::Latch done(cl.sim(), kClients);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r, bool load,
                               sim::Latch* done) {
      if (load) co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      co_await workload::ycsb_client(sim, e, c, s, r);
      done->count_down();
    }
  };
  struct Supervisor {
    static sim::Task<void> run(sim::Latch* done, SimTime* end,
                               sim::Simulator* sim,
                               cluster::HealthMonitor* monitor,
                               bool stop_monitor) {
      co_await done->wait();
      *end = sim->now();
      if (stop_monitor) monitor->request_stop();
    }
  };
  for (std::size_t c = 0; c < kClients; ++c) {
    cl.sim().spawn(Proc::run(&cl.sim(), engines[c].get(), cfg, seed + 7 * c,
                             &results[c], c == 0, &done));
  }
  SimTime end = 0;
  cl.sim().spawn(
      Supervisor::run(&done, &end, &cl.sim(), &monitor, with_plane));

  PlaneOutcome out;
  out.makespan = cl.run();
  for (std::size_t c = 0; c < kClients; ++c) {
    out.ops += results[c].reads + results[c].writes;
    out.failures += results[c].failures;
    out.rpc_timeouts += cl.client(c).rpc_stats().timeouts;
    out.read_latency_sum += results[c].read_latency.sum();
  }
  out.detector_ticks = monitor.ticks();
  out.report = obs::analyze_detection(
      fault_log, monitor.detector().transitions(), end, kGraceNs);
  registry.capture();
  out.metrics_json = registry.to_json();
  return out;
}

TEST(HealthPlane, ClosedLoopDetectsInjectedCrash) {
  const PlaneOutcome out = run_plane_ycsb(41, Fault::kCrash, true);
  EXPECT_EQ(out.ops, kClients * 120u);
  ASSERT_EQ(out.report.faults.size(), 1u);  // one onset stamp (the crash)
  EXPECT_TRUE(out.report.faults[0].detected)
      << "injected crash never flagged by the detector";
  EXPECT_EQ(out.report.faults[0].flagged_as, obs::NodeHealthState::kDown);
  // Detection latency: membership lag (200 us) + at most one detector
  // window (200 us) + scheduling slop; far under a second either way.
  EXPECT_GT(out.report.faults[0].latency_ns, 0);
  EXPECT_LT(out.report.faults[0].latency_ns, 2 * units::kMillisecond);
  EXPECT_EQ(out.report.false_positives, 0u);
  EXPECT_GT(out.detector_ticks, 0u);
}

TEST(HealthPlane, HealthyRunRaisesNoFlags) {
  const PlaneOutcome out = run_plane_ycsb(42, Fault::kNone, true);
  EXPECT_EQ(out.ops, kClients * 120u);
  EXPECT_TRUE(out.report.faults.empty());
  EXPECT_EQ(out.report.false_positives, 0u)
      << "detector flagged a node in a fault-free run";
  EXPECT_GT(out.detector_ticks, 0u);
}

TEST(HealthPlane, MonitoringIsObservationOnly) {
  // The whole plane — signals, detector ticker, flight recorder — must not
  // perturb the workload: same seed with and without the plane attached
  // produces byte-identical results, down to the full metrics export.
  // This is the "detector-disabled runs are byte-identical" determinism
  // guarantee the observability docs promise.
  const PlaneOutcome with_plane = run_plane_ycsb(43, Fault::kCrash, true);
  const PlaneOutcome without = run_plane_ycsb(43, Fault::kCrash, false);
  EXPECT_EQ(with_plane.makespan, without.makespan);
  EXPECT_EQ(with_plane.ops, without.ops);
  EXPECT_EQ(with_plane.failures, without.failures);
  EXPECT_EQ(with_plane.rpc_timeouts, without.rpc_timeouts);
  EXPECT_EQ(with_plane.read_latency_sum, without.read_latency_sum);
  ASSERT_EQ(with_plane.metrics_json, without.metrics_json);
  // And the plane actually ran in the monitored variant.
  EXPECT_GT(with_plane.detector_ticks, 0u);
  EXPECT_EQ(without.detector_ticks, 0u);
}

TEST(HealthPlane, SameSeedSamePlaneIsDeterministic) {
  const PlaneOutcome a = run_plane_ycsb(44, Fault::kCrash, true);
  const PlaneOutcome b = run_plane_ycsb(44, Fault::kCrash, true);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.detector_ticks, b.detector_ticks);
  ASSERT_EQ(a.report.faults.size(), b.report.faults.size());
  for (std::size_t i = 0; i < a.report.faults.size(); ++i) {
    EXPECT_EQ(a.report.faults[i].detected_at_ns,
              b.report.faults[i].detected_at_ns);
  }
  ASSERT_EQ(a.metrics_json, b.metrics_json);
}

/// Issues `n` Gets from client 0 to server `server`, one after another.
sim::Task<void> probe_server(cluster::Cluster* cl, std::size_t server,
                             int n) {
  for (int i = 0; i < n; ++i) {
    kv::Request req;
    req.verb = kv::Verb::kGet;
    req.key = "probe" + std::to_string(i);
    (void)co_await cl->client(0).invoke(cl->server_nodes()[server],
                                        std::move(req));
  }
}

// Regression: a monitor and a fault schedule destroyed with actions still
// pending must leave nothing behind. Later runs on the same cluster — with
// responses and timeouts flowing through the rpc/fabric signal hooks —
// must apply no fault and take no tick (and, under ASan, touch no freed
// memory), at one shard and at three.
TEST(HealthPlane, DestroyedPlaneLeavesNoPendingWork) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(shards);
    cluster::Cluster cl(cluster::ClusterConfig{
        .num_servers = kServers, .num_clients = kClients, .shards = shards});
    cl.set_rpc_policy(test_policy());
    obs::FlightRecorder flight(256);
    cl.set_flight_recorder(&flight);
    cl.start();
    obs::FaultLog fault_log;
    {
      cluster::HealthMonitor monitor(cl, test_monitor_params());
      monitor.arm();
      cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/200'000);
      faults.set_fault_log(&fault_log);
      faults.add_crash(1 * units::kMillisecond, 1);
      faults.add_restart(2 * units::kMillisecond, 1);
      faults.arm();
    }
    // Server 2 silently eats every message: the probes to it time out,
    // the probes to server 0 succeed; together they span the dead
    // schedule's crash and restart instants and many monitor intervals.
    cl.fabric().set_node_loss(cl.server_nodes()[2], 1.0);
    cl.sim_for_client(0).spawn([](cluster::Cluster* c) -> sim::Task<void> {
      co_await probe_server(c, 2, 4);
      co_await probe_server(c, 0, 8);
    }(&cl));
    EXPECT_GT(cl.run(), 2 * units::kMillisecond);
    EXPECT_GT(cl.client(0).rpc_stats().timeouts, 0u);
    EXPECT_TRUE(fault_log.stamps().empty());
    EXPECT_TRUE(cl.fabric().node_up(cl.server_nodes()[1]));
    EXPECT_TRUE(cl.membership().up(1));
    cl.merge_obs_domains();
    for (std::size_t n = 0; n < flight.num_nodes(); ++n) {
      for (const obs::FlightRecord& r : flight.events(n)) {
        EXPECT_NE(r.type, obs::FlightEventType::kQueueDepth) << "tick";
        EXPECT_NE(r.type, obs::FlightEventType::kDump) << "crash dump";
      }
    }
  }
}

}  // namespace
}  // namespace hpres
