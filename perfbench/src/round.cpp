#include "round.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "cluster/fault_schedule.h"
#include "cluster/testbeds.h"
#include "ec/rs_vandermonde.h"
#include "obs/critical_path.h"
#include "resilience/factory.h"
#include "resilience/repair.h"
#include "timing_codec.h"

namespace perfbench {

namespace {

using namespace hpres;  // NOLINT(google-build-using-namespace)

// Crash-workload fault timeline (simulated time from the pass start).
constexpr std::size_t kCrashedServer = 1;
// The crash lands once every client has requests in flight, so dropped
// requests resolve through RPC deadlines and retries.
constexpr SimDur kCrashAfterNs = 100'000;
constexpr SimDur kDetectionLagNs = 500'000;       // membership learns late
constexpr SimDur kRestartAfterNs = 5'000'000;     // mid-pass restart
constexpr std::size_t kLoaders = 8;
constexpr std::size_t kPreloadDepth = 64;         // iset pipeline per loader

kv::RpcPolicy crash_rpc_policy() {
  kv::RpcPolicy policy;
  policy.timeout_ns = 2'000'000;  // 2 ms per attempt
  policy.max_retries = 2;
  policy.backoff_ns = 200'000;    // 200 us, doubling
  return policy;
}

/// CPU time of the calling thread, in seconds. A round runs on one thread
/// (the oracle event loop), so host times read on this clock leave out the
/// time the thread was descheduled or stolen by the hypervisor, which
/// depends on other load on the host and not on the code measured.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct OpRecord {
  SimTime start = 0;
  SimTime end = 0;
  StatusCode code = StatusCode::kOk;
  ReadView read;
};

struct ClientLog {
  std::vector<OpRecord> ops;
  double check_s = 0.0;  ///< host time spent inspecting read bytes
};

sim::Task<void> client_proc(sim::Simulator* sim, resilience::Engine* engine,
                            const Inputs* in, std::size_t client,
                            bool materialize, ClientLog* log) {
  const std::vector<Op>& stream = in->streams[client];
  log->ops.reserve(stream.size());
  for (const Op& op : stream) {
    OpRecord rec;
    rec.start = sim->now();
    if (op.read) {
      const Result<Bytes> r = co_await engine->get(in->keys[op.key]);
      rec.code = r.ok() ? StatusCode::kOk : r.status().code();
      if (r.ok() && materialize) {
        const double t0 = thread_cpu_s();
        rec.read = inspect_read(*in, op.key, *r);
        log->check_s += thread_cpu_s() - t0;
      }
    } else {
      const Status s =
          co_await engine->set(in->keys[op.key], in->value(op.key, op.version));
      rec.code = s.code();
    }
    rec.end = sim->now();
    log->ops.push_back(rec);
  }
}

sim::Task<void> loader_proc(resilience::Engine* engine, const Inputs* in,
                            std::uint32_t first, std::uint32_t last,
                            std::uint64_t* failures) {
  std::vector<sim::Future<Status>> batch;
  for (std::uint32_t key = first; key < last; ++key) {
    batch.push_back(engine->iset(in->keys[key], in->value(key, 0)));
    if (batch.size() == kPreloadDepth || key + 1 == last) {
      for (const auto& f : batch) {
        if (!(co_await f.wait()).ok()) ++*failures;
      }
      batch.clear();
    }
  }
}

struct RepairOut {
  SimTime end = 0;
  double host_s = 0.0;
  Status status;
  bool ran = false;
};

sim::Task<void> repair_proc(sim::Simulator* sim, SimTime at,
                            resilience::RepairCoordinator* repair,
                            RepairOut* out) {
  co_await sim->delay(at - sim->now());
  const double t0 = thread_cpu_s();
  out->status = co_await repair->repair_all();
  out->host_s = thread_cpu_s() - t0;
  out->end = sim->now();
  out->ran = true;
}

struct SweepRec {
  StatusCode code = StatusCode::kOk;
  ReadView read;
};

sim::Task<void> sweep_proc(resilience::Engine* engine, const Inputs* in,
                           std::uint32_t first, std::uint32_t last,
                           std::vector<SweepRec>* out) {
  for (std::uint32_t key = first; key < last; ++key) {
    const Result<Bytes> r = co_await engine->get(in->keys[key]);
    SweepRec& rec = (*out)[key];
    rec.code = r.ok() ? StatusCode::kOk : r.status().code();
    if (r.ok()) rec.read = inspect_read(*in, key, *r);
  }
}

/// Named layer counters summed over the cluster: cumulative at a snapshot,
/// pass deltas through add_delta(). Every value is an exact simulated count.
using Counts = std::map<std::string, std::uint64_t>;

Counts snapshot(cluster::Cluster& cl,
                const std::vector<std::unique_ptr<resilience::Engine>>& engines,
                const TimingCodec& codec) {
  Counts c;
  const net::FabricStats& f = cl.fabric().stats();
  c["fabric.messages_sent"] = f.messages_sent;
  c["fabric.messages_dropped"] = f.messages_dropped;
  c["fabric.bytes_sent"] = f.bytes_sent;
  c["fabric.rendezvous"] = f.rendezvous_handshakes;
  const sim::RuntimeProfile prof = cl.runtime().profile();
  c["sim.events"] = prof.total_events();
  c["sim.rounds"] = prof.rounds;
  for (const sim::ShardProfile& sp : prof.per_shard) {
    c["sim.cross_shard_msgs"] += sp.msgs_out;
  }
  for (const auto& e : engines) {
    const resilience::EngineStats& s = e->stats();
    c["engine.sets"] += s.sets;
    c["engine.gets"] += s.gets;
    c["engine.degraded_gets"] += s.degraded_gets;
    c["engine.failover_fetches"] += s.failover_fetches;
    c["engine.hedges_fired"] += s.hedges_fired;
    c["engine.hedge_wins"] += s.hedge_wins;
    c["engine.hedge_wasted_bytes"] += s.hedge_wasted_bytes;
    c["engine.compute_ns"] +=
        static_cast<std::uint64_t>(s.set_phases.compute_ns + s.get_phases.compute_ns);
    c["engine.set_wait_ns"] += static_cast<std::uint64_t>(s.set_phases.wait_ns);
    c["engine.get_wait_ns"] += static_cast<std::uint64_t>(s.get_phases.wait_ns);
    c["arpe.window_waits"] += e->arpe().stats().window_waits;
  }
  const auto add_rpc = [&c](const kv::RpcStats& r) {
    c["rpc.timeouts"] += r.timeouts;
    c["rpc.retries"] += r.retries;
    c["rpc.expired_calls"] += r.expired_calls;
  };
  for (std::size_t i = 0; i < cl.num_clients(); ++i) {
    add_rpc(cl.client(i).rpc_stats());
  }
  for (std::size_t i = 0; i < cl.num_servers(); ++i) {
    add_rpc(cl.server(i).rpc_stats());
    c["store.hits"] += cl.server(i).store().stats().hits;
    c["store.misses"] += cl.server(i).store().stats().misses;
  }
  const CodecCounters cc = codec.counters();
  c["ec.encode_calls"] = cc.encode_calls;
  c["ec.encode_bytes"] = cc.encode_bytes;
  c["ec.decode_calls"] = cc.decode_calls;
  c["ec.decode_bytes"] = cc.decode_bytes;
  return c;
}

/// Adds `after - before` into `acc`, key by key.
void add_delta(Counts& acc, const Counts& after, const Counts& before) {
  for (const auto& [name, value] : after) acc[name] += value - before.at(name);
}

void set_tracing(cluster::Cluster& cl, obs::Tracer& root, bool on) {
  root.set_enabled(on);
  for (std::size_t s = 0; s < cl.num_shards(); ++s) {
    if (obs::Tracer* t = cl.tracer_domain(s); t != nullptr) t->set_enabled(on);
  }
}

/// Nearest-rank percentile of sorted samples, in microseconds.
double percentile_us(const std::vector<SimDur>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return units::to_us(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double mean_us(const std::vector<SimDur>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const SimDur d : samples) sum += static_cast<double>(d);
  return sum / static_cast<double>(samples.size()) / 1e3;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Layer that owns each critical-path phase, for the `<layer>.cp.*` names.
const char* phase_layer(obs::Phase p) {
  switch (p) {
    case obs::Phase::kEncode:
    case obs::Phase::kDecode: return "ec";
    case obs::Phase::kFanout:
    case obs::Phase::kNet: return "net";
    case obs::Phase::kQueue:
    case obs::Phase::kServer: return "kv";
    case obs::Phase::kSerialize:
    case obs::Phase::kWaitK:
    case obs::Phase::kOther: return "resilience";
  }
  return "?";
}

/// Mean critical-path phases per op type, over all ops and over the
/// slowest 1%, filed under the layer that owns each phase.
void add_critical_path(const std::vector<obs::OpAttribution>& all_ops,
                       std::map<std::string, double>& out) {
  for (const char* op : {"get", "set"}) {
    std::vector<obs::OpAttribution> ops;
    for (const obs::OpAttribution& a : all_ops) {
      if (a.op == op) ops.push_back(a);
    }
    obs::PhaseAggregate all;
    for (const auto& a : ops) all.add(a);
    obs::PhaseAggregate tail;
    for (const obs::OpAttribution* a : obs::slowest_fraction(ops, 0.01)) {
      tail.add(*a);
    }
    const auto mean = [](const obs::PhaseAggregate& agg, obs::Phase p) {
      return agg.count == 0 ? 0.0
                            : static_cast<double>(agg.phase(p)) /
                                  static_cast<double>(agg.count);
    };
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      const auto p = static_cast<obs::Phase>(i);
      const std::string name = std::string(phase_layer(p)) + ".cp." + op +
                               "." + std::string(obs::to_string(p));
      out[name + "_ns"] = mean(all, p);
      out[name + "_tail_ns"] = mean(tail, p);
    }
  }
}

/// Everything one cell contributes to its round; cells pool by summing.
struct CellOut {
  std::vector<SimDur> get_lat;
  std::vector<SimDur> set_lat;
  std::uint64_t ops = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t wrong_reads = 0;
  std::uint64_t sweep_reads = 0;
  std::uint64_t sweep_mismatches = 0;
  SimDur makespan = 0;
  Counts counts;  ///< pass deltas plus end-of-cell store and repair levels
  std::uint32_t bufpool_high_water = 0;
  SimDur repair_ns = 0;
  std::vector<obs::OpAttribution> cp_ops;
};

/// One independent cluster: inputs from `seed`, build, preload, measured
/// pass, verification. The cell's host times go into a new entry of
/// `res.host`; violations and gate failures append to `res`, tagged with
/// `tag`.
void run_cell(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
              const std::string& tag, RoundResult& res, CellOut& out) {
  std::map<std::string, double>& host = res.host.emplace_back();
  for (const char* name :
       {"workload.gen_host_s", "cluster.build_host_s", "cluster.preload_host_s",
        "sim.run_host_s", "workload.verify_host_s", "ec.encode_host_ns",
        "ec.decode_host_ns", "sim.shard_stall_frac",
        "resilience.repair_host_s"}) {
    host[name] = 0.0;
  }

  // --- set-up: inputs, cluster build, preload ------------------------------
  double t0 = thread_cpu_s();
  const Inputs in = generate_inputs(spec, seed);
  host["workload.gen_host_s"] += thread_cpu_s() - t0;

  t0 = thread_cpu_s();
  const cluster::Testbed bed = cluster::sdsc_comet();
  // The crash workload adds one client node for the repair coordinator.
  cluster::ClusterConfig cfg = cluster::make_config(
      bed, spec.servers, spec.clients + (spec.crash ? 1 : 0));
  const ec::RsVandermondeCodec base_codec(3, 2);
  const TimingCodec codec(base_codec);
  const ec::CostModel cost = ec::CostModel::defaults(
      ec::Scheme::kRsVandermonde, 3, 2, bed.cpu_factor);
  obs::Tracer tracer(traced);
  cluster::Cluster cl(cfg);
  if (spec.crash) cl.set_rpc_policy(crash_rpc_policy());
  cl.enable_server_ec(codec, cost, spec.materialize);
  std::uint32_t pid = 0;
  if (traced) {
    pid = tracer.declare_process(spec.name);
    cl.set_tracer(&tracer, pid);
    set_tracing(cl, tracer, false);  // the preload is not traced
  }
  resilience::HedgeParams hedge;
  if (spec.crash) {  // runbook hedged reads (docs/OPERATIONS.md)
    hedge.delta = 1;
    hedge.load_aware = true;
  }
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  engines.reserve(spec.clients);
  for (std::size_t i = 0; i < spec.clients; ++i) {
    resilience::EngineContext ctx;
    ctx.sim = &cl.sim_for_client(i);
    ctx.client = &cl.client(i);
    ctx.ring = &cl.ring();
    ctx.membership = &cl.membership();
    ctx.server_nodes = &cl.server_nodes();
    ctx.materialize = spec.materialize;
    ctx.tracer = cl.tracer_for_client(i);
    ctx.trace_pid = pid;
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost, {}, hedge));
  }
  cl.start();
  host["cluster.build_host_s"] += thread_cpu_s() - t0;

  t0 = thread_cpu_s();
  std::uint64_t preload_failures = 0;
  const std::uint64_t stride = (spec.records + kLoaders - 1) / kLoaders;
  for (std::size_t l = 0; l < kLoaders; ++l) {
    const std::uint64_t first = l * stride;
    const std::uint64_t last = std::min(first + stride, spec.records);
    if (first >= last) continue;
    cl.sim_for_client(l).spawn(loader_proc(
        engines[l].get(), &in, static_cast<std::uint32_t>(first),
        static_cast<std::uint32_t>(last), &preload_failures));
  }
  cl.run();
  host["cluster.preload_host_s"] += thread_cpu_s() - t0;
  if (preload_failures != 0) {
    res.gate_failures.push_back(tag + std::to_string(preload_failures) +
                                " preload sets failed");
  }

  // --- measured pass --------------------------------------------------------
  const Counts before = snapshot(cl, engines, codec);
  const CodecCounters codec_before = codec.counters();
  const SimTime start = cl.now_quiesced();
  std::optional<cluster::FaultSchedule> faults;
  std::unique_ptr<resilience::RepairCoordinator> repair;
  RepairOut repair_out;
  if (spec.crash) {
    faults.emplace(cl, kDetectionLagNs);
    faults->add_crash(start + kCrashAfterNs, kCrashedServer,
                      /*wipe_store=*/true);
    faults->add_restart(start + kRestartAfterNs, kCrashedServer);
    faults->arm();
    resilience::EngineContext ctx;
    ctx.sim = &cl.sim_for_client(spec.clients);
    ctx.client = &cl.client(spec.clients);
    ctx.ring = &cl.ring();
    ctx.membership = &cl.membership();
    ctx.server_nodes = &cl.server_nodes();
    ctx.materialize = spec.materialize;
    repair = std::make_unique<resilience::RepairCoordinator>(ctx, codec, cost);
    // Repair starts once membership has seen the restart.
    ctx.sim->spawn(repair_proc(ctx.sim,
                               start + kRestartAfterNs + 2 * kDetectionLagNs,
                               repair.get(), &repair_out));
  }
  if (traced) set_tracing(cl, tracer, true);
  std::vector<ClientLog> logs(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    cl.sim_for_client(c).spawn(client_proc(&cl.sim_for_client(c),
                                           engines[c].get(), &in, c,
                                           spec.materialize, &logs[c]));
  }
  t0 = thread_cpu_s();
  cl.run();
  const double pass_s = thread_cpu_s() - t0;
  // Checking read bytes inside the client coroutines is verification, not
  // pass work: it moves from the pass time to workload.verify_host_s.
  double inline_check_s = 0.0;
  for (const ClientLog& log : logs) inline_check_s += log.check_s;
  host["sim.run_host_s"] += pass_s - inline_check_s;
  if (traced) set_tracing(cl, tracer, false);
  add_delta(out.counts, snapshot(cl, engines, codec), before);
  const CodecCounters codec_after = codec.counters();
  host["ec.encode_host_ns"] +=
      static_cast<double>(codec_after.encode_ns - codec_before.encode_ns);
  host["ec.decode_host_ns"] +=
      static_cast<double>(codec_after.decode_ns - codec_before.decode_ns);
  // Zero on the single-shard (oracle) runtime every workload uses.
  for (const sim::ShardProfile& sp : cl.runtime().profile().per_shard) {
    host["sim.shard_stall_frac"] = std::max(
        host["sim.shard_stall_frac"], sim::RuntimeProfile::stall_fraction(sp));
  }
  for (const auto& e : engines) {
    out.bufpool_high_water =
        std::max(out.bufpool_high_water, e->arpe().buffer_stats().high_water);
  }

  // --- verification ---------------------------------------------------------
  t0 = thread_cpu_s();
  SimTime last_end = start;
  HistoryChecker history(spec.records);
  for (std::uint32_t key = 0; key < spec.records; ++key) {
    history.add_write(key, 0, 0, 0, true);  // preload acked before the pass
  }
  const auto where = [&](std::size_t c, std::size_t i, const OpRecord& r) {
    return " client " + std::to_string(c) + " op " + std::to_string(i) +
           " at +" + std::to_string(r.start - start) + " ns: ";
  };
  for (std::size_t c = 0; c < spec.clients; ++c) {
    const ClientLog& log = logs[c];
    if (log.ops.size() != in.streams[c].size()) {
      res.gate_failures.push_back(
          tag + "client " + std::to_string(c) + " completed " +
          std::to_string(log.ops.size()) + " of " +
          std::to_string(in.streams[c].size()) + " ops");
    }
    for (std::size_t i = 0; i < log.ops.size(); ++i) {
      const OpRecord& r = log.ops[i];
      const Op& op = in.streams[c][i];
      ++out.ops;
      last_end = std::max(last_end, r.end);
      (op.read ? out.get_lat : out.set_lat).push_back(r.end - r.start);
      if (r.code != StatusCode::kOk) {
        ++out.bad_status;
        res.violations.push_back(tag + "failed " +
                                 (op.read ? "get" : "set") + ": key " +
                                 in.keys[op.key] + where(c, i, r) + "status " +
                                 std::string(to_string(r.code)));
      }
      if (!op.read) {
        history.add_write(op.key, op.version, r.start, r.end,
                          r.code == StatusCode::kOk);
      }
    }
  }
  if (out.ops != in.ops()) {
    res.gate_failures.push_back(tag + "attempted " + std::to_string(out.ops) +
                                " ops but generated " +
                                std::to_string(in.ops()));
  }
  if (spec.materialize) {
    for (std::size_t c = 0; c < spec.clients; ++c) {
      for (std::size_t i = 0; i < logs[c].ops.size(); ++i) {
        const OpRecord& r = logs[c].ops[i];
        const Op& op = in.streams[c][i];
        if (!op.read || r.code != StatusCode::kOk) continue;
        const std::string why =
            history.check_read(op.key, r.read, r.start, r.end);
        if (why.empty()) continue;
        ++out.wrong_reads;
        res.violations.push_back(tag + "wrong read: key " + in.keys[op.key] +
                                 where(c, i, r) + why);
      }
    }
  }
  if (spec.crash) {
    // Quiescent readback: every key must return its last acked version.
    std::vector<SweepRec> sweep(spec.records);
    for (std::size_t l = 0; l < kLoaders; ++l) {
      const std::uint64_t first = l * stride;
      const std::uint64_t last = std::min(first + stride, spec.records);
      if (first >= last) continue;
      cl.sim_for_client(l).spawn(sweep_proc(
          engines[l].get(), &in, static_cast<std::uint32_t>(first),
          static_cast<std::uint32_t>(last), &sweep));
    }
    cl.run();
    for (std::uint32_t key = 0; key < spec.records; ++key) {
      ++out.sweep_reads;
      const std::string why =
          sweep[key].code == StatusCode::kOk
              ? history.check_read(key, sweep[key].read, kNever, kNever)
              : "status " + std::string(to_string(sweep[key].code));
      if (why.empty()) continue;
      ++out.sweep_mismatches;
      res.violations.push_back(tag + "sweep mismatch: key " + in.keys[key] +
                               ": " + why);
    }
  }
  host["workload.verify_host_s"] += thread_cpu_s() - t0 + inline_check_s;
  out.makespan = last_end - start;

  // --- end-of-cell levels and correctness gates ----------------------------
  const net::FabricStats& fab = cl.fabric().stats();
  if (fab.messages_sent != fab.messages_delivered + fab.messages_dropped ||
      fab.bytes_sent != fab.bytes_delivered + fab.bytes_dropped) {
    res.gate_failures.push_back(tag + "fabric conservation violated");
  }
  for (std::size_t i = 0; i < cl.num_servers(); ++i) {
    out.counts["store.bytes_used"] += cl.server(i).store().bytes_used();
    out.counts["store.items"] += cl.server(i).store().items();
  }
  out.counts["user_bytes"] += spec.records * spec.value_size;
  if (spec.crash) {
    if (!repair_out.ran || !repair_out.status.ok()) {
      res.gate_failures.push_back(tag + "repair did not complete");
    }
    const resilience::RepairStats& rs = repair->stats();
    out.counts["repair.fragments_rebuilt"] += rs.fragments_rebuilt;
    out.counts["repair.bytes_read"] += rs.bytes_read;
    out.counts["repair.bytes_rebuilt"] += rs.bytes_rebuilt;
    out.repair_ns = repair_out.end - (start + kRestartAfterNs);
    host["resilience.repair_host_s"] += repair_out.host_s;
  }

  // Host rates of this cell.
  host["setup_s"] = host["workload.gen_host_s"] + host["cluster.build_host_s"] +
                    host["cluster.preload_host_s"];
  const double run_s = host["sim.run_host_s"];
  host["host_kops_per_s"] =
      run_s > 0.0 ? static_cast<double>(out.ops) / run_s / 1e3 : 0.0;
  const std::uint64_t events = out.counts["sim.events"];
  host["sim.host_ns_per_event"] =
      events == 0 ? 0.0 : run_s * 1e9 / static_cast<double>(events);
  const auto mb_per_s = [](std::uint64_t bytes, double ns) {
    return ns > 0.0 ? static_cast<double>(bytes) * 1e3 / ns : 0.0;
  };
  host["ec.encode_mb_per_s"] =
      mb_per_s(out.counts["ec.encode_bytes"], host["ec.encode_host_ns"]);
  host["ec.decode_mb_per_s"] =
      mb_per_s(out.counts["ec.decode_bytes"], host["ec.decode_host_ns"]);

  if (traced) {
    cl.merge_obs_domains();
    const std::vector<obs::TraceSpan> spans = tracer.tagged_spans(pid);
    res.trace["obs.trace_spans"] += static_cast<double>(spans.size());
    out.cp_ops = obs::analyze_critical_path(spans).ops;
  }
}

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      bool traced) {
  RoundResult res;
  CellOut pool;
  std::vector<SimDur> repair_ns;
  for (std::size_t cell = 0; cell < spec.cells; ++cell) {
    const std::string tag =
        spec.cells == 1 ? std::string() : "cell " + std::to_string(cell) + ": ";
    CellOut out;
    run_cell(spec, seed + cell * 0x9E3779B97F4A7C15ULL, traced, tag, res, out);
    pool.get_lat.insert(pool.get_lat.end(), out.get_lat.begin(),
                        out.get_lat.end());
    pool.set_lat.insert(pool.set_lat.end(), out.set_lat.begin(),
                        out.set_lat.end());
    pool.ops += out.ops;
    pool.bad_status += out.bad_status;
    pool.wrong_reads += out.wrong_reads;
    pool.sweep_reads += out.sweep_reads;
    pool.sweep_mismatches += out.sweep_mismatches;
    pool.makespan += out.makespan;
    for (const auto& [name, value] : out.counts) pool.counts[name] += value;
    pool.bufpool_high_water =
        std::max(pool.bufpool_high_water, out.bufpool_high_water);
    pool.repair_ns += out.repair_ns;
    pool.cp_ops.insert(pool.cp_ops.end(), out.cp_ops.begin(),
                       out.cp_ops.end());
  }
  if (traced) add_critical_path(pool.cp_ops, res.trace);

  auto& sim_m = res.sim;
  Counts& n = pool.counts;
  const std::uint64_t ops = pool.ops;
  const double dops = static_cast<double>(ops);
  std::sort(pool.get_lat.begin(), pool.get_lat.end());
  std::sort(pool.set_lat.begin(), pool.set_lat.end());
  res.attempted = ops + pool.sweep_reads;
  res.failed = pool.bad_status + pool.wrong_reads + pool.sweep_mismatches;

  // End to end.
  sim_m["ops"] = dops;
  sim_m["sim_kops"] =
      pool.makespan > 0
          ? dops / (static_cast<double>(pool.makespan) / 1e9) / 1e3
          : 0.0;
  sim_m["get_samples"] = static_cast<double>(pool.get_lat.size());
  sim_m["set_samples"] = static_cast<double>(pool.set_lat.size());
  sim_m["get_mean_us"] = mean_us(pool.get_lat);
  sim_m["set_mean_us"] = mean_us(pool.set_lat);
  sim_m["get_p50_us"] = percentile_us(pool.get_lat, 0.50);
  sim_m["get_p99_us"] = percentile_us(pool.get_lat, 0.99);
  sim_m["set_p50_us"] = percentile_us(pool.set_lat, 0.50);
  sim_m["set_p99_us"] = percentile_us(pool.set_lat, 0.99);

  // workload
  sim_m["workload.failed_op_frac"] = ratio(res.failed, res.attempted);
  sim_m["workload.wrong_reads"] = static_cast<double>(pool.wrong_reads);
  sim_m["workload.sweep_mismatches"] =
      static_cast<double>(pool.sweep_mismatches);

  // sim
  const std::uint64_t events = n["sim.events"];
  sim_m["sim.events_per_op"] = ratio(events, ops);
  sim_m["sim.shard_rounds_per_op"] = ratio(n["sim.rounds"], ops);
  sim_m["sim.cross_shard_msgs_per_op"] = ratio(n["sim.cross_shard_msgs"], ops);

  // net: user bytes moved by the pass are one value per Get or Set.
  const std::uint64_t moved = ops * spec.value_size;
  sim_m["net.msgs_per_op"] = ratio(n["fabric.messages_sent"], ops);
  sim_m["net.bytes_per_user_byte"] = ratio(n["fabric.bytes_sent"], moved);
  sim_m["net.rendezvous_per_op"] = ratio(n["fabric.rendezvous"], ops);
  sim_m["net.dropped_msgs"] = static_cast<double>(n["fabric.messages_dropped"]);

  // kv
  sim_m["kv.rpc_timeouts"] = static_cast<double>(n["rpc.timeouts"]);
  sim_m["kv.rpc_retries"] = static_cast<double>(n["rpc.retries"]);
  sim_m["kv.rpc_expired_calls"] = static_cast<double>(n["rpc.expired_calls"]);
  sim_m["kv.store_hit_ratio"] =
      ratio(n["store.hits"], n["store.hits"] + n["store.misses"]);
  sim_m["kv.store_items"] = static_cast<double>(n["store.items"]);
  sim_m["kv.stored_bytes_per_user_byte"] =
      ratio(n["store.bytes_used"], n["user_bytes"]);
  if (sim_m["kv.stored_bytes_per_user_byte"] < 5.0 / 3.0) {
    res.gate_failures.push_back(
        "stored bytes per user byte " +
        std::to_string(sim_m["kv.stored_bytes_per_user_byte"]) +
        " below 5/3 for RS(3,2)");
  }

  // ec
  sim_m["ec.encode_calls"] = static_cast<double>(n["ec.encode_calls"]);
  sim_m["ec.decode_calls"] = static_cast<double>(n["ec.decode_calls"]);
  sim_m["ec.sim_compute_ns_per_op"] = ratio(n["engine.compute_ns"], ops);

  // resilience
  sim_m["resilience.degraded_get_frac"] =
      ratio(n["engine.degraded_gets"], n["engine.gets"]);
  sim_m["resilience.failover_fetches"] =
      static_cast<double>(n["engine.failover_fetches"]);
  sim_m["resilience.hedges_fired"] =
      static_cast<double>(n["engine.hedges_fired"]);
  sim_m["resilience.hedge_win_ratio"] =
      ratio(n["engine.hedge_wins"], n["engine.hedges_fired"]);
  sim_m["resilience.hedge_wasted_bytes"] =
      static_cast<double>(n["engine.hedge_wasted_bytes"]);
  sim_m["resilience.set_wait_ns_per_op"] =
      ratio(n["engine.set_wait_ns"], n["engine.sets"]);
  sim_m["resilience.get_wait_ns_per_op"] =
      ratio(n["engine.get_wait_ns"], n["engine.gets"]);
  sim_m["resilience.arpe_window_waits"] =
      static_cast<double>(n["arpe.window_waits"]);
  sim_m["resilience.bufpool_high_water"] = pool.bufpool_high_water;
  sim_m["resilience.repair_fragments_rebuilt"] =
      static_cast<double>(n["repair.fragments_rebuilt"]);
  sim_m["resilience.repair_read_bytes_per_rebuilt_byte"] =
      ratio(n["repair.bytes_read"], n["repair.bytes_rebuilt"]);
  sim_m["resilience.repair_ms"] =
      units::to_ms(pool.repair_ns) / static_cast<double>(spec.cells);
  return res;
}

}  // namespace perfbench
