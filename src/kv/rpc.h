// Request/response plumbing shared by clients and servers.
//
// Every node owns one fabric inbox. A dispatch loop routes incoming
// Requests to the subclass handler (spawned, so slow handlers never block
// the queue — the multi-threaded Memcached model) and matches incoming
// Responses to pending calls by rpc id. Servers use the same machinery to
// talk to their peers (the paper's server-embedded ARPE with Libmemcached
// client, Section IV-A).
//
// Failure handling: `call()` alone can hang forever if the destination
// crashes while the request or response is on the wire (the fabric drops
// silently). `call_guarded()` layers RPC deadlines with bounded retry and
// exponential backoff on top — the policy every node carries (RpcPolicy).
// With the default policy (timeout 0) the guarded paths degrade to exactly
// the unguarded ones: no timers, no extra events, bit-identical schedules.
#pragma once

#include <cstdint>

#include "kv/flat_map.h"
#include "kv/protocol.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/future.h"

namespace hpres::kv {

/// Deadline/retry policy for guarded calls. The default (timeout_ns == 0)
/// means "wait forever" — the controlled-failure model of the paper, and
/// the only safe default for determinism-sensitive experiments (a nonzero
/// timeout spawns one timer event per call).
struct RpcPolicy {
  SimDur timeout_ns = 0;          ///< per-attempt deadline; 0 = no deadline
  std::uint32_t max_retries = 0;  ///< re-sends after the first attempt
  SimDur backoff_ns = 0;          ///< backoff before retry i: backoff << i
};

/// Per-node timeout/retry accounting.
struct RpcStats {
  std::uint64_t timeouts = 0;     ///< attempts that hit their deadline
  std::uint64_t retries = 0;      ///< re-sends issued after a timeout
  std::uint64_t expired_calls = 0;  ///< calls that exhausted every retry

  /// Registers every field into `reg` under component "rpc".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"rpc", std::move(node), std::move(op)};
    reg.bind_counter("rpc.timeouts", labels, &timeouts);
    reg.bind_counter("rpc.retries", labels, &retries);
    reg.bind_counter("rpc.expired_calls", labels, &expired_calls);
  }
};

class RpcNode {
 public:
  RpcNode(sim::Simulator& sim, KvFabric& fabric, NodeId id)
      : sim_(&sim), fabric_(&fabric), id_(id) {}
  virtual ~RpcNode() = default;
  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  /// Begins dispatching this node's inbox. Must be called exactly once,
  /// before the simulation runs; the RpcNode must outlive the simulation.
  void start() { sim_->spawn(dispatch_loop(this)); }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] sim::Simulator& sim() const noexcept { return *sim_; }
  [[nodiscard]] KvFabric& fabric() const noexcept { return *fabric_; }

  void set_policy(RpcPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] const RpcPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const RpcStats& rpc_stats() const noexcept {
    return rpc_stats_;
  }

  /// Attaches a span tracer for "rpc/timeout" spans (emitted on this
  /// node's NIC track). Purely observational.
  void set_rpc_tracer(obs::Tracer* tracer, std::uint32_t pid = 0) noexcept {
    tracer_ = tracer;
    trace_pid_ = pid;
  }

  /// Attaches the cluster health plane: every matched response feeds the
  /// destination server's RTT estimate, every guarded-call deadline expiry
  /// feeds its timeout counter. Observation-only — never alters call
  /// behaviour or timing.
  void set_health_signals(obs::HealthSignals* signals) noexcept {
    health_ = signals;
  }

  /// Attaches the flight recorder; timeout/retry events land in the ring
  /// of the *destination* node (the node being suspected), with the caller
  /// in the `b` field.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept {
    flight_ = flight;
  }

  /// Sends a request; the future resolves with the peer's response. A
  /// request to a node known-dead by the fabric resolves immediately with
  /// kUnavailable (the HCA-level send fails fast); a crash AFTER the send
  /// leaves the future unresolved forever — use call_guarded when that can
  /// happen.
  sim::Future<Response> call(NodeId dst, Request req);

  /// `call` under this node's RpcPolicy: each attempt races the response
  /// against the deadline; a timed-out attempt is cancelled (a late
  /// response is dropped as stale) and retried after exponential backoff,
  /// until max_retries is exhausted — then resolves kTimeout. With the
  /// default policy this is exactly call()+wait(). Retries re-send the same
  /// request (values are shared buffers, so the copy is cheap).
  sim::Task<Response> call_guarded(NodeId dst, Request req);

  /// call_guarded wrapped into a Future so fan-out paths can overlap many
  /// guarded calls. With the default policy no coroutine is spawned and
  /// this is exactly call().
  sim::Future<Response> guarded_future(NodeId dst, Request req);

  /// Abandons a pending call: its future will never resolve through the
  /// dispatch loop, and a late response is ignored as stale.
  void cancel(std::uint64_t rpc_id);

  /// Abandons a pending call AND resolves its future with kCancelled, so a
  /// coroutine awaiting that future unwinds instead of leaking parked until
  /// process exit. A late wire response is dropped as stale, exactly as
  /// with cancel(). No-op for unknown/already-resolved ids.
  void cancel_resolve(std::uint64_t rpc_id);

  /// Rpc id issued by this node's most recent call() (0 when that call
  /// failed fast). Lets fan-out issuers remember ids for cancel_resolve.
  [[nodiscard]] std::uint64_t last_call_id() const noexcept {
    return last_call_id_;
  }

 protected:
  /// Handles one incoming request envelope. Implementations should spawn a
  /// coroutine for any work that suspends.
  virtual void on_request(KvEnvelope env) = 0;

  /// Sends a response back to a requester. The response's trace context
  /// (echoed from the request by the handler) tags the return transfer.
  void respond(NodeId dst, Response resp) {
    const std::size_t bytes = payload_bytes(resp);
    const obs::TraceContext trace = resp.trace;
    fabric_->send(id_, dst, WireBody{std::move(resp)}, bytes, trace);
  }

  /// The attached tracer when live, nullptr otherwise (handlers emit
  /// server-side spans through this).
  [[nodiscard]] obs::Tracer* live_tracer() const noexcept {
    return (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;
  }
  [[nodiscard]] std::uint32_t obs_pid() const noexcept { return trace_pid_; }

 private:
  static sim::Task<void> dispatch_loop(RpcNode* self);
  static sim::Task<void> guarded_coro(RpcNode* self, NodeId dst, Request req,
                                      sim::Promise<Response> out);

  /// One in-flight call: the promise to resolve plus where/when it went,
  /// so the dispatch loop can attribute the RTT to the destination.
  struct PendingCall {
    std::uint64_t rpc_id = 0;
    sim::Promise<Response> promise;
    NodeId dst = 0;
    SimTime sent_at = 0;
  };

  /// Rpc ids are sequential: a Fibonacci multiply spreads them over the
  /// pending table's low bits without collisions between nearby ids.
  [[nodiscard]] static std::uint64_t rpc_hash(std::uint64_t id) noexcept {
    return id * 0x9E3779B97F4A7C15ULL;
  }
  [[nodiscard]] static auto is_call(std::uint64_t id) noexcept {
    return [id](const PendingCall& c) { return c.rpc_id == id; };
  }

  sim::Simulator* sim_;
  KvFabric* fabric_;
  NodeId id_;
  std::uint64_t next_rpc_ = 1;
  std::uint64_t last_call_id_ = 0;  ///< rpc id issued by the latest call()
  FlatMap<PendingCall> pending_;
  RpcPolicy policy_;
  RpcStats rpc_stats_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  obs::HealthSignals* health_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace hpres::kv
