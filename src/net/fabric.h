// Simulated message fabric: per-node NICs with bandwidth serialization, a
// shared wire latency, and the eager/rendezvous protocol switch of
// RDMA-Memcached. The fabric is templated on the message body so upper
// layers define their own wire protocol; delivery order per (src, dst) pair
// is FIFO, matching a reliable connected transport (IB RC queue pairs).
//
// Timing model for a payload of s bytes from A to B at time t (see
// DESIGN.md): the message first waits for A's send NIC, occupies it for
// ser = per_message + s/B (plus the rendezvous handshake for large
// messages), crosses the wire in latency L, then occupies B's receive NIC
// for its serialization time (this is what creates incast queueing when K
// chunk responses converge on one client). An unloaded transfer completes
// in per_message + L + s/B — the paper's Equation 1.
//
// Sharding: the fabric is also the shard boundary of the parallel runtime
// (DESIGN.md "Shard runtime"). Every node lives on exactly one shard; a
// send between nodes on the same shard takes the classic inline path
// (byte-identical to the single-threaded fabric), while a cross-shard send
// resolves the sender's NIC locally and posts the arrival to the receiving
// shard, which claims the receive NIC in arrival order at least one wire
// latency later — the lookahead bound the conservative scheduler runs on.
// Mutable state is strictly shard-owned during parallel runs: the sender's
// shard owns tx NIC state and send-side counters, the receiver's shard owns
// rx NIC state, inboxes, and delivery counters. Topology state (up/loss
// flags) is read-only while shards run; fault injection mutates it from a
// ShardRuntime quiesce hook (every shard thread parked, the barrier
// publishes the writes).
//
// Observability under sharding follows the same single-writer rule: each
// shard's state carries its own tracer / health-signals / flight-recorder
// domain, and every recording a send or delivery makes goes to the acting
// shard's domain (the sender's for tx spans and drops, the receiver's for
// rx spans). Domains are merged deterministically at quiescence
// (cluster::Cluster::merge_obs_domains); with one shard the "domains" are
// the classic single instances and the output is byte-identical to the
// pre-shard fabric.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/params.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/shard_runtime.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace hpres::net {

/// Delivery wrapper handed to the receiving node's inbox.
template <typename Body>
struct Envelope {
  NodeId src = 0;
  NodeId dst = 0;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
  std::size_t wire_bytes = 0;
  Body body;
};

/// Aggregate transfer statistics (per fabric), both directions. Send and
/// receive sides are tracked independently so send/recv asymmetry under
/// injected failures is visible. Two conservation identities hold:
///   messages_sent == messages_delivered + messages_dropped + in flight
///   bytes_sent    == bytes_delivered + bytes_dropped + in-flight payload
/// (in_flight_bytes() counts wire bytes, i.e. payload + header; with
/// header_bytes == 0 the byte identity holds mid-flight too, and at
/// quiescence it holds for any header size).
struct FabricStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;  ///< total drops (sum of causes below)
  std::uint64_t drops_dst_down = 0;    ///< destination HCA was down
  std::uint64_t drops_src_down = 0;    ///< sender itself was marked down
  std::uint64_t drops_injected = 0;    ///< seeded random loss (set_loss)
  std::uint64_t bytes_sent = 0;        ///< payload bytes accepted for send
  std::uint64_t bytes_dropped = 0;     ///< payload bytes of dropped messages
  std::uint64_t rendezvous_handshakes = 0;
  std::uint64_t messages_delivered = 0;  ///< landed in a destination inbox
  std::uint64_t bytes_delivered = 0;     ///< payload bytes delivered

  /// Registers every field into `reg` under component "fabric".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"fabric", std::move(node), std::move(op)};
    reg.bind_counter("fabric.messages_sent", labels, &messages_sent);
    reg.bind_counter("fabric.messages_dropped", labels, &messages_dropped);
    reg.bind_counter("fabric.drops_dst_down", labels, &drops_dst_down);
    reg.bind_counter("fabric.drops_src_down", labels, &drops_src_down);
    reg.bind_counter("fabric.drops_injected", labels, &drops_injected);
    reg.bind_counter("fabric.bytes_sent", labels, &bytes_sent);
    reg.bind_counter("fabric.bytes_dropped", labels, &bytes_dropped);
    reg.bind_counter("fabric.rendezvous_handshakes", labels,
                     &rendezvous_handshakes);
    reg.bind_counter("fabric.messages_delivered", labels,
                     &messages_delivered);
    reg.bind_counter("fabric.bytes_delivered", labels, &bytes_delivered);
  }

  void accumulate(const FabricStats& other) noexcept {
    messages_sent += other.messages_sent;
    messages_dropped += other.messages_dropped;
    drops_dst_down += other.drops_dst_down;
    drops_src_down += other.drops_src_down;
    drops_injected += other.drops_injected;
    bytes_sent += other.bytes_sent;
    bytes_dropped += other.bytes_dropped;
    rendezvous_handshakes += other.rendezvous_handshakes;
    messages_delivered += other.messages_delivered;
    bytes_delivered += other.bytes_delivered;
  }
};

template <typename Body>
class Fabric {
 public:
  /// Single-loop fabric: every node on one simulator (the deterministic
  /// oracle configuration, and the only constructor tests existed with
  /// before sharding).
  Fabric(sim::Simulator& sim, FabricParams params, std::size_t num_nodes)
      : params_(params), nics_(num_nodes) {
    node_sim_.assign(num_nodes, &sim);
    node_shard_.assign(num_nodes, 0);
    shard_state_.push_back(std::make_unique<ShardState>());
    init_inboxes();
  }

  /// Shard-aware fabric: node `i` lives on `runtime.shard(node_shard[i])`.
  /// With one shard this is exactly the oracle configuration above.
  Fabric(sim::ShardRuntime& runtime, FabricParams params,
         std::vector<std::uint32_t> node_shard)
      : params_(params),
        nics_(node_shard.size()),
        runtime_(&runtime),
        node_shard_(std::move(node_shard)) {
    node_sim_.reserve(node_shard_.size());
    for (const std::uint32_t s : node_shard_) {
      assert(s < runtime.num_shards());
      node_sim_.push_back(&runtime.shard(s));
    }
    for (std::size_t s = 0; s < runtime.num_shards(); ++s) {
      shard_state_.push_back(std::make_unique<ShardState>());
    }
    init_inboxes();
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return inboxes_.size();
  }
  [[nodiscard]] const FabricParams& params() const noexcept { return params_; }

  /// Transfer counters. Single-shard fabrics return the live struct (the
  /// metrics registry binds its fields by pointer); multi-shard fabrics
  /// return the merged snapshot, refreshed by merge_stats() — the cluster
  /// refreshes it after every run, so bound pointers read current sums at
  /// capture time.
  [[nodiscard]] const FabricStats& stats() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->stats : merged_stats_;
  }

  /// Recomputes the merged multi-shard counter snapshot. Call at
  /// quiescence (between runs); a no-op for single-shard fabrics.
  void merge_stats() noexcept {
    if (shard_state_.size() == 1) return;
    merged_stats_ = FabricStats{};
    merged_in_flight_bytes_ = 0;
    merged_in_flight_messages_ = 0;
    for (const auto& st : shard_state_) {
      merged_stats_.accumulate(st->stats);
      merged_in_flight_bytes_ += st->in_flight_bytes;
      merged_in_flight_messages_ += st->in_flight_messages;
    }
  }

  /// Wire bytes sent but not yet delivered (time-series gauge for the
  /// periodic sampler; multi-shard values are snapshots from merge_stats).
  [[nodiscard]] std::uint64_t in_flight_bytes() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->in_flight_bytes
                                    : merged_in_flight_bytes_;
  }
  [[nodiscard]] std::uint64_t in_flight_messages() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->in_flight_messages
                                    : merged_in_flight_messages_;
  }
  /// Live in-flight wire bytes charged to shard `s` (single-writer; read
  /// it from that shard's thread or from a quiesce hook).
  [[nodiscard]] std::uint64_t in_flight_bytes_of_shard(
      std::size_t s) const noexcept {
    assert(s < shard_state_.size());
    return shard_state_[s]->in_flight_bytes;
  }

  /// Attaches a span tracer: NIC occupancy spans ("fabric/send" on the
  /// sender's NIC track, "fabric/recv" on the receiver's) are emitted under
  /// process `pid`. Pass nullptr to detach. Purely observational. Attaches
  /// the same tracer to every shard; parallel runs overwrite the per-shard
  /// slots with their own domains (set_shard_tracer) so each shard records
  /// single-writer.
  void set_tracer(obs::Tracer* tracer, std::uint32_t pid = 0) noexcept {
    for (auto& st : shard_state_) st->tracer = tracer;
    trace_pid_ = pid;
  }
  /// Points shard `s` at its own tracer domain (parallel runs only).
  void set_shard_tracer(std::size_t s, obs::Tracer* tracer) noexcept {
    assert(s < shard_state_.size());
    shard_state_[s]->tracer = tracer;
  }

  /// The receive queue for a node; server/client processes loop on
  /// `co_await fabric.inbox(id).recv()`. Owned by the node's shard.
  [[nodiscard]] sim::Channel<Envelope<Body>>& inbox(NodeId id) {
    assert(id < inboxes_.size());
    return *inboxes_[id];
  }

  /// The simulator that drives `id`'s events (its shard's event loop).
  [[nodiscard]] sim::Simulator& sim_of(NodeId id) {
    assert(id < node_sim_.size());
    return *node_sim_[id];
  }
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const {
    assert(id < node_shard_.size());
    return node_shard_[id];
  }

  /// Marks a node up/down. Messages to or from a down node are dropped
  /// silently (its HCA is gone) — exactly what a crashed peer looks like on
  /// an RC transport. Senders survive this two ways (DESIGN.md failure
  /// model): requests in flight at crash time resolve through RPC deadlines
  /// (RpcPolicy timeouts), and later placement decisions consult the
  /// membership oracle once it observes the failure after the configured
  /// detection lag (FaultSchedule). Topology flags are read by every shard:
  /// mutate only in oracle mode, between runs, or from a quiesce hook.
  void set_node_up(NodeId id, bool up) {
    assert(id < nics_.size());
    nics_[id].up = up;
  }
  [[nodiscard]] bool node_up(NodeId id) const {
    assert(id < nics_.size());
    return nics_[id].up;
  }

  /// Enables seeded random message loss: each send is independently dropped
  /// with probability `probability` (counted under drops_injected). Models
  /// a flaky link for timeout/retry experiments; deterministic per seed.
  /// Pass 0 to disable (the default — no RNG draw on the send path).
  /// Each shard draws from its own stream (shard 0 keeps the seed's
  /// classic stream, so oracle runs are byte-identical to pre-shard code).
  void set_loss(double probability, std::uint64_t seed = 0x10553) {
    loss_probability_ = probability;
    for (std::size_t s = 0; s < shard_state_.size(); ++s) {
      shard_state_[s]->loss_rng =
          Xoshiro256(seed + s * 0x9E3779B97F4A7C15ULL);
    }
  }

  /// Per-node silent loss: messages to or from `id` are additionally
  /// dropped with probability `probability` — a gray-lossy NIC whose peers
  /// see timeouts while membership still says the node is alive. Shares
  /// the set_loss RNG stream; with every probability at 0 the send path
  /// draws no RNG at all, keeping loss-free runs bit-identical.
  void set_node_loss(NodeId id, double probability) {
    assert(id < nics_.size());
    if (nics_[id].loss > 0.0 && probability <= 0.0) --lossy_nodes_;
    if (nics_[id].loss <= 0.0 && probability > 0.0) ++lossy_nodes_;
    nics_[id].loss = probability;
  }
  [[nodiscard]] double node_loss(NodeId id) const {
    assert(id < nics_.size());
    return nics_[id].loss;
  }

  /// Attaches the health plane: every drop involving a tracked node feeds
  /// its drop counter. Purely observational. Attaches to every shard;
  /// parallel runs overwrite the slots with per-shard domains.
  void set_health_signals(obs::HealthSignals* signals) noexcept {
    for (auto& st : shard_state_) st->health = signals;
  }
  void set_shard_health_signals(std::size_t s,
                                obs::HealthSignals* signals) noexcept {
    assert(s < shard_state_.size());
    shard_state_[s]->health = signals;
  }
  /// Attaches the flight recorder: drops land in the involved server's
  /// ring as kNetDrop events. Purely observational. Attaches to every
  /// shard; parallel runs overwrite the slots with per-shard domains.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept {
    for (auto& st : shard_state_) st->flight = flight;
  }
  void set_shard_flight_recorder(std::size_t s,
                                 obs::FlightRecorder* flight) noexcept {
    assert(s < shard_state_.size());
    shard_state_[s]->flight = flight;
  }

  /// Asynchronously transfers `body` with `payload_bytes` of payload.
  /// Returns immediately; delivery lands in the destination inbox at the
  /// modeled time. Loopback (src == dst) skips the NIC entirely and
  /// delivers after a fixed small local latency. Must be called from the
  /// source node's shard (all senders are coroutines on their own shard).
  ///
  /// `trace` (optional, purely observational) tags the NIC spans with the
  /// causal trace id and emits one flow-event triple — "s" on the sender's
  /// enclosing slice (trace.span_id lane), "t" on the src NIC at tx start,
  /// "f" on the dst NIC at rx start — plus queue-wait and in-flight async
  /// spans, so Perfetto draws sender → fabric → receiver arrows and the
  /// critical-path analyzer sees queueing and wire time per message.
  void send(NodeId src, NodeId dst, Body body, std::size_t payload_bytes,
            const obs::TraceContext& trace = {}) {
    assert(src < nics_.size() && dst < nics_.size());
    ShardState& ss = *shard_state_[node_shard_[src]];
    sim::Simulator* ssim = node_sim_[src];
    obs::Tracer* tr =
        (ss.tracer != nullptr && ss.tracer->enabled()) ? ss.tracer : nullptr;
    ++ss.stats.messages_sent;
    ss.stats.bytes_sent += payload_bytes;
    if (!nics_[dst].up || !nics_[src].up) {
      ++ss.stats.messages_dropped;
      ss.stats.bytes_dropped += payload_bytes;
      if (!nics_[dst].up) {
        ++ss.stats.drops_dst_down;
      } else {
        ++ss.stats.drops_src_down;
      }
      record_drop(ss, src, dst, payload_bytes, /*injected=*/false);
      if (tr != nullptr && trace.valid()) {
        tr->instant(trace_pid_, trace.span_id, "fabric/drop", "fabric",
                    ssim->now(), trace.trace_id);
      }
      return;
    }
    // Injected loss: one combined-probability draw covers the global link
    // rate and both endpoints' gray-lossy rates, so the RNG stream advances
    // exactly once per at-risk message regardless of how many layers apply.
    if (loss_probability_ > 0.0 || lossy_nodes_ > 0) {
      const double keep = (1.0 - loss_probability_) *
                          (1.0 - nics_[src].loss) * (1.0 - nics_[dst].loss);
      if (keep < 1.0 && ss.loss_rng.next_double() >= keep) {
        ++ss.stats.messages_dropped;
        ++ss.stats.drops_injected;
        ss.stats.bytes_dropped += payload_bytes;
        record_drop(ss, src, dst, payload_bytes, /*injected=*/true);
        if (tr != nullptr && trace.valid()) {
          tr->instant(trace_pid_, trace.span_id, "fabric/drop", "fabric",
                      ssim->now(), trace.trace_id);
        }
        return;
      }
    }
    const SimTime now = ssim->now();
    Envelope<Body> env{src, dst, now, 0, payload_bytes + params_.header_bytes,
                       std::move(body)};

    if (src == dst) {
      env.delivered_at = now + kLoopbackNs;
      deliver_at(env.delivered_at, std::move(env));
      return;
    }

    SimDur pre_tx = 0;  // protocol work before the payload can move
    const bool rendezvous = payload_bytes >= params_.rendezvous_threshold;
    if (rendezvous) {
      // RTS/CTS control round trip before the zero-copy transfer.
      pre_tx += 2 * params_.latency_ns;
      ++ss.stats.rendezvous_handshakes;
    } else {
      // Eager: copy into pre-registered bounce buffers.
      pre_tx += static_cast<SimDur>(params_.eager_copy_ns_per_byte *
                                    static_cast<double>(payload_bytes));
    }

    const SimDur ser = params_.per_message_ns +
                       units::transfer_time_ns(env.wire_bytes,
                                               params_.bandwidth_gbps);
    // Sender NIC: queue behind earlier transmissions, then serialize.
    NicState& src_nic = nics_[src];
    const SimTime tx_start = std::max(now + pre_tx, src_nic.tx_busy_until);
    const SimTime tx_end = tx_start + ser;
    src_nic.tx_busy_until = tx_end;

    if (node_shard_[dst] != node_shard_[src]) {
      // Cross-shard: the first bit reaches the receiver at tx_start +
      // latency >= now + latency — at least one lookahead in the future,
      // which is exactly the window bound the runtime synchronizes on. The
      // receive NIC is claimed on its own shard at arrival time (arrival
      // order, where the oracle claims in send order — statistically
      // equivalent contention, not bit-identical across shard counts).
      // In-flight accounting for the wire leg starts at arrival on the
      // destination shard (receive_cross_shard): each shard's counters are
      // touched only by its own thread, which is what keeps this path free
      // of atomics and data races.
      //
      // Tracing splits at the same boundary: the sender's domain records
      // the tx-side spans and the 's'/'t' flow legs here; the receiver's
      // domain records the rx-side spans and the 'f' leg at arrival. The
      // flow/async ids ride the posted message, so the arrows join up after
      // the domains merge.
      std::uint64_t msg = 0;
      if (tr != nullptr) {
        tr->complete(trace_pid_, obs::Tracer::kNicTidBase + src,
                     "fabric/send", "fabric", tx_start, ser, trace.trace_id);
        if (trace.valid()) {
          msg = tr->new_flow_id();
          tr->flow('s', trace_pid_, trace.span_id, now, msg, trace.trace_id);
          tr->flow('t', trace_pid_, obs::Tracer::kNicTidBase + src, tx_start,
                   msg, trace.trace_id);
          const SimTime tx_ready = now + pre_tx;
          if (tx_start > tx_ready) {
            tr->async_span(trace_pid_, msg * 4, "fabric/txq", "fabric",
                           tx_ready, tx_start - tx_ready, trace.trace_id);
          }
        }
      }
      const SimTime arrival = tx_end + params_.latency_ns - ser;
      assert(runtime_ != nullptr);
      runtime_->post(
          node_shard_[src], node_shard_[dst], arrival,
          [this, ser, msg, tid = trace.trace_id,
           e = std::move(env)]() mutable {
            receive_cross_shard(std::move(e), ser, msg, tid);
          });
      return;
    }

    // Receiver NIC: the stream could start landing `ser` before its last
    // bit (cut-through); queue behind other arrivals.
    NicState& dst_nic = nics_[dst];
    const SimTime rx_start =
        std::max(tx_end + params_.latency_ns - ser, dst_nic.rx_busy_until);
    const SimTime rx_end = rx_start + ser;
    dst_nic.rx_busy_until = rx_end;

    if (tr != nullptr) {
      tr->complete(trace_pid_, obs::Tracer::kNicTidBase + src, "fabric/send",
                   "fabric", tx_start, ser, trace.trace_id);
      tr->complete(trace_pid_, obs::Tracer::kNicTidBase + dst, "fabric/recv",
                   "fabric", rx_start, ser, trace.trace_id);
      if (trace.valid()) {
        // Flow arrows: sender's slice → src NIC tx slice → dst NIC rx slice.
        const std::uint64_t msg = tr->new_flow_id();
        tr->flow('s', trace_pid_, trace.span_id, now, msg, trace.trace_id);
        tr->flow('t', trace_pid_, obs::Tracer::kNicTidBase + src, tx_start,
                 msg, trace.trace_id);
        tr->flow('f', trace_pid_, obs::Tracer::kNicTidBase + dst, rx_start,
                 msg, trace.trace_id);
        // Queue waits (overlap-safe async spans): tx behind earlier sends,
        // rx behind other arrivals converging on the destination (incast).
        const SimTime tx_ready = now + pre_tx;
        if (tx_start > tx_ready) {
          tr->async_span(trace_pid_, msg * 4, "fabric/txq", "fabric",
                         tx_ready, tx_start - tx_ready, trace.trace_id);
        }
        const SimTime rx_arrival = tx_end + params_.latency_ns - ser;
        if (rx_start > rx_arrival) {
          tr->async_span(trace_pid_, msg * 4 + 1, "fabric/rxq", "fabric",
                         rx_arrival, rx_start - rx_arrival, trace.trace_id);
        }
        // Whole in-flight interval (protocol pre-work through last bit
        // received): the analyzer's catch-all "net" coverage.
        tr->async_span(trace_pid_, msg * 4 + 2, "fabric/wire", "fabric", now,
                       rx_end - now, trace.trace_id);
      }
    }

    env.delivered_at = rx_end;
    deliver_at(rx_end, std::move(env));
  }

 private:
  static constexpr SimDur kLoopbackNs = 400;

  struct NicState {
    SimTime tx_busy_until = 0;
    SimTime rx_busy_until = 0;
    bool up = true;
    double loss = 0.0;  ///< per-node injected silent-loss probability
  };

  /// Shard-owned mutable fabric state: send-side counters and the loss RNG
  /// belong to the sending shard; delivery and in-flight counters to the
  /// receiving one. Every field is single-writer (only its shard's thread
  /// touches it); a cross-shard message charges in-flight from wire arrival
  /// to inbox delivery, so the merged gauges read zero at quiescence. The
  /// observability sinks are the shard's own domains in parallel runs (the
  /// shared instances in oracle mode), keeping recording single-writer too.
  struct ShardState {
    FabricStats stats;
    Xoshiro256 loss_rng;
    std::uint64_t in_flight_bytes = 0;
    std::uint64_t in_flight_messages = 0;
    obs::Tracer* tracer = nullptr;
    obs::HealthSignals* health = nullptr;
    obs::FlightRecorder* flight = nullptr;
  };

  void init_inboxes() {
    inboxes_.reserve(node_sim_.size());
    for (std::size_t i = 0; i < node_sim_.size(); ++i) {
      inboxes_.push_back(
          std::make_unique<sim::Channel<Envelope<Body>>>(*node_sim_[i]));
    }
  }

  /// Feeds a drop into the health plane. Health counters are sized to
  /// servers and attribute to whichever endpoint is one (the destination
  /// when both are; out-of-range ids bounce off the bounds checks). The
  /// flight event lands in the destination's ring with the source in `b`,
  /// so per-ring drop tallies stay attributable either way. Drops resolve
  /// on the send path, so both records go to the sender's shard domain
  /// (`ss`): a domain holds rings/counters for every node, only its writer
  /// is per-shard.
  void record_drop(ShardState& ss, NodeId src, NodeId dst,
                   std::size_t payload_bytes, bool injected) {
    if (ss.health != nullptr) {
      ss.health->on_drop(dst < ss.health->num_nodes() ? dst : src);
    }
    if (ss.flight != nullptr) {
      ss.flight->record(node_sim_[src]->now(), dst,
                        obs::FlightEventType::kNetDrop, payload_bytes,
                        static_cast<std::uint32_t>(src), injected ? 1 : 0);
    }
  }

  /// Runs on the destination shard at wire-arrival time: claims the
  /// receive NIC in arrival order, then delivers at serialization end.
  /// `msg` / `trace_id` carry the sender's flow identity (0 = untraced) so
  /// the rx-side spans land in this shard's tracer domain with matching
  /// ids.
  void receive_cross_shard(Envelope<Body> env, SimDur ser, std::uint64_t msg,
                           std::uint64_t trace_id) {
    sim::Simulator* dsim = node_sim_[env.dst];
    NicState& dst_nic = nics_[env.dst];
    const SimTime arrival = dsim->now();
    const SimTime rx_start = std::max(arrival, dst_nic.rx_busy_until);
    const SimTime rx_end = rx_start + ser;
    dst_nic.rx_busy_until = rx_end;
    env.delivered_at = rx_end;
    ShardState& rs = *shard_state_[node_shard_[env.dst]];
    if (obs::Tracer* tr =
            (rs.tracer != nullptr && rs.tracer->enabled()) ? rs.tracer
                                                           : nullptr;
        tr != nullptr) {
      tr->complete(trace_pid_, obs::Tracer::kNicTidBase + env.dst,
                   "fabric/recv", "fabric", rx_start, ser, trace_id);
      if (msg != 0) {
        tr->flow('f', trace_pid_, obs::Tracer::kNicTidBase + env.dst,
                 rx_start, msg, trace_id);
        if (rx_start > arrival) {
          tr->async_span(trace_pid_, msg * 4 + 1, "fabric/rxq", "fabric",
                         arrival, rx_start - arrival, trace_id);
        }
        // In-flight interval from original send to last bit received: the
        // sender stamped env.sent_at before protocol pre-work began.
        tr->async_span(trace_pid_, msg * 4 + 2, "fabric/wire", "fabric",
                       env.sent_at, rx_end - env.sent_at, trace_id);
      }
    }
    // The in-flight charge for a cross-shard message begins here, at wire
    // arrival, and is settled by deliver_coro — both on this (the
    // destination) shard's thread. The post->arrival wire leg is therefore
    // uncounted; gauges at quiescence still read zero, and per-shard
    // counters are single-writer by construction.
    rs.in_flight_bytes += env.wire_bytes;
    ++rs.in_flight_messages;
    dsim->spawn(deliver_coro(this, &rs, dsim, rx_end - dsim->now(),
                             std::move(env)));
  }

  [[nodiscard]] ShardState& ss_of(NodeId node) {
    return *shard_state_[node_shard_[node]];
  }

  void deliver_at(SimTime when, Envelope<Body> env) {
    sim::Simulator* dsim = node_sim_[env.dst];
    ShardState& st = ss_of(env.dst);
    const SimDur delay = when - dsim->now();
    st.in_flight_bytes += env.wire_bytes;
    ++st.in_flight_messages;
    dsim->spawn(deliver_coro(this, &st, dsim, delay, std::move(env)));
  }

  // Free coroutine per CP.51/CP.53: parameters by value / a raw pointer to
  // the fabric, which owns the inboxes and must outlive every in-flight
  // message (it does: the cluster drains the simulator before teardown).
  static sim::Task<void> deliver_coro(Fabric* self, ShardState* st,
                                      sim::Simulator* dsim, SimDur delay,
                                      Envelope<Body> env) {
    co_await dsim->delay(delay);
    st->in_flight_bytes -= env.wire_bytes;
    --st->in_flight_messages;
    ++st->stats.messages_delivered;
    st->stats.bytes_delivered += env.wire_bytes - self->params_.header_bytes;
    self->inboxes_[env.dst]->send(std::move(env));
  }

  FabricParams params_;
  std::vector<NicState> nics_;
  sim::ShardRuntime* runtime_ = nullptr;
  std::vector<std::uint32_t> node_shard_;
  std::vector<sim::Simulator*> node_sim_;
  std::vector<std::unique_ptr<ShardState>> shard_state_;
  FabricStats merged_stats_;
  std::uint64_t merged_in_flight_bytes_ = 0;
  std::uint64_t merged_in_flight_messages_ = 0;
  std::vector<std::unique_ptr<sim::Channel<Envelope<Body>>>> inboxes_;
  double loss_probability_ = 0.0;
  std::size_t lossy_nodes_ = 0;  ///< nodes with a nonzero per-node loss
  std::uint32_t trace_pid_ = 0;
};

}  // namespace hpres::net
