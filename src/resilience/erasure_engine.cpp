#include "resilience/erasure_engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/rng.h"

namespace hpres::resilience {

ErasureEngine::ErasureEngine(EngineContext ctx, const ec::Codec& codec,
                             ec::CostModel cost, EraMode mode,
                             ArpeParams arpe, HedgeParams hedge,
                             PackParams pack)
    : Engine(ctx, arpe),
      codec_(&codec),
      cost_(cost),
      mode_(mode),
      hedge_(hedge),
      pack_(pack),
      load_(ctx.ring->num_servers(),
            splitmix64(static_cast<std::uint64_t>(ctx.client->id()))) {
  assert(codec.n() <= ring().num_servers() &&
         "need k+m distinct servers for fragment placement");
}

sim::Task<Status> ErasureEngine::do_set(kv::Key key, SharedBytes value,
                                        OpPhases* phases) {
  if (packing_active()) {
    return set_routed_packed(std::move(key), std::move(value), phases);
  }
  if (client_encodes(mode_)) {
    return set_client_encode(std::move(key), std::move(value), phases);
  }
  return set_server_encode(std::move(key), std::move(value), phases);
}

sim::Task<Result<Bytes>> ErasureEngine::do_get(kv::Key key,
                                               OpPhases* phases) {
  if (!client_decodes(mode_)) return get_server_decode(std::move(key), phases);
  // Packed Gets fall back to the per-key path for keys without a locator.
  if (packing_active()) return get_packed(std::move(key), phases);
  return get_client_decode(std::move(key), phases);
}

sim::Task<Status> ErasureEngine::do_del(kv::Key key) {
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(codec_->n() + 1);
  if (packing_active()) {
    // Forget any staged (pre-durability) copy — the commit-time filter
    // then drops the record's locator install — and unlink committed
    // locator entries at the directory owners.
    staging_.erase(key);
    co_await unlink_locator(key, &pending);
  }
  bool staged_sent = false;
  const kv::HashRing::Placement place = ring().placement(key);
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    const std::size_t owner = place.slot(slot);
    if (!membership().up(owner)) continue;
    kv::Request frag;
    frag.verb = kv::Verb::kDelete;
    frag.key = kv::chunk_key(key, slot);
    pending.push_back(client().call_async(node_of(owner), std::move(frag)));
    if (!staged_sent) {
      // Clear any staged full copy left by a server-side encode. The
      // stager is the first owner that was live at Set time, so routing
      // this through the first live slot (not unconditionally slot 0)
      // reaches it even when slot 0's owner is down now.
      staged_sent = true;
      kv::Request staged;
      staged.verb = kv::Verb::kDelete;
      staged.key = key;
      pending.push_back(
          client().call_async(node_of(owner), std::move(staged)));
    }
  }
  std::size_t deleted = 0;
  for (const auto& f : pending) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) ++deleted;
  }
  // Fragments on currently-down owners are out of reach; they become
  // orphans that the RepairCoordinator counts and purges.
  co_return deleted > 0 ? Status::Ok() : Status{StatusCode::kNotFound};
}

sim::Task<ErasureEngine::LiveSlot> ErasureEngine::pick_live_slot(
    kv::Key key) {
  LiveSlot result;
  const kv::HashRing::Placement place = ring().placement(key);
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    if (membership().up(place.slot(slot))) {
      result.slot = slot;
      break;
    }
    result.degraded = true;
  }
  if (result.degraded) co_await sim().delay(membership().check_cost_ns());
  co_return result;
}

sim::Task<Status> ErasureEngine::set_client_encode(kv::Key key,
                                                   SharedBytes value,
                                                   OpPhases* phases) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t k = codec_->k();
  const std::size_t n = codec_->n();
  const ec::ChunkLayout layout =
      ec::make_layout(value_size, k, codec_->alignment());

  // T_encode plus the posting of all n chunk requests occupy the client
  // CPU as one contiguous slice — a single application thread encodes and
  // then posts its non-blocking sends back-to-back. (Splitting the slice
  // per send would let other in-flight operations' encodes starve this
  // op's sends behind the FIFO CPU queue.) Under the ARPE window this
  // slice overlaps the communication phases of neighbouring operations.
  const SimDur encode_ns = cost_.encode_ns(value_size);
  const SimDur post_ns =
      static_cast<SimDur>(n) * issue_cost(layout.fragment_size);
  co_await client().cpu().execute(encode_ns + post_ns);
  phases->compute_ns += encode_ns;
  phases->request_ns += post_ns;
  obs::Tracer* const tr = tracer();
  if (tr != nullptr) {
    // Span durations equal the charged phase costs exactly, so the
    // tracer-derived breakdown matches the PhaseBreakdown accumulators.
    tr->complete(trace_pid(), phases->trace_tid, "set/encode", "engine",
                 sim().now() - encode_ns - post_ns, encode_ns,
                 phases->trace.trace_id);
    tr->complete(trace_pid(), phases->trace_tid, "set/request", "engine",
                 sim().now() - post_ns, post_ns, phases->trace.trace_id);
  }

  // Distribute all K+M fragments with non-blocking requests: the
  // response waits overlap, approaching Equation 7's max over fragments.
  FragmentFanout fanout = post_fragments(
      key, value_size,
      ec::encode_fragments(*codec_, layout,
                           ctx().materialize ? value.get() : nullptr),
      phases->trace);
  const SimTime fanout_t0 = sim().now();
  const WriteTally tally = co_await collect_fragments(std::move(fanout));
  if (tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "set/fanout", "engine",
                 fanout_t0, sim().now() - fanout_t0, phases->trace.trace_id);
  }
  co_return write_verdict(tally);
}

ErasureEngine::FragmentFanout ErasureEngine::post_fragments(
    const kv::Key& skey, std::size_t value_size,
    std::vector<SharedBytes> fragments, const obs::TraceContext& trace) {
  const std::size_t n = codec_->n();
  FragmentFanout fanout;
  fanout.pending.reserve(n);
  fanout.owners.reserve(n);
  const kv::HashRing::Placement place = ring().placement(skey);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t owner = place.slot(slot);
    if (!membership().up(owner)) continue;
    kv::Request req;
    req.verb = kv::Verb::kSet;
    req.key = kv::chunk_key(skey, slot);
    req.value = std::move(fragments[slot]);
    req.chunk = kv::ChunkInfo{value_size, static_cast<std::uint32_t>(slot),
                              static_cast<std::uint16_t>(codec_->k()),
                              static_cast<std::uint16_t>(codec_->m())};
    req.trace = trace;
    fanout.pending.push_back(
        client().guarded_future(node_of(owner), std::move(req)));
    fanout.owners.push_back(owner);
  }
  return fanout;
}

sim::Task<ErasureEngine::WriteTally> ErasureEngine::collect_fragments(
    FragmentFanout fanout) {
  WriteTally tally;
  const SimTime t0 = sim().now();
  for (std::size_t i = 0; i < fanout.pending.size(); ++i) {
    const kv::Response resp = co_await fanout.pending[i].wait();
    if (resp.code == StatusCode::kOk) {
      ++tally.stored;
      // Passive load learning from the piggybacked queue depth; purely
      // observational (no events, no RNG), so timing is unchanged.
      load_.observe_rtt(fanout.owners[i], sim().now() - t0,
                        resp.queue_depth);
    } else if (resp.code == StatusCode::kWrongEpoch) {
      tally.bounced = true;
    }
  }
  co_return tally;
}

Status ErasureEngine::write_verdict(const WriteTally& tally,
                                    bool named) const {
  // A stale-epoch bounce outranks durability: the whole op re-runs under
  // the refreshed ring (Engine::set_impl), re-placing every fragment, so
  // partial old-ring placements never count as stored.
  if (tally.bounced) {
    return Status{StatusCode::kWrongEpoch, "stale placement epoch"};
  }
  // Any k fragments reconstruct the value: k acks make the write durable,
  // whatever the other n-k owners answered.
  if (tally.stored < codec_->k()) {
    return Status{StatusCode::kUnavailable, "fewer than k fragments stored"};
  }
  if (!named) {
    return Status{StatusCode::kUnavailable, "no directory owner acked"};
  }
  return Status::Ok();
}

sim::Task<Status> ErasureEngine::set_server_encode(kv::Key key,
                                                   SharedBytes value,
                                                   OpPhases* phases) {
  const LiveSlot ls = co_await pick_live_slot(key);
  if (ls.degraded) {
    ++stats().degraded_sets;
    phases->degraded = true;
  }
  if (!ls.slot) co_return Status{StatusCode::kUnavailable, "no live server"};
  const std::size_t target_index = ring().slot_index(key, *ls.slot);
  const net::NodeId target = node_of(target_index);

  kv::Request req;
  req.verb = kv::Verb::kSetEncode;
  req.key = std::move(key);
  req.value = std::move(value);
  req.trace = phases->trace;
  const SimDur issue_ns = issue_cost(req.value ? req.value->size() : 0);
  phases->request_ns += issue_ns;
  const SimTime t0 = sim().now();
  const kv::Response resp =
      co_await client().invoke(target, std::move(req));
  if (resp.code == StatusCode::kOk) {
    load_.observe_rtt(target_index, sim().now() - t0, resp.queue_depth);
  }
  if (obs::Tracer* const tr = tracer(); tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "set/request", "engine", t0,
                 issue_ns, phases->trace.trace_id);
    tr->complete(trace_pid(), phases->trace_tid, "set/fanout", "engine",
                 t0 + issue_ns,
                 std::max<SimDur>(0, sim().now() - t0 - issue_ns),
                 phases->trace.trace_id);
  }
  co_return Status{resp.code};
}

sim::Task<Result<Bytes>> ErasureEngine::get_client_decode(kv::Key key,
                                                          OpPhases* phases) {
  Result<AnyK> got = co_await fetch_any_k(key, phases);
  if (!got.ok()) {
    // Server-side encode may still be distributing this key's fragments;
    // the stager holds the full value until every fragment is acked, so
    // one server-side aggregate resolves the race (read-after-write). Too
    // few live owners to select a read set at all is final.
    if (!client_encodes(mode_) &&
        got.status().code() != StatusCode::kTooManyFailures) {
      ++stats().fallback_gets;
      if (flight() != nullptr) {
        flight()->record(sim().now(), client().id(),
                         obs::FlightEventType::kFallback);
      }
      co_return co_await get_server_decode(std::move(key), phases);
    }
    co_return got.status();
  }
  const ec::ChunkLayout layout =
      ec::make_layout(got->value_size, codec_->k(), codec_->alignment());
  const Result<std::span<const ConstByteSpan>> data =
      co_await decode_data(std::move(*got), phases);
  if (!data.ok()) co_return data.status();
  if (!ctx().materialize) co_return Bytes(layout.original_size);
  co_return ec::join_fragments(*data, layout);
}

void ErasureEngine::mark_degraded_get(OpPhases* phases) {
  if (!phases->degraded) ++stats().degraded_gets;
  phases->degraded = true;
}

std::vector<std::size_t> ErasureEngine::load_preference(const kv::Key& key,
                                                        bool randomize,
                                                        bool force) {
  // Cold tracker: nothing learned, keep the deterministic natural order.
  // Without `force`, a preference is only produced when load-aware
  // selection was asked for.
  if ((!force && !hedge_.load_aware) || load_.total_samples() == 0) return {};
  const std::size_t n = codec_->n();
  std::vector<std::size_t> slots(n);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::vector<std::size_t> owners(n);
  const kv::HashRing::Placement place = ring().placement(key);
  for (std::size_t slot = 0; slot < n; ++slot) owners[slot] = place.slot(slot);
  return load_.order_slots(slots, owners, randomize);
}

sim::Task<void> ErasureEngine::fetch_collector(
    ErasureEngine* self, std::shared_ptr<FetchState> st, std::size_t slot,
    bool is_hedge, sim::Future<kv::Response> fut, SimTime issued_at) {
  kv::Response resp = co_await fut.wait();
  if (is_hedge) self->arpe().release_hedge_buffer();
  st->rpc_of_slot[slot] = 0;
  --st->outstanding;
  if (resp.code == StatusCode::kOk) {
    // Passive load learning (observation only: no events, no RNG).
    self->load_.observe_rtt(st->owner[slot], self->sim().now() - issued_at,
                            resp.queue_depth);
    if (st->op_done) {
      // Arrived after the op already completed: fetched bytes were wasted.
      self->stats().hedge_wasted_bytes +=
          resp.value ? resp.value->size() : 0;
    } else {
      st->frag[slot] = std::move(resp.value);
      st->have[slot] = true;
      ++st->ok;
      if (resp.chunk) st->meta = resp.chunk;
    }
  } else if (resp.code != StatusCode::kCancelled) {
    st->worst = resp.code;
    st->available[slot] = false;
    st->failed_any = true;
  }
  st->progress.notify_all();
}

void ErasureEngine::issue_fetch(const kv::Key& skey,
                                const std::shared_ptr<FetchState>& st,
                                std::size_t slot, bool is_hedge,
                                const obs::TraceContext& trace) {
  st->attempted[slot] = true;
  if (is_hedge) st->hedge_slot[slot] = true;
  kv::Request req;
  req.verb = kv::Verb::kGet;
  req.key = kv::chunk_key(skey, slot);
  req.trace = trace;
  sim::Future<kv::Response> fut =
      client().guarded_future(node_of(st->owner[slot]), std::move(req));
  // Remember the rpc id so stragglers can be cancel-resolved at op
  // completion — but only for plain unguarded calls: guarded calls resolve
  // themselves through their deadline, and a failed-fast call has id 0.
  if (client().policy().timeout_ns <= 0) {
    st->rpc_of_slot[slot] = client().last_call_id();
  }
  ++st->outstanding;
  sim().spawn(fetch_collector(this, st, slot, is_hedge, std::move(fut),
                              sim().now()));
}

sim::Task<void> ErasureEngine::hedge_firer(
    ErasureEngine* self, kv::Key skey, std::shared_ptr<FetchState> st,
    std::vector<std::size_t> hedge_slots, obs::TraceContext trace,
    std::uint64_t trace_tid) {
  const std::size_t k = self->codec_->k();
  if (self->hedge_.delay_ns > 0) {
    co_await self->sim().delay(self->hedge_.delay_ns);
  }
  bool fired = false;
  for (const std::size_t slot : hedge_slots) {
    // Late binding: a hedge only fires while the op is still short of k
    // arrivals and its target slot has not failed meanwhile.
    if (st->op_done || st->ok >= k) break;
    if (st->attempted[slot] || !st->available[slot]) continue;
    if (!self->arpe().try_acquire_hedge_buffer()) {
      // Pool tight: hedging is best-effort and must never add
      // backpressure to admitted work.
      ++self->stats().hedges_suppressed;
      break;
    }
    // The duplicate request costs real client CPU — that is the p50 price
    // of hedging and must show up in the schedule.
    co_await self->client().cpu().execute(
        self->issue_cost(skey.size() + 2));
    if (st->op_done || st->ok >= k) {  // op finished while queued on CPU
      self->arpe().release_hedge_buffer();
      break;
    }
    ++self->stats().hedges_fired;
    fired = true;
    if (obs::Tracer* const tr = self->tracer(); tr != nullptr) {
      tr->instant(self->trace_pid(), trace_tid, "hedge/fire", "engine",
                  self->sim().now(), trace.trace_id);
    }
    if (obs::FlightRecorder* const fl = self->flight(); fl != nullptr) {
      fl->record(self->sim().now(), self->node_of(st->owner[slot]),
                 obs::FlightEventType::kHedgeFired, 0,
                 static_cast<std::uint32_t>(self->client().id()));
    }
    self->issue_fetch(skey, st, slot, true, trace);
  }
  if (fired) ++self->stats().hedged_gets;
}

sim::Task<Result<ErasureEngine::AnyK>> ErasureEngine::fetch_any_k(
    kv::Key skey, OpPhases* phases) {
  const std::size_t k = codec_->k();
  const std::size_t n = codec_->n();

  // Working around an owner the membership oracle reports down costs one
  // T_check (Equation 4).
  auto st = std::make_shared<FetchState>(sim(), n);
  bool down = false;
  const kv::HashRing::Placement place = ring().placement(skey);
  for (std::size_t slot = 0; slot < n; ++slot) {
    st->owner[slot] = place.slot(slot);
    if (membership().up(st->owner[slot])) {
      st->available[slot] = true;
    } else {
      down = true;
    }
  }
  if (down) {
    mark_degraded_get(phases);
    co_await sim().delay(membership().check_cost_ns());
  }

  // Codec-aware selection (an MDS code takes the first k live owners, data
  // slots first; LRC skips dependent rows), load-ranked with
  // power-of-two-choices among near-equal scores when load-aware.
  std::vector<std::size_t> preference =
      load_preference(skey, /*randomize=*/hedge_.load_aware,
                      /*force=*/false);
  Result<std::vector<std::size_t>> selected =
      preference.empty()
          ? codec_->select_read_set(st->available)
          : codec_->select_read_set_ordered(st->available, preference);
  if (!selected.ok()) co_return selected.status();

  // K non-blocking fragment fetches posted back-to-back from one CPU
  // slice; the responses overlap (Equation 8). Hedges pay their own issue
  // cost when they fire; failover replacements ride on this slice.
  const SimDur post_ns = static_cast<SimDur>(k) * issue_cost(skey.size() + 2);
  co_await client().cpu().execute(post_ns);
  phases->request_ns += post_ns;
  obs::Tracer* const tr = tracer();
  if (tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "get/request", "engine",
                 sim().now() - post_ns, post_ns, phases->trace.trace_id);
  }

  const SimTime fetch_t0 = sim().now();
  for (const std::size_t slot : *selected) {
    issue_fetch(skey, st, slot, false, phases->trace);
  }

  // Queue up to Δ hedges over the next-best candidates, fired after the
  // hedge delay if the op is still short of k arrivals.
  if (hedge_.delta > 0) {
    std::vector<std::size_t> pool = preference;
    if (pool.empty()) {
      pool.resize(n);
      std::iota(pool.begin(), pool.end(), std::size_t{0});
    }
    std::vector<std::size_t> hedge_slots;
    for (const std::size_t slot : pool) {
      if (hedge_slots.size() >= hedge_.delta) break;
      if (!st->attempted[slot] && st->available[slot]) {
        hedge_slots.push_back(slot);
      }
    }
    if (!hedge_slots.empty()) {
      sim().spawn(hedge_firer(this, skey, st, std::move(hedge_slots),
                              phases->trace, phases->trace_tid));
    }
  }

  // Late-binding wait: complete on the first k decodable arrivals, and
  // fail over as soon as any fetch dies (dead owner, RPC timeout, or a
  // miss on a live server) rather than when its siblings return.
  bool complete = false;
  std::vector<std::size_t> decode_set;
  for (;;) {
    if (st->ok >= k) {
      Result<std::vector<std::size_t>> fin =
          codec_->select_read_set(st->have);
      if (fin.ok()) {
        decode_set = std::move(fin).value();
        complete = true;
        break;
      }
    }
    if (st->failed_any) {
      // A failure is a degraded read even when the membership oracle
      // claimed every owner was up; re-selection pays one more T_check.
      st->failed_any = false;
      mark_degraded_get(phases);
      co_await sim().delay(membership().check_cost_ns());
      // Failover re-selection always consults the load scores (when the
      // tracker has learned any), so repeated retries spread over the
      // survivors instead of piling onto the first one.
      preference = load_preference(skey, /*randomize=*/hedge_.load_aware,
                                   /*force=*/true);
      Result<std::vector<std::size_t>> resel =
          preference.empty()
              ? codec_->select_read_set(st->available)
              : codec_->select_read_set_ordered(st->available, preference);
      if (resel.ok()) {
        for (const std::size_t slot : *resel) {
          if (st->attempted[slot] || st->have[slot]) continue;
          ++stats().failover_fetches;
          if (flight() != nullptr) {
            flight()->record(sim().now(), node_of(st->owner[slot]),
                             obs::FlightEventType::kFailover, 0,
                             static_cast<std::uint32_t>(client().id()));
          }
          issue_fetch(skey, st, slot, false, phases->trace);
        }
      } else if (st->outstanding == 0) {
        break;  // not enough survivors and nothing in flight
      }
      continue;
    }
    if (st->outstanding == 0) break;
    co_await st->progress.wait();
  }

  // Bind the result: everything still in flight is a straggler. Cancel
  // through the stale-response machinery and resolve the futures so the
  // collectors unwind instead of leaking parked until process exit.
  st->op_done = true;
  std::size_t cancelled = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::uint64_t rpc_id = st->rpc_of_slot[slot];
    if (rpc_id == 0) continue;
    ++cancelled;
    client().cancel_resolve(rpc_id);
  }
  if (st->meta != std::nullopt && cancelled > 0) {
    // A cancelled fetch's response (in flight or about to be produced) is
    // one fragment of wasted wire work.
    stats().hedge_wasted_bytes +=
        cancelled * ec::make_layout(st->meta->original_size, k,
                                    codec_->alignment())
                        .fragment_size;
  }
  if (complete) {
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!st->have[slot]) continue;
      if (std::find(decode_set.begin(), decode_set.end(), slot) ==
          decode_set.end()) {
        stats().hedge_wasted_bytes +=
            st->frag[slot] ? st->frag[slot]->size() : 0;
      } else if (st->hedge_slot[slot]) {
        ++stats().hedge_wins;
        if (flight() != nullptr) {
          flight()->record(sim().now(), node_of(st->owner[slot]),
                           obs::FlightEventType::kHedgeWon, 0,
                           static_cast<std::uint32_t>(client().id()));
        }
      }
    }
  }
  if (tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "get/fetch", "engine",
                 fetch_t0, sim().now() - fetch_t0, phases->trace.trace_id);
  }
  if (!complete || !st->meta) {
    co_return Status{st->worst, "missing fragments"};
  }
  co_return AnyK{std::move(decode_set), std::move(st->frag),
                 st->meta->original_size};
}

sim::Task<Result<std::span<const ConstByteSpan>>> ErasureEngine::decode_data(
    AnyK got, OpPhases* phases) {
  const std::size_t k = codec_->k();
  const std::size_t n = codec_->n();
  std::size_t missing_data = k;
  for (const std::size_t slot : got.decode_set) {
    if (slot < k) --missing_data;
  }

  if (missing_data > 0) {
    // T_decode on the client CPU, only on the degraded path.
    const SimDur decode_ns =
        cost_.decode_ns(got.value_size, static_cast<unsigned>(missing_data));
    co_await client().cpu().execute(decode_ns);
    phases->compute_ns += decode_ns;
    if (obs::Tracer* const tr = tracer(); tr != nullptr) {
      tr->complete(trace_pid(), phases->trace_tid, "get/decode", "engine",
                   sim().now() - decode_ns, decode_ns,
                   phases->trace.trace_id);
    }
  }
  if (!ctx().materialize) co_return std::span<const ConstByteSpan>{};

  // Rebuild missing data fragments for real. Runs on the engine-wide
  // scratch (no co_await from here until the caller has consumed `data`):
  // fetched fragments copy-assign into slots whose capacity persists across
  // ops, and absent slots are zero-filled in place for the reconstruct
  // kernels.
  const std::size_t fragment_size =
      ec::make_layout(got.value_size, k, codec_->alignment()).fragment_size;
  DecodeScratch& sc = scratch_;
  sc.storage.resize(n);
  sc.present.assign(n, false);
  for (const std::size_t slot : got.decode_set) {
    if (!got.frag[slot]) continue;
    sc.storage[slot] = *got.frag[slot];
    sc.present[slot] = true;
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!sc.present[slot]) sc.storage[slot].assign(fragment_size, std::byte{0});
  }
  sc.spans.assign(sc.storage.begin(), sc.storage.end());
  if (missing_data > 0) {
    const Status s = codec_->reconstruct_data(sc.spans, sc.present);
    if (!s.ok()) co_return s;
  }
  sc.data.assign(sc.storage.begin(),
                 sc.storage.begin() + static_cast<std::ptrdiff_t>(k));
  co_return std::span<const ConstByteSpan>(sc.data);
}

sim::Task<Result<Bytes>> ErasureEngine::get_server_decode(kv::Key key,
                                                          OpPhases* phases) {
  const LiveSlot ls = co_await pick_live_slot(key);
  if (ls.degraded) mark_degraded_get(phases);
  if (!ls.slot) {
    co_return Status{StatusCode::kUnavailable, "no live server"};
  }
  const std::size_t target_index = ring().slot_index(key, *ls.slot);
  const net::NodeId target = node_of(target_index);

  kv::Request req;
  req.verb = kv::Verb::kGetDecode;
  req.key = std::move(key);
  req.trace = phases->trace;
  const SimDur issue_ns = issue_cost(req.key.size());
  phases->request_ns += issue_ns;
  const SimTime t0 = sim().now();
  kv::Response resp = co_await client().invoke(target, std::move(req));
  if (resp.code == StatusCode::kOk) {
    load_.observe_rtt(target_index, sim().now() - t0, resp.queue_depth);
  }
  if (obs::Tracer* const tr = tracer(); tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "get/request", "engine", t0,
                 issue_ns, phases->trace.trace_id);
    tr->complete(trace_pid(), phases->trace_tid, "get/fetch", "engine",
                 t0 + issue_ns,
                 std::max<SimDur>(0, sim().now() - t0 - issue_ns),
                 phases->trace.trace_id);
  }
  if (resp.code != StatusCode::kOk) co_return Status{resp.code};
  co_return resp.value ? Bytes(*resp.value) : Bytes{};
}

// ---- Packed-stripe (batched small-object) write path ------------------
//
// Small values append into a per-primary-server stripe buffer; the stripe
// seals when full or when the group-commit timer fires, is encoded ONCE,
// and its n fragments fan out under the stripe's own base key. The key ->
// {stripe, offset, len} locator is installed, replicated m+1 ways, at the
// key's natural owner set — which, because the ring places slot j at
// (primary + j) % S, is shared by every record in the stripe: one batched
// install RPC per directory owner.

sim::Task<void> ErasureEngine::unlink_locator(
    kv::Key key, std::vector<sim::Future<kv::Response>>* out) {
  const std::size_t m = codec_->m();
  const kv::HashRing::Placement place = ring().placement(key);
  for (std::size_t j = 0; j <= m; ++j) {
    const std::size_t owner = place.slot(j);
    if (!membership().up(owner)) continue;
    kv::Request req;
    req.verb = kv::Verb::kDelete;
    req.key = key;
    req.stripe_lookup = true;
    out->push_back(client().call_async(node_of(owner), std::move(req)));
  }
  co_return;
}

sim::Task<Status> ErasureEngine::set_routed_packed(kv::Key key,
                                                   SharedBytes value,
                                                   OpPhases* phases) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t rec = ec::stripe_record_bytes(key.size(), value_size);
  if (value_size < pack_.pack_threshold && rec <= pack_.stripe_capacity) {
    co_return co_await set_packed(std::move(key), std::move(value), phases);
  }
  // Large value while packing is on: the per-key path stores it. Any
  // earlier packed life of this key must not resurrect — drop its staged
  // copy (the commit-time filter then skips its locator install) and
  // unlink committed locator entries.
  staging_.erase(key);
  std::vector<sim::Future<kv::Response>> unlink;
  co_await unlink_locator(key, &unlink);
  const Status s = co_await set_client_encode(key, std::move(value), phases);
  for (auto& f : unlink) co_await f.wait();
  co_return s;
}

sim::Task<Status> ErasureEngine::set_packed(kv::Key key, SharedBytes value,
                                            OpPhases* phases) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t rec = ec::stripe_record_bytes(key.size(), value_size);
  const std::size_t primary = ring().slot_index(key, 0);

  if (const auto it = active_.find(primary);
      it != active_.end() && it->second->used + rec > pack_.stripe_capacity) {
    seal_stripe(primary, /*by_timer=*/false);
  }
  std::shared_ptr<StripeState>& slot = active_[primary];
  if (!slot) {
    slot = std::make_shared<StripeState>(sim());
    slot->skey = kv::stripe_key(client().id(), stripe_seq_++);
    sim().spawn(stripe_timer(this, slot, primary));
  }
  const std::shared_ptr<StripeState> st = slot;  // survives map rehash

  kv::StripeIndexEntry entry;
  entry.key = key;
  entry.len = static_cast<std::uint32_t>(value_size);
  if (ctx().materialize) {
    const ConstByteSpan v =
        value ? ConstByteSpan(*value) : ConstByteSpan{};
    entry.offset =
        static_cast<std::uint32_t>(ec::stripe_append(st->buffer, key, v));
    st->used = st->buffer.size();
  } else {
    entry.offset = static_cast<std::uint32_t>(
        st->used + ec::kStripeRecordHeader + key.size());
    st->used += rec;
  }
  st->records.push_back(std::move(entry));
  st->values.push_back(value);
  staging_[key] = std::move(value);
  ++stats().packed_sets;
  stats().stripe_record_bytes += rec;

  // The append itself (copy into the stripe buffer) is this op's only
  // request-phase CPU; encode and fan-out are paid once per stripe by the
  // commit coroutine.
  const SimDur append_ns = issue_cost(rec);
  co_await client().cpu().execute(append_ns);
  phases->request_ns += append_ns;
  if (obs::Tracer* const tr = tracer(); tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "set/append", "engine",
                 sim().now() - append_ns, append_ns, phases->trace.trace_id);
  }

  // The Set future resolves at stripe durability (group commit).
  co_await st->done.wait();
  co_return st->result;
}

void ErasureEngine::seal_stripe(std::size_t primary, bool by_timer) {
  const auto it = active_.find(primary);
  if (it == active_.end()) return;
  std::shared_ptr<StripeState> st = std::move(it->second);
  active_.erase(it);
  st->sealed = true;
  ++stats().stripes_sealed;
  if (by_timer) ++stats().stripes_timer_sealed;
  fill_permille_sum_ += st->used * 1000 / pack_.stripe_capacity;
  stats().stripe_fill_x1000 = fill_permille_sum_ / stats().stripes_sealed;
  sim().spawn(commit_stripe(this, std::move(st)));
}

sim::Task<void> ErasureEngine::stripe_timer(ErasureEngine* self,
                                            std::shared_ptr<StripeState> st,
                                            std::size_t primary) {
  co_await self->sim().delay(self->pack_.group_commit_interval);
  if (st->sealed) co_return;  // a capacity seal beat the timer
  assert(self->active_.count(primary) != 0 &&
         self->active_[primary] == st && "unsealed stripe must be active");
  self->seal_stripe(primary, /*by_timer=*/true);
}

sim::Task<void> ErasureEngine::commit_stripe(ErasureEngine* self,
                                             std::shared_ptr<StripeState> st) {
  // Durability work may never be dropped: block for a bounce buffer
  // (BufferPool's no-steal rule keeps hedges from jumping this queue).
  // Writers keep appending into the NEW active stripe meanwhile — the
  // double-buffered group commit.
  co_await self->arpe().acquire_commit_buffer();

  const std::size_t k = self->codec_->k();
  const std::size_t m = self->codec_->m();
  const std::size_t n = self->codec_->n();
  const std::size_t stripe_bytes = st->used;
  const ec::ChunkLayout layout =
      ec::make_layout(stripe_bytes, k, self->codec_->alignment());

  // Records overwritten (or deleted) while the stripe was filling have a
  // stale staged pointer; skip their locator installs so the newer value
  // wins. The stripe bytes themselves become garbage.
  std::vector<kv::StripeIndexEntry> live;
  live.reserve(st->records.size());
  for (std::size_t i = 0; i < st->records.size(); ++i) {
    const auto sit = self->staging_.find(st->records[i].key);
    if (sit != self->staging_.end() && sit->second == st->values[i]) {
      live.push_back(st->records[i]);
    }
  }

  // One contiguous CPU slice: encode the stripe, then post all fragment
  // and locator-install sends back-to-back (same rationale as
  // set_client_encode).
  std::size_t index_payload = 0;
  for (const auto& e : live) index_payload += e.key.size() + 12;
  const SimDur encode_ns = self->cost_.encode_ns(stripe_bytes);
  const SimDur post_ns =
      static_cast<SimDur>(n) * self->issue_cost(layout.fragment_size) +
      static_cast<SimDur>(m + 1) *
          self->issue_cost(st->skey.size() + index_payload);
  const SimTime cpu_t0 = self->sim().now();
  co_await self->client().cpu().execute(encode_ns + post_ns);
  if (obs::Tracer* const tr = self->tracer(); tr != nullptr) {
    const std::uint64_t aid = std::hash<std::string>{}(st->skey);
    tr->async_span(self->trace_pid(), aid, "stripe/encode", "engine", cpu_t0,
                   encode_ns);
    tr->async_span(self->trace_pid(), aid + 1, "stripe/post", "engine",
                   cpu_t0 + encode_ns, post_ns);
  }

  // Fragment fan-out under the stripe's own base key (the repair
  // coordinator discovers and rebuilds stripes through the same
  // chunk-key scan as per-key fragments).
  FragmentFanout fanout = self->post_fragments(
      st->skey, stripe_bytes,
      ec::encode_fragments(*self->codec_, layout,
                           self->ctx().materialize ? &st->buffer : nullptr),
      obs::TraceContext{});

  // Batched locator installs: all records share their primary (that is
  // how they were grouped), so they share the full m+1 directory owner
  // set — one RPC per owner for the whole stripe.
  std::vector<sim::Future<kv::Response>> dir_pending;
  if (!live.empty()) {
    const kv::HashRing::Placement place =
        self->ring().placement(st->records.front().key);
    for (std::size_t j = 0; j <= m; ++j) {
      const std::size_t owner = place.slot(j);
      if (!self->membership().up(owner)) continue;
      kv::Request req;
      req.verb = kv::Verb::kSetStripeIndex;
      req.key = st->skey;
      req.chunk = kv::ChunkInfo{stripe_bytes, 0,
                                static_cast<std::uint16_t>(k),
                                static_cast<std::uint16_t>(m)};
      req.stripe_index = live;
      dir_pending.push_back(
          self->client().guarded_future(self->node_of(owner),
                                        std::move(req)));
    }
  }

  const SimTime fanout_t0 = self->sim().now();
  WriteTally tally = co_await self->collect_fragments(std::move(fanout));
  std::size_t dir_ok = 0;
  for (auto& f : dir_pending) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) ++dir_ok;
    if (resp.code == StatusCode::kWrongEpoch) tally.bounced = true;
  }
  if (obs::Tracer* const tr = self->tracer(); tr != nullptr) {
    tr->async_span(self->trace_pid(),
                   std::hash<std::string>{}(st->skey) + 2, "stripe/fanout",
                   "engine", fanout_t0, self->sim().now() - fanout_t0);
  }

  // The per-key verdict, plus one directory condition: at least one
  // directory owner must name the stripe (the directory itself is
  // recoverable from stripe contents — records embed their keys). A
  // bounce retries every waiter's Set whole, re-staging its record under
  // the refreshed ring.
  st->result = self->write_verdict(tally, live.empty() || dir_ok >= 1);

  // Staged copies served read-your-writes until now; drop the ones this
  // stripe owns (pointer match — overwrites keep their newer entry).
  for (std::size_t i = 0; i < st->records.size(); ++i) {
    const auto sit = self->staging_.find(st->records[i].key);
    if (sit != self->staging_.end() && sit->second == st->values[i]) {
      self->staging_.erase(sit);
    }
  }

  self->arpe().release_commit_buffer();
  st->done.set();
}

sim::Task<Result<Bytes>> ErasureEngine::get_packed(kv::Key key,
                                                   OpPhases* phases) {
  // Read-your-writes: a value whose stripe has not committed yet is served
  // from the staged copy, exactly like the server-encode stager.
  if (const auto it = staging_.find(key); it != staging_.end()) {
    ++stats().staged_reads;
    co_return it->second ? Bytes(*it->second) : Bytes{};
  }

  const std::size_t k = codec_->k();
  const std::size_t m = codec_->m();
  bool degraded = false;

  // Locator query at every live directory owner in parallel: any kOk with
  // a locator wins; unanimous kNotFound means the key never packed (or was
  // unlinked) and the legacy per-key path applies. Querying all owners
  // (not just the first live one) tolerates an owner that missed its
  // install while it was down.
  std::vector<sim::Future<kv::Response>> lookups;
  std::vector<std::size_t> lookup_owners;
  const kv::HashRing::Placement place = ring().placement(key);
  for (std::size_t j = 0; j <= m; ++j) {
    const std::size_t owner = place.slot(j);
    if (!membership().up(owner)) {
      degraded = true;
      continue;
    }
    kv::Request req;
    req.verb = kv::Verb::kGet;
    req.key = key;
    req.stripe_lookup = true;
    req.trace = phases->trace;
    lookups.push_back(client().guarded_future(node_of(owner),
                                              std::move(req)));
    lookup_owners.push_back(owner);
  }
  if (degraded) {
    mark_degraded_get(phases);
    co_await sim().delay(membership().check_cost_ns());
  }
  if (lookups.empty()) {
    co_return Status{StatusCode::kUnavailable, "no live directory owner"};
  }
  const SimDur lookup_post_ns =
      static_cast<SimDur>(lookups.size()) * issue_cost(key.size());
  co_await client().cpu().execute(lookup_post_ns);
  phases->request_ns += lookup_post_ns;
  obs::Tracer* const tr = tracer();
  if (tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "get/locator", "engine",
                 sim().now() - lookup_post_ns, lookup_post_ns,
                 phases->trace.trace_id);
  }

  std::optional<kv::StripeLoc> loc;
  std::size_t notfound = 0;
  const SimTime lookup_t0 = sim().now();
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    const kv::Response resp = co_await lookups[i].wait();
    if (resp.code == StatusCode::kOk && resp.stripe) {
      if (!loc) loc = resp.stripe;
      load_.observe_rtt(lookup_owners[i], sim().now() - lookup_t0,
                        resp.queue_depth);
    } else if (resp.code == StatusCode::kNotFound) {
      ++notfound;
    }
  }
  if (!loc) {
    if (notfound == lookups.size()) {
      // Definitively unpacked: the per-key path.
      co_return co_await get_client_decode(std::move(key), phases);
    }
    mark_degraded_get(phases);
    co_return Status{StatusCode::kUnavailable, "locator unreachable"};
  }
  ++stats().packed_get_hits;
  if (loc->len == 0) co_return Bytes{};

  const ec::ChunkLayout layout =
      ec::make_layout(loc->stripe_bytes, k, codec_->alignment());
  const ec::FragmentRange range =
      ec::owning_fragments(layout, loc->offset, loc->len);

  // Healthy path: fetch only the whole data fragments covering the
  // sub-slot range (usually one, at most two for threshold-sized values).
  bool healthy = true;
  const kv::HashRing::Placement stripe_place = ring().placement(loc->stripe);
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    if (!membership().up(stripe_place.slot(slot))) {
      healthy = false;
      break;
    }
  }
  if (healthy) {
    const SimDur post_ns = static_cast<SimDur>(range.count()) *
                           issue_cost(loc->stripe.size() + 2);
    co_await client().cpu().execute(post_ns);
    phases->request_ns += post_ns;
    const SimTime fetch_t0 = sim().now();
    std::vector<sim::Future<kv::Response>> pending;
    for (std::size_t slot = range.first; slot <= range.last; ++slot) {
      kv::Request req;
      req.verb = kv::Verb::kGet;
      req.key = kv::chunk_key(loc->stripe, slot);
      req.trace = phases->trace;
      pending.push_back(client().guarded_future(
          node_of(ring().slot_index(loc->stripe, slot)), std::move(req)));
    }
    std::vector<SharedBytes> frag(range.count());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      kv::Response resp = co_await pending[i].wait();
      if (resp.code == StatusCode::kOk) {
        load_.observe_rtt(ring().slot_index(loc->stripe, range.first + i),
                          sim().now() - fetch_t0, resp.queue_depth);
        frag[i] = std::move(resp.value);
      } else {
        healthy = false;
      }
    }
    if (tr != nullptr) {
      tr->complete(trace_pid(), phases->trace_tid, "get/fetch", "engine",
                   fetch_t0, sim().now() - fetch_t0, phases->trace.trace_id);
    }
    if (healthy) {
      if (!ctx().materialize) co_return Bytes(loc->len);
      std::vector<ConstByteSpan> spans;
      spans.reserve(range.count());
      for (const SharedBytes& f : frag) spans.push_back(*f);
      co_return ec::extract_from_fragments(spans, range, layout, loc->offset,
                                           loc->len);
    }
  }

  // Degraded: read the whole stripe through the any-k fetch, decode its
  // data fragments, then splice the value out.
  ++stats().packed_degraded_gets;
  mark_degraded_get(phases);
  Result<AnyK> got = co_await fetch_any_k(loc->stripe, phases);
  if (!got.ok()) co_return got.status();
  const Result<std::span<const ConstByteSpan>> data =
      co_await decode_data(std::move(*got), phases);
  if (!data.ok()) co_return data.status();
  if (!ctx().materialize) co_return Bytes(loc->len);
  co_return ec::extract_from_fragments(
      data->subspan(range.first, range.count()), range, layout, loc->offset,
      loc->len);
}

}  // namespace hpres::resilience
