// Online erasure-coding engine: the paper's primary contribution
// (Section IV). One engine instance implements one of the four offload
// designs, combining client- or server-side encode with client- or
// server-side decode:
//
//   Era-CE-CD  client encodes + distributes; client aggregates + decodes
//   Era-SE-SD  server encodes + distributes; server aggregates + decodes
//   Era-SE-CD  server encodes; client aggregates + decodes (hybrid)
//   Era-CE-SD  client encodes; server aggregates + decodes (hybrid,
//              included for completeness; the paper sets it aside)
#pragma once

#include <span>
#include <unordered_map>

#include "ec/chunker.h"
#include "ec/codec.h"
#include "ec/cost_model.h"
#include "ec/stripe.h"
#include "resilience/engine.h"

namespace hpres::resilience {

enum class EraMode : std::uint8_t { kCeCd, kSeSd, kSeCd, kCeSd };

[[nodiscard]] constexpr std::string_view to_string(EraMode m) noexcept {
  switch (m) {
    case EraMode::kCeCd: return "era-ce-cd";
    case EraMode::kSeSd: return "era-se-sd";
    case EraMode::kSeCd: return "era-se-cd";
    case EraMode::kCeSd: return "era-ce-sd";
  }
  return "era-?";
}

[[nodiscard]] constexpr bool client_encodes(EraMode m) noexcept {
  return m == EraMode::kCeCd || m == EraMode::kCeSd;
}
[[nodiscard]] constexpr bool client_decodes(EraMode m) noexcept {
  return m == EraMode::kCeCd || m == EraMode::kSeCd;
}

class ErasureEngine final : public Engine {
 public:
  /// The codec must outlive the engine. Server-side modes additionally
  /// require every server to have ServerEcContext enabled (see
  /// Cluster::enable_server_ec). `hedge` adds delayed hedge fetches and
  /// load-aware selection to the any-k fragment read; the default fetches
  /// exactly k fragments in natural slot order. `pack` configures the
  /// batched small-object write path (stripe packing + group commit); the
  /// default (threshold 0) keeps every Set on the legacy per-key path.
  /// Packing requires client-side encode AND decode (kCeCd) — other modes
  /// ignore it.
  ErasureEngine(EngineContext ctx, const ec::Codec& codec,
                ec::CostModel cost, EraMode mode, ArpeParams arpe = {},
                HedgeParams hedge = {}, PackParams pack = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(mode_);
  }
  [[nodiscard]] std::size_t fault_tolerance() const noexcept override {
    return codec_->m();
  }
  [[nodiscard]] EraMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ec::Codec& codec() const noexcept { return *codec_; }
  [[nodiscard]] const HedgeParams& hedge() const noexcept { return hedge_; }
  [[nodiscard]] const PackParams& pack() const noexcept { return pack_; }
  /// Packing is live for this engine (configured on, and the mode is
  /// client-encode + client-decode).
  [[nodiscard]] bool packing_active() const noexcept {
    return pack_.enabled() && mode_ == EraMode::kCeCd;
  }
  [[nodiscard]] const NodeLoadTracker* load_tracker()
      const noexcept override {
    return &load_;
  }

 protected:
  sim::Task<Status> do_set(kv::Key key, SharedBytes value,
                           OpPhases* phases) override;
  sim::Task<Result<Bytes>> do_get(kv::Key key, OpPhases* phases) override;

  /// Deletes every fragment (and any staged full copy) of the key.
  sim::Task<Status> do_del(kv::Key key) override;

 private:
  // Set paths.
  sim::Task<Status> set_client_encode(kv::Key key, SharedBytes value,
                                      OpPhases* phases);
  sim::Task<Status> set_server_encode(kv::Key key, SharedBytes value,
                                      OpPhases* phases);

  /// Fragment Sets in flight, in slot order (live owners only).
  struct FragmentFanout {
    std::vector<sim::Future<kv::Response>> pending;
    std::vector<std::size_t> owners;  ///< server index per pending Set
  };
  /// What the owners answered to one fragment fan-out.
  struct WriteTally {
    std::size_t stored = 0;  ///< fragments acked kOk
    bool bounced = false;    ///< an owner answered kWrongEpoch
  };

  /// The client fragment fan-out of every erasure write (per-key Sets and
  /// stripe commits): one guarded kSet per live owner of `skey`'s n slots,
  /// carrying ChunkInfo{value_size, slot, k, m}. Posts only; the caller
  /// has already charged the issue CPU.
  FragmentFanout post_fragments(const kv::Key& skey, std::size_t value_size,
                                std::vector<SharedBytes> fragments,
                                const obs::TraceContext& trace);

  /// Awaits the fan-out's acks in slot order, tallying stored fragments
  /// and stale-epoch bounces and feeding acked RTTs to the load tracker.
  sim::Task<WriteTally> collect_fragments(FragmentFanout fanout);

  /// The one k-of-n durability verdict: a bounce is kWrongEpoch (the Set
  /// retries whole), fewer than k stored fragments is kUnavailable, else
  /// OK. `named` is false when a stripe commit reached no directory owner,
  /// which also makes it kUnavailable.
  [[nodiscard]] Status write_verdict(const WriteTally& tally,
                                     bool named = true) const;

  // Get paths.
  /// Per-key client-decode Get: fetch_any_k, decode_data, join. SE-CD falls
  /// back to the server-side path when fragments are missing.
  sim::Task<Result<Bytes>> get_client_decode(kv::Key key, OpPhases* phases);
  sim::Task<Result<Bytes>> get_server_decode(kv::Key key, OpPhases* phases);

  /// k fragments of one stripe (a per-key value, or a packed stripe) that
  /// together decode it, as bound by fetch_any_k.
  struct AnyK {
    std::vector<std::size_t> decode_set;  ///< k decodable slots
    std::vector<SharedBytes> frag;        ///< per slot; valid in decode_set
    std::size_t value_size = 0;           ///< stripe payload bytes
  };

  /// The any-k erasure read (Equation 8, late binding) of the stripe stored
  /// under `skey`: selects k slots (load-ranked when load-aware), posts
  /// their fetches from one CPU slice, completes on the first k decodable
  /// arrivals, fails over on the first failed fetch, fires up to Δ delayed
  /// hedges when delta > 0, and cancels stragglers.
  sim::Task<Result<AnyK>> fetch_any_k(kv::Key skey, OpPhases* phases);

  /// The decode tail: charges T_decode when data fragments are missing,
  /// rebuilds them in scratch_ and returns the k data fragments (empty in
  /// size-only mode). The spans stay valid until the caller's next
  /// co_await.
  sim::Task<Result<std::span<const ConstByteSpan>>> decode_data(
      AnyK got, OpPhases* phases);

  /// Marks the Get degraded, counting it in degraded_gets once per op.
  void mark_degraded_get(OpPhases* phases);

  // ---- Packed-stripe (batched small-object) write path ----------------

  /// One stripe being filled or committed. shared_ptr-held: the group
  /// commit coroutine, the seal timer and every waiting Set all reference
  /// it, and any of them can outlive the others.
  struct StripeState {
    explicit StripeState(sim::Simulator& s) : done(s) {}
    kv::Key skey;                 ///< synthetic stripe base key
    Bytes buffer;                 ///< packed records (materialize mode)
    std::size_t used = 0;         ///< payload bytes appended so far
    std::vector<kv::StripeIndexEntry> records;
    std::vector<SharedBytes> values;  ///< staged copy per record
    bool sealed = false;
    sim::Event done;              ///< set at durability (or failure)
    Status result = Status::Ok();
  };

  /// Set router when packing is active: small values append into stripes;
  /// large values take the per-key path and unlink any stale locator left
  /// by an earlier packed life of the key.
  sim::Task<Status> set_routed_packed(kv::Key key, SharedBytes value,
                                      OpPhases* phases);

  /// Appends the record into the primary's active stripe (sealing and
  /// rolling over when it would not fit) and waits for that stripe's group
  /// commit to reach durability.
  sim::Task<Status> set_packed(kv::Key key, SharedBytes value,
                               OpPhases* phases);

  /// Resolves a Get through the stripe locator directory: staging-map hit,
  /// else locator query at the key's directory owners, then a sub-slot
  /// fragment-range fetch. When owners of the needed range are down or a
  /// range fetch fails, the whole stripe is read through fetch_any_k and
  /// decoded. Falls back to the per-key path when no locator exists.
  sim::Task<Result<Bytes>> get_packed(kv::Key key, OpPhases* phases);

  /// Detaches the active stripe of `primary` and spawns its group commit.
  void seal_stripe(std::size_t primary, bool by_timer);

  /// Group-commit timer: seals `st` after pack().group_commit_interval if
  /// a capacity seal has not beaten it to it.
  static sim::Task<void> stripe_timer(ErasureEngine* self,
                                      std::shared_ptr<StripeState> st,
                                      std::size_t primary);

  /// Encodes the sealed stripe once, fans fragments + locator installs
  /// out, resolves durability and wakes every waiting Set.
  static sim::Task<void> commit_stripe(ErasureEngine* self,
                                       std::shared_ptr<StripeState> st);

  /// Removes the key's locator entry from its live directory owners
  /// (overwrite-by-large-value and deletes).
  sim::Task<void> unlink_locator(kv::Key key,
                                 std::vector<sim::Future<kv::Response>>* out);

  /// Shared per-op state between fetch_any_k, its spawned per-fetch
  /// collectors and the hedge-firer. shared_ptr-held: collectors of
  /// never-resolving futures (crash-after-send with no RpcPolicy) may
  /// outlive the op.
  struct FetchState {
    FetchState(sim::Simulator& sim, std::size_t n)
        : progress(sim), frag(n), have(n, false), available(n, false),
          attempted(n, false), hedge_slot(n, false), rpc_of_slot(n, 0),
          owner(n, 0) {}
    sim::Condition progress;            ///< notified on every fetch event
    std::vector<SharedBytes> frag;      ///< arrived fragment per slot
    std::vector<bool> have;             ///< frag[slot] is valid
    std::vector<bool> available;        ///< slot not (yet) known-failed
    std::vector<bool> attempted;        ///< a fetch was issued for slot
    std::vector<bool> hedge_slot;       ///< that fetch was a hedge
    std::vector<std::uint64_t> rpc_of_slot;  ///< live unguarded rpc id or 0
    std::vector<std::size_t> owner;     ///< slot -> server index
    std::optional<kv::ChunkInfo> meta;
    std::size_t ok = 0;                 ///< fragments arrived
    std::size_t outstanding = 0;        ///< fetches in flight
    StatusCode worst = StatusCode::kNotFound;
    bool failed_any = false;            ///< a fetch failed since last check
    bool op_done = false;               ///< the op has completed/abandoned
  };

  /// Awaits one fetch and folds the outcome into the shared state.
  static sim::Task<void> fetch_collector(ErasureEngine* self,
                                         std::shared_ptr<FetchState> st,
                                         std::size_t slot, bool is_hedge,
                                         sim::Future<kv::Response> fut,
                                         SimTime issued_at);

  /// Sleeps the hedge delay, then fires up to Δ extra fetches if the op is
  /// still short of k arrivals (borrowing spare ARPE buffers; suppressed
  /// when the pool is tight).
  static sim::Task<void> hedge_firer(ErasureEngine* self, kv::Key skey,
                                     std::shared_ptr<FetchState> st,
                                     std::vector<std::size_t> hedge_slots,
                                     obs::TraceContext trace,
                                     std::uint64_t trace_tid);

  /// Issues one fragment fetch for `slot` and spawns its collector.
  void issue_fetch(const kv::Key& skey, const std::shared_ptr<FetchState>& st,
                   std::size_t slot, bool is_hedge,
                   const obs::TraceContext& trace);

  /// Candidate slot order by per-server load score (empty = natural order:
  /// tracker cold, or load-aware selection off and `force` false).
  [[nodiscard]] std::vector<std::size_t> load_preference(const kv::Key& key,
                                                         bool randomize,
                                                         bool force);

  /// First live owner among the key's n slots (for SE/SD targets), paying
  /// T_check when the designated one is down. `degraded` reports whether a
  /// dead owner had to be skipped so the caller can bump the right
  /// per-verb counter; nullopt slot if all n are dead.
  struct LiveSlot {
    std::optional<std::size_t> slot;
    bool degraded = false;
  };
  sim::Task<LiveSlot> pick_live_slot(kv::Key key);

  const ec::Codec* codec_;
  ec::CostModel cost_;
  EraMode mode_;
  HedgeParams hedge_;
  PackParams pack_;
  /// Active (filling) stripe per primary server index. Sealed stripes are
  /// detached and live on only through their commit coroutine.
  std::unordered_map<std::size_t, std::shared_ptr<StripeState>> active_;
  /// Read-your-writes staging: key -> value appended to a stripe that has
  /// not reached durability yet. Erased at commit only when the pointer
  /// still matches (a newer overwrite keeps its own entry).
  std::unordered_map<kv::Key, SharedBytes> staging_;
  std::uint64_t stripe_seq_ = 0;
  std::uint64_t fill_permille_sum_ = 0;  ///< feeds stripe_fill_x1000 mean
  /// Per-server queue-depth/RTT EWMAs, fed passively by every response this
  /// engine sees (piggybacked Server::queue_depth). Only consulted when a
  /// read path asks for a load preference.
  NodeLoadTracker load_;

  /// Reusable buffers for decode_data's materialize step. The region that
  /// fills and consumes them is synchronous (no co_await between decode_data
  /// filling them and its caller joining or extracting from `data`), so one
  /// scratch per engine is race-free even with many in-flight ops; reuse
  /// makes the fused decode path allocation-free per op once the vectors
  /// reach steady-state capacity.
  struct DecodeScratch {
    std::vector<Bytes> storage;
    std::vector<ByteSpan> spans;
    std::vector<bool> present;
    std::vector<ConstByteSpan> data;  ///< the k data fragments handed back
  };
  DecodeScratch scratch_;
};

}  // namespace hpres::resilience
