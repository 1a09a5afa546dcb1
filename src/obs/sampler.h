// Periodic gauge sampler: reads a set of registered gauges (ARPE window
// occupancy, buffer-pool usage, fabric in-flight bytes, server queue
// depth, ...) at a fixed simulated interval and emits them as Chrome
// trace_event counter samples ("C" events), giving a time-series view
// alongside the spans.
//
// The sampler is a ShardRuntime quiesce hook. The hook caps windows at the
// next interval boundary, so samples land on exact boundaries and the
// series is deterministic for a fixed (seed, shard count). Each gauge is
// registered with the tracer domain it records into: pass the owning
// shard's domain so every counter series stays single-writer. A gauge that
// reads cross-shard state is still safe, because hooks run while every
// shard thread is parked. Sampling is read-only — it never perturbs
// workload timing, so enabling it changes no benchmark result.
//
// Lifecycle: start() samples at the current quiesced instant and then on
// every interval boundary while events are pending; request_stop(), called
// at quiescence, takes one final sample for the last partial interval.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/trace.h"
#include "sim/shard_runtime.h"

namespace hpres::obs {

class Sampler {
 public:
  Sampler(sim::ShardRuntime& runtime, SimDur interval_ns)
      : runtime_(&runtime), interval_(interval_ns) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler();

  /// Registers one gauge recording into `domain` under process `pid`;
  /// `read` must stay valid until the sampler stops. A null or disabled
  /// domain still accumulates stats but emits no trace counters.
  void add_gauge(Tracer* domain, std::uint32_t pid, std::string name,
                 std::function<std::int64_t()> read) {
    series_.push_back(
        Series{domain, pid, std::move(name), std::move(read), {}});
  }

  /// Registers the quiesce hook (samples at the current quiesced instant,
  /// then every interval). Call between run() calls. No-op when the
  /// interval is not positive or no gauge records into an enabled tracer.
  void start();

  /// Takes one final sample at the quiesced instant (so changes in the last
  /// partial interval are never dropped) and stops sampling. Call between
  /// run() calls. Idempotent; a no-op on a sampler that never started.
  void request_stop();

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t num_gauges() const noexcept {
    return series_.size();
  }
  /// Running min/mean/max of series `i` over all samples taken.
  [[nodiscard]] const RunningStats& series_stats(std::size_t i) const {
    return series_.at(i).stats;
  }

 private:
  struct Series {
    Tracer* domain;
    std::uint32_t pid;
    std::string name;
    std::function<std::int64_t()> read;
    RunningStats stats;
  };

  /// Quiesce-hook body: samples every boundary due at or before `min_next`
  /// and returns the next boundary.
  SimTime on_quiesce(SimTime min_next);
  void sample_at(SimTime now);

  sim::ShardRuntime* runtime_;
  SimDur interval_;
  SimTime next_ = 0;  ///< next sample boundary once started
  std::vector<Series> series_;
  std::uint64_t samples_ = 0;
  std::size_t hook_id_ = 0;
  bool hook_armed_ = false;
  bool stopped_ = false;
};

}  // namespace hpres::obs
