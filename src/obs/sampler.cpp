#include "obs/sampler.h"

#include <algorithm>

namespace hpres::obs {

Sampler::~Sampler() {
  if (hook_armed_) runtime_->remove_quiesce_hook(hook_id_);
}

void Sampler::start() {
  const bool traced = std::any_of(
      series_.begin(), series_.end(), [](const Series& s) {
        return s.domain != nullptr && s.domain->enabled();
      });
  if (hook_armed_ || !traced || interval_ <= 0) return;
  next_ = runtime_->now();  // the first sample lands at the start instant
  hook_id_ = runtime_->add_quiesce_hook(
      [this](SimTime min_next) { return on_quiesce(min_next); });
  hook_armed_ = true;
}

void Sampler::sample_at(SimTime now) {
  for (Series& s : series_) {
    const std::int64_t v = s.read();
    s.stats.record(static_cast<double>(v));
    if (s.domain != nullptr && s.domain->enabled()) {
      s.domain->counter(s.pid, s.name, now, v);
    }
  }
  ++samples_;
}

SimTime Sampler::on_quiesce(SimTime min_next) {
  constexpr SimTime kNever = sim::Simulator::kNever;
  if (stopped_) return kNever;
  while (min_next != kNever && next_ <= min_next) {
    sample_at(next_);
    next_ += interval_;
  }
  // At full quiescence nothing is pending; request_stop() covers the final
  // partial interval.
  return min_next == kNever ? kNever : next_;
}

void Sampler::request_stop() {
  if (!hook_armed_ || stopped_) return;
  sample_at(runtime_->now());
  stopped_ = true;
}

}  // namespace hpres::obs
