#include "transform/freeze_policy.h"

#include <algorithm>
#include <cmath>

namespace mainline::transform {

FreezePolicy::Config FreezePolicy::Config::Pinned(std::chrono::milliseconds period) {
  Config config;
  config.min_period = config.max_period = config.initial_period = period;
  return config;
}

FreezePolicy::FreezePolicy() : FreezePolicy(Config()) {}

FreezePolicy::FreezePolicy(const Config &config) : config_(config) {
  const Config defaults;
  if (config_.min_period.count() < 1) config_.min_period = defaults.min_period;
  if (config_.max_period < config_.min_period) config_.max_period = config_.min_period;
  config_.initial_period =
      std::clamp(config_.initial_period, config_.min_period, config_.max_period);
  if (config_.backoff <= 1.0) config_.backoff = defaults.backoff;
  if (config_.max_duty_cycle <= 0.0 || config_.max_duty_cycle > 1.0) {
    config_.max_duty_cycle = defaults.max_duty_cycle;
  }
  if (config_.max_shrink <= 0.0 || config_.max_shrink >= 1.0) {
    config_.max_shrink = defaults.max_shrink;
  }
  period_ms_ = static_cast<double>(config_.initial_period.count());
}

std::chrono::milliseconds FreezePolicy::OnPassComplete(const PassFeedback &feedback) {
  double next = period_ms_;
  if (feedback.queue_depth > config_.target_queue_depth) {
    // Proportional cut: a queue twice the target halves the period. The
    // divisor is the queue depth, which the branch guarantees is >= 1 even
    // when the target is configured to 0.
    const double ratio = static_cast<double>(config_.target_queue_depth) /
                         static_cast<double>(feedback.queue_depth);
    next = period_ms_ * std::max(ratio, config_.max_shrink);
  } else if (feedback.queue_depth == 0 && feedback.blocks_frozen == 0) {
    next = period_ms_ * config_.backoff;
  }
  // Writer-starvation guard: with duty cycle d, a pass of length p must be
  // followed by at least p * (1-d)/d of sleep. An empty pass (pass_us == 0)
  // contributes a floor of 0 — the guard never divides by pass statistics.
  const double pass_ms = static_cast<double>(feedback.pass_us) / 1000.0;
  const double floor_ms = pass_ms * (1.0 - config_.max_duty_cycle) / config_.max_duty_cycle;
  next = std::max(next, floor_ms);
  period_ms_ = std::clamp(next, static_cast<double>(config_.min_period.count()),
                          static_cast<double>(config_.max_period.count()));
  return CurrentPeriod();
}

std::chrono::milliseconds FreezePolicy::CurrentPeriod() const {
  return std::chrono::milliseconds(static_cast<int64_t>(std::lround(period_ms_)));
}

}  // namespace mainline::transform
