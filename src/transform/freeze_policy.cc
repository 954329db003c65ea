#include "transform/freeze_policy.h"

#include <algorithm>
#include <cmath>

namespace mainline::transform {

FreezePolicy::FreezePolicy(const Config &config) : config_(config) {
  if (config_.min_period.count() < 1) config_.min_period = Config().min_period;
  if (config_.max_period < config_.min_period) config_.max_period = config_.min_period;
  config_.initial_period =
      std::clamp(config_.initial_period, config_.min_period, config_.max_period);
  period_ms_ = static_cast<double>(config_.initial_period.count());
}

std::chrono::milliseconds FreezePolicy::OnPassComplete(const PassFeedback &feedback) {
  double next = period_ms_;
  if (feedback.queue_depth > kTargetQueueDepth) {
    // Proportional cut: a queue twice the target halves the period.
    const double ratio = static_cast<double>(kTargetQueueDepth) /
                         static_cast<double>(feedback.queue_depth);
    next = period_ms_ * std::max(ratio, kMaxShrink);
  } else if (feedback.queue_depth == 0 && feedback.blocks_frozen == 0) {
    next = period_ms_ * kBackoff;
  }
  // Writer-starvation guard: with duty cycle d, a pass of length p must be
  // followed by at least p * (1-d)/d of sleep. An empty pass (pass_us == 0)
  // contributes a floor of 0 — the guard never divides by pass statistics.
  const double pass_ms = static_cast<double>(feedback.pass_us) / 1000.0;
  const double floor_ms = pass_ms * (1.0 - kMaxDutyCycle) / kMaxDutyCycle;
  next = std::max(next, floor_ms);
  period_ms_ = std::clamp(next, static_cast<double>(config_.min_period.count()),
                          static_cast<double>(config_.max_period.count()));
  return CurrentPeriod();
}

std::chrono::milliseconds FreezePolicy::CurrentPeriod() const {
  return std::chrono::milliseconds(static_cast<int64_t>(std::lround(period_ms_)));
}

}  // namespace mainline::transform
