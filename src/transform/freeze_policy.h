#pragma once

#include <chrono>
#include <cstdint>

namespace mainline::transform {

/// Feedback controller for the background TransformPipeline's pass cadence.
///
/// A fixed cadence has to be hand-tuned per workload: too slow and the
/// observer's cold-block backlog (and with it the insert→frozen freshness
/// lag) grows without bound under write bursts; too fast and the
/// pipeline's compaction transactions contend with the writers it is
/// supposed to stay out of the way of. This controller picks the delay
/// before the next pass from what the previous pass saw:
///
///   * backlog (queue depth above `kTargetQueueDepth`): shrink the period
///     proportionally to the overshoot — the deeper the backlog, the harder
///     the cut, but never below `kMaxShrink` of it in one pass — so
///     freshness lag recovers within a few passes;
///   * idle (empty queue, nothing frozen): grow the period by `kBackoff`,
///     so a quiescent table costs almost no background wakeups;
///   * in between: hold, to avoid oscillating around the target.
///
/// Two guards bound the result: it never drops below the duty-cycle floor
/// `pass_duration * (1 - kMaxDutyCycle) / kMaxDutyCycle`, which caps the
/// fraction of wall time the pipeline thread spends transforming — the
/// "don't starve writers" bound, binding exactly when passes are expensive —
/// and it is clamped into [`min_period`, `max_period`] last. A policy pinned
/// with min_period = max_period = initial_period is therefore a fixed
/// cadence: it returns that period whatever the feedback.
///
/// The controller is pure state-in/state-out: the same feedback sequence
/// always produces the same period sequence (no clock reads, no randomness),
/// which is what makes it unit-testable with synthetic sequences. It is not
/// thread-safe; the pipeline's background loop is its only caller.
class FreezePolicy {
 public:
  struct Config {
    std::chrono::milliseconds min_period{1};
    std::chrono::milliseconds max_period{200};
    std::chrono::milliseconds initial_period{10};

    /// \return a fixed cadence: min_period = max_period = initial_period =
    /// `period`, so the policy returns `period` whatever the feedback.
    static Config Pinned(std::chrono::milliseconds period) { return {period, period, period}; }
  };

  /// Queue depth (watched plus pending blocks) tolerated before speeding up.
  static constexpr uint64_t kTargetQueueDepth = 16;
  /// Multiplicative period growth per idle pass.
  static constexpr double kBackoff = 1.25;
  /// Largest fraction of wall time the pipeline may spend in passes.
  static constexpr double kMaxDutyCycle = 0.5;
  /// Hardest single-pass period cut under backlog.
  static constexpr double kMaxShrink = 0.25;

  /// What one pipeline pass observed, in the order the loop learns it.
  struct PassFeedback {
    uint64_t queue_depth = 0;    ///< watched plus pending blocks after the pass
    uint64_t pass_us = 0;        ///< wall time the pass took
    uint32_t blocks_frozen = 0;  ///< work the pass completed
  };

  /// Out-of-range periods are repaired: min_period to at least 1 ms,
  /// max_period to at least min_period, initial_period into the band.
  explicit FreezePolicy(const Config &config);

  /// Fold one pass's outcome into the controller state.
  /// \return the delay to sleep before the next pass.
  std::chrono::milliseconds OnPassComplete(const PassFeedback &feedback);

  /// The delay the controller last decided (or `initial_period` before the
  /// first pass), clamped into [min_period, max_period].
  std::chrono::milliseconds CurrentPeriod() const;

  const Config &GetConfig() const { return config_; }

 private:
  Config config_;
  /// Continuous-valued period so repeated small adjustments are not lost to
  /// millisecond truncation; rounded on the way out.
  double period_ms_;
};

}  // namespace mainline::transform
