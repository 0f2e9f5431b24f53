// drai/common/cancel.hpp
//
// Cooperative cancellation. A CancelToken is a cheap, copyable handle to a
// shared cancellation state; copies observe the same flag. Cancellation is
// cooperative: nothing is preempted — long-running code polls `Cancelled()`
// (stage bodies via `StageContext::Cancelled()`, injected hangs via
// `SleepUnlessCancelled`) and unwinds with kDeadlineExceeded. Deadlines
// live outside the token: the attempt watchdog cancels an attempt whose hard
// deadline passed.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hpp"

namespace drai {

/// Shared cooperative cancellation flag with a reason.
/// Copying is cheap (shared_ptr); all copies see the same state. Thread-safe.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  /// Trip the flag. The first caller's reason wins; later calls are no-ops.
  void Cancel(const std::string& reason) const {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->reason = reason;
    state_->cancelled.store(true, std::memory_order_release);
  }

  /// True once Cancel() was called. One atomic load; safe to poll at record
  /// granularity inside stage bodies.
  [[nodiscard]] bool Cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  /// The reason passed to Cancel(), or "" before anyone cancelled.
  [[nodiscard]] std::string reason() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->reason;
  }

  /// kDeadlineExceeded carrying the cancellation reason — what a polling
  /// stage body should return after observing Cancelled().
  [[nodiscard]] Status AsStatus() const {
    std::string why = reason();
    return DeadlineExceeded(why.empty() ? "deadline exceeded" : why);
  }

  /// Tokens sharing state compare equal — used to tell "same attempt".
  friend bool operator==(const CancelToken& a, const CancelToken& b) {
    return a.state_ == b.state_;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::mutex mu;      // guards reason
    std::string reason;
  };
  std::shared_ptr<State> state_;
};

/// Sleep for ~`ms`, waking early if `token` trips. Returns false when the
/// sleep was cut short by cancellation. Used by fault injection to model a
/// hang that a watchdog can still cancel.
bool SleepUnlessCancelled(double ms, const CancelToken& token);

}  // namespace drai
