#include "common/cancel.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.hpp"

namespace drai {

bool SleepUnlessCancelled(double ms, const CancelToken& token) {
  // Chunked sleep so a cancel lands within ~2ms regardless of total length.
  Deadline end = Deadline::AfterMs(ms);
  while (!end.expired()) {
    if (token.Cancelled()) return false;
    double left_ms = end.RemainingSeconds() * 1e3;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(left_ms, 2.0)));
  }
  return !token.Cancelled();
}

}  // namespace drai
