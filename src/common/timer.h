// Monotonic stopwatch and thread CPU clock used by the executor and
// benchmarks.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>

namespace dmac {

/// Wall-clock stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time the calling thread has consumed, in nanoseconds. Blocking
/// (waits, sleeps, time spent descheduled) does not advance it. Costs a
/// system call, unlike the vDSO-served wall clock behind Timer.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace dmac
