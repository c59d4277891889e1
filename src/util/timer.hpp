// Wall-clock timers used by the harnesses and by the simulated runtime.
//
// Two kinds of time exist in this codebase:
//   * measured time  — real wall-clock of this process (util::Timer), used
//     for harness-level reporting only;
//   * modeled time   — seconds charged by sim::MachineModel against measured
//     work counters, used for every paper-facing number.
// Keeping the two strictly separate is what makes the reproduction honest:
// results never depend on the speed of the machine the simulation runs on.
#pragma once

#include <chrono>
#include <cstdint>

namespace pastis::util {

/// Monotonic stopwatch. Construction starts the clock.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pastis::util
