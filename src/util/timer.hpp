// Wall-clock timing helpers for the benchmark harness.
#pragma once

#include <chrono>

namespace dnnd::util {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  using clock = std::chrono::steady_clock;

  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  clock::time_point start_;
};

}  // namespace dnnd::util
