// Process-global monotonic clock, microsecond resolution.
//
// Every timestamped artifact a run produces — trace spans, flow events,
// time-series snapshots — must share one origin or
// they cannot be correlated offline. This is that origin: the first call
// in the process pins the epoch, and every later call (from any thread /
// simulated rank) reports microseconds since it. Exporters additionally
// subtract a *per-run* origin so artifacts from consecutive runs in one
// process both start near zero (telemetry/trace.hpp).
#pragma once

#include <cstdint>

namespace dnnd::util {

/// Microseconds since the process-global monotonic epoch (pinned by the
/// first call in the process). Monotonic and thread-safe.
[[nodiscard]] std::uint64_t monotonic_us();

}  // namespace dnnd::util
