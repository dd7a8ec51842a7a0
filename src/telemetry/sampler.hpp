// Live time-series sampler: labelled snapshots of every registered
// counter and gauge, across all ranks, into timeseries.json.
//
// Aggregate metrics (metrics.json) answer "how much total"; the paper's
// §4.4 congestion questions — does the batch cadence cause inbox bursts,
// which rank's distance-eval counter stalls a barrier — need "how much,
// when, on which rank". The Sampler provides that: the runner snapshots
// after every NN-Descent iteration.
//
// Cost model: a snapshot walks each rank's registry once (setup-scale
// metric counts, called once per iteration — never on the message hot
// path).
//
// Determinism: the clock is injectable (tests pin a fake clock), and
// snapshots copy values in registration order, so for a fixed schedule of
// sample() calls the JSON document is byte-stable.
//
// Thread safety: none. Snapshots are taken between phases on the driver
// thread, when no rank thread is recording (the same discipline as
// Environment::aggregate_metrics).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace dnnd::telemetry {

/// One rank's metric values at one instant (names in registration order).
struct RankSample {
  int rank = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name → (value, peak-so-far)
  std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
      gauges;
};

/// One cross-rank snapshot.
struct Snapshot {
  std::uint64_t t_us = 0;  ///< clock at snapshot time
  std::uint64_t seq = 0;   ///< 1-based snapshot index
  std::string label;       ///< "iteration" or caller-provided
  std::vector<RankSample> ranks;
};

class Sampler {
 public:
  using Clock = std::function<std::uint64_t()>;

  /// `clock` defaults to telemetry::now_us; tests inject a fake for
  /// determinism.
  explicit Sampler(Clock clock = {});

  /// Registers `registry` as rank `rank`'s source. Pointers must outlive
  /// the sampler; attach order defines the per-snapshot rank order.
  void attach(int rank, const MetricsRegistry* registry);

  /// Takes a snapshot (the per-iteration hook).
  void sample(std::string_view label);

  [[nodiscard]] const std::vector<Snapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  void clear() noexcept { snapshots_.clear(); }

  /// Emits the dnnd.timeseries.v1 document:
  ///   {"schema":"dnnd.timeseries.v1","ranks":N,
  ///    "snapshots":[{"t_us":...,"seq":...,"label":...,
  ///    "per_rank":[{"rank":r,"counters":{...},
  ///                 "gauges":{name:{"value":v,"peak":p}}},...]},...]}
  /// Timestamps are relative to `origin_us` (clamped at zero), matching
  /// the Chrome-trace export so the two artifacts share a timeline.
  void write_json(std::ostream& os, std::uint64_t origin_us = 0) const;

 private:
  Clock clock_;
  std::vector<std::pair<int, const MetricsRegistry*>> sources_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace dnnd::telemetry
