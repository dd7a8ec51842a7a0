// Per-rank metrics registry: counters, gauges, and fixed-bucket log-scale
// histograms, all mergeable across ranks (same discipline as
// comm::MessageStats::merge).
//
// The paper's evaluation is built on per-phase, per-message-type
// accounting (Fig. 4 message/byte breakdowns, the §5.4 batch-size
// congestion study). This registry is the general-purpose half of that:
// every subsystem registers named metrics once (cheap, setup-time) and
// records through dense MetricIds on the hot path (an indexed add).
// After a run the driver merges the per-rank registries into one view and
// the exporters emit machine-readable JSON.
//
// Merge semantics per kind:
//   counter    sum
//   gauge      last-set value and peak both merge by max (gauges track
//              instantaneous levels like queue depth; the cross-rank
//              aggregate of interest is the high-water mark)
//   histogram  bucket-wise sum (fixed log2 bucket layout, so merging is
//              associative and commutative)
//
// Unlike MessageStats, merge matches metrics *by name*, so registries
// with different registration orders — or disjoint metric sets — merge
// correctly; a name registered with different kinds on the two sides is a
// programming error and throws without modifying the destination.
//
// Thread safety: counter add() is safe to call concurrently from one
// rank's thread-pool workers — the hot-path increment is a relaxed
// atomic fetch_add (RelaxedCounter below), and reads/merges happen after
// the pool's join, which orders them. Everything else (registration,
// gauges, histograms, merge, reset, write_json) keeps the original
// discipline: one registry belongs to one rank and is only touched by
// that rank's driver thread, exactly like MessageStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dnnd::telemetry {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// What a metric's value measures. Units drive the regression gate's
/// skip/compare decision *by kind* instead of by name regex: deterministic
/// counts diff exactly, byte gauges diff under a looser memory tolerance,
/// and wall-clock / schedule-shape / externally-observed values are
/// excluded. New metric families therefore cannot silently bypass the
/// drift gate by picking an unanticipated name.
enum class MetricUnit : std::uint8_t {
  kCount,     // deterministic count — diffed exactly
  kBytes,     // tagged memory — diffed under the memory tolerance
  kTimeUs,    // wall clock — varies run to run, never diffed
  kSchedule,  // parallel-schedule shape (pool tasks) — never diffed
  kObserved,  // measured from the environment (RSS) — never diffed
};

[[nodiscard]] constexpr const char* unit_name(MetricUnit unit) noexcept {
  switch (unit) {
    case MetricUnit::kCount: return "count";
    case MetricUnit::kBytes: return "bytes";
    case MetricUnit::kTimeUs: return "time_us";
    case MetricUnit::kSchedule: return "schedule";
    case MetricUnit::kObserved: return "observed";
  }
  return "count";
}

/// Fixed-layout log2 histogram over uint64 samples.
///
/// Bucket 0 holds the value 0; bucket i (1 <= i <= 64) holds values with
/// bit width i, i.e. the range [2^(i-1), 2^i - 1]. The layout is the same
/// for every instance, which is what makes merge a plain bucket-wise sum.
class LogHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 65;

  void record(std::uint64_t value) noexcept {
    ++buckets_[bucket_index(value)];
    ++count_;
    sum_ += static_cast<double>(value);
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  /// Doubles clamp into the uint64 domain: negatives and sub-1 values
  /// record as 0, +inf and anything >= 2^64 saturate into the top bucket,
  /// NaN is dropped (counted nowhere — there is no meaningful bucket).
  void record_clamped(double value) noexcept {
    if (value != value) return;  // NaN
    if (value <= 0.0) {
      record(0);
    } else if (value >= 18446744073709551615.0) {  // 2^64 - 1 rounded up
      record(std::numeric_limits<std::uint64_t>::max());
    } else {
      record(static_cast<std::uint64_t>(value));
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Min/max of recorded samples; min() > max() iff count() == 0.
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i);
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept {
    std::size_t width = 0;
    while (value != 0) {
      value >>= 1;
      ++width;
    }
    return width;  // 0 for value 0, else bit width (1..64)
  }
  /// Inclusive value range covered by bucket i.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i == 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  /// Approximate percentile (p in [0,1]) from the log2 buckets: the upper
  /// bound of the bucket holding the p-th sample, clamped to the observed
  /// [min, max]. Exact for values that landed in single-value buckets
  /// (0 and 1); otherwise accurate to one bucket width — good enough for
  /// the order-of-magnitude latency questions the stats tooling answers.
  [[nodiscard]] double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    const double target = p * static_cast<double>(count_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      cumulative += static_cast<double>(buckets_[i]);
      if (cumulative >= target && buckets_[i] != 0) {
        const auto upper = static_cast<double>(bucket_upper(i));
        const auto lo = static_cast<double>(min_);
        const auto hi = static_cast<double>(max_);
        return upper < lo ? lo : (upper > hi ? hi : upper);
      }
    }
    return static_cast<double>(max_);
  }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ != 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  void reset() noexcept { *this = LogHistogram{}; }

 private:
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kNumBuckets, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Counter cell whose increment is a relaxed atomic fetch_add, so pool
/// workers inside one rank can bump shared counters (engine.tasks,
/// engine.distance_evals from parallel eval tasks) without a data race.
/// Relaxed is sufficient: counters are pure sums with no ordering
/// relationship to other data, and every read that matters happens after
/// the pool's join barrier. Copy/assign use relaxed load+store so the
/// value-semantics the registry relies on (vector relocation on intern,
/// Metric copies in merge) keep working; those only ever run on the
/// driver thread while no workers are recording.
class RelaxedCounter {
 public:
  RelaxedCounter() noexcept = default;
  RelaxedCounter(std::uint64_t v) noexcept : v_(v) {}  // NOLINT(*-explicit-*)
  RelaxedCounter(const RelaxedCounter& other) noexcept
      : v_(other.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) noexcept {
    v_.store(other.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const noexcept {  // NOLINT(*-explicit-*)
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class MetricsRegistry {
 public:
  /// One named metric's full state. Public so read-only consumers (the
  /// time-series Sampler, exporters, tests) can walk the registry in
  /// registration order without a name round-trip per metric.
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    MetricUnit unit = MetricUnit::kCount;
    RelaxedCounter counter;
    std::int64_t gauge = 0;
    std::int64_t gauge_peak = std::numeric_limits<std::int64_t>::min();
    LogHistogram hist;
  };

  /// Register-or-lookup by name. Registering an existing name with the
  /// same kind returns the original id (so independently constructed
  /// subsystems can share a metric); a different kind throws. The unit of
  /// the first registration wins — later lookups may pass the default.
  MetricId counter(std::string_view name,
                   MetricUnit unit = MetricUnit::kCount) {
    return intern(name, MetricKind::kCounter, unit);
  }
  MetricId gauge(std::string_view name, MetricUnit unit = MetricUnit::kCount) {
    return intern(name, MetricKind::kGauge, unit);
  }
  MetricId histogram(std::string_view name,
                     MetricUnit unit = MetricUnit::kCount) {
    return intern(name, MetricKind::kHistogram, unit);
  }

  // -- hot-path recording (ids come from registration above) -------------

  void add(MetricId id, std::uint64_t n = 1) noexcept {
    metrics_[id].counter += n;
  }
  void set(MetricId id, std::int64_t value) noexcept {
    auto& m = metrics_[id];
    m.gauge = value;
    if (value > m.gauge_peak) m.gauge_peak = value;
  }
  /// Sets a gauge together with an externally tracked peak (the memory
  /// ledger's high-water mark can exceed any value ever passed to set(),
  /// because charges between two syncs rise and fall unobserved).
  void set_with_peak(MetricId id, std::int64_t value,
                     std::int64_t peak) noexcept {
    set(id, value);
    auto& m = metrics_[id];
    if (peak > m.gauge_peak) m.gauge_peak = peak;
  }
  void record(MetricId id, std::uint64_t value) noexcept {
    metrics_[id].hist.record(value);
  }
  void record_clamped(MetricId id, double value) noexcept {
    metrics_[id].hist.record_clamped(value);
  }

  // -- reads (by name, for tests and exporters) --------------------------

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const {
    return index_.find(std::string(name)) != index_.end();
  }
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
    return find(name, MetricKind::kCounter).counter;
  }
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const {
    return find(name, MetricKind::kGauge).gauge;
  }
  [[nodiscard]] std::int64_t gauge_peak(std::string_view name) const {
    return find(name, MetricKind::kGauge).gauge_peak;
  }
  [[nodiscard]] MetricUnit unit_of(std::string_view name) const {
    const auto it = index_.find(std::string(name));
    if (it == index_.end()) {
      throw std::out_of_range("MetricsRegistry: unknown metric '" +
                              std::string(name) + "'");
    }
    return metrics_[it->second].unit;
  }
  [[nodiscard]] const LogHistogram& histogram_of(std::string_view name) const {
    return find(name, MetricKind::kHistogram).hist;
  }
  /// All metrics in registration order (stable across a run).
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }

  /// Merges by name (see file header for per-kind semantics). Strong
  /// exception guarantee: a kind conflict throws std::invalid_argument
  /// and leaves this registry untouched.
  void merge(const MetricsRegistry& other);

  /// Zeroes every value but keeps names, kinds, and ids (mirror of
  /// MessageStats::reset).
  void reset() noexcept;

  /// Emits the registry as one JSON object:
  ///   {"counters":{...},"gauges":{name:{"value":v,"peak":p}},
  ///    "histograms":{name:{"count":c,"sum":s,"min":m,"max":M,
  ///                        "buckets":[{"lo":l,"hi":h,"n":c},...]}},
  ///    "units":{name:"bytes"|"time_us"|"schedule"|"observed"}}
  /// Members appear in registration order within each section; only
  /// non-empty histogram buckets are listed. The units section lists only
  /// metrics whose unit is not the kCount default, so the counters map
  /// keeps its flat name->value shape for existing consumers.
  void write_json(std::ostream& os) const;

 private:
  MetricId intern(std::string_view name, MetricKind kind, MetricUnit unit);
  [[nodiscard]] const Metric& find(std::string_view name,
                                   MetricKind kind) const;

  std::vector<Metric> metrics_;
  std::unordered_map<std::string, MetricId> index_;
};

}  // namespace dnnd::telemetry
