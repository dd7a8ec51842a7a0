// Per-rank telemetry facade.
//
// Instrumented code (comm layer, engines, drivers, query service) talks
// to this class only: register metric ids at setup time, then add / set /
// record / span on the hot path. Telemetry owns a MetricsRegistry, a
// MemoryLedger and a TraceBuffer and forwards every call to them.
#pragma once

#include <string_view>

#include "telemetry/memory.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace dnnd::telemetry {

// Always true: telemetry has one build. The benchmark asserts it.
inline constexpr bool kEnabled = true;

class Telemetry {
 public:
  MetricId counter(std::string_view name,
                   MetricUnit unit = MetricUnit::kCount) {
    return metrics_.counter(name, unit);
  }
  MetricId gauge(std::string_view name, MetricUnit unit = MetricUnit::kCount) {
    return metrics_.gauge(name, unit);
  }
  MetricId histogram(std::string_view name,
                     MetricUnit unit = MetricUnit::kCount) {
    return metrics_.histogram(name, unit);
  }

  void add(MetricId id, std::uint64_t n = 1) noexcept { metrics_.add(id, n); }
  void set(MetricId id, std::int64_t value) noexcept {
    metrics_.set(id, value);
  }
  void set_with_peak(MetricId id, std::int64_t value,
                     std::int64_t peak) noexcept {
    metrics_.set_with_peak(id, value, peak);
  }
  void record(MetricId id, std::uint64_t value) noexcept {
    metrics_.record(id, value);
  }
  void record_clamped(MetricId id, double value) noexcept {
    metrics_.record_clamped(id, value);
  }

  /// RAII phase span; `name` and `category` must outlive the span
  /// (string literals at every call site).
  [[nodiscard]] TraceSpan span(const char* name, const char* category,
                               std::uint32_t tid = 0) {
    return TraceSpan(&trace_, name, category, tid);
  }
  void add_trace_event(TraceEvent event) { trace_.add(std::move(event)); }

  /// Interns a memory-ledger tag. Subsystems hold the returned handle and
  /// charge bytes against it; see telemetry/memory.hpp.
  [[nodiscard]] MemTag mem_tag(std::string_view name) {
    return MemTag(&memory_, memory_.tag(name));
  }

  /// Publishes every ledger tag into a same-named bytes gauge so memory
  /// flows through the existing gauge machinery (merge, sampler
  /// snapshots, metrics.json) without a parallel export path. The
  /// ledger's own peak is carried via set_with_peak because it can
  /// exceed any synced instantaneous value.
  void sync_memory() {
    memory_.for_each([&](const std::string& name, std::int64_t cur,
                         std::int64_t peak) {
      metrics_.set_with_peak(metrics_.gauge(name, MetricUnit::kBytes), cur,
                             peak);
    });
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] MemoryLedger& memory() noexcept { return memory_; }
  [[nodiscard]] const MemoryLedger& memory() const noexcept {
    return memory_;
  }
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }

  void reset() noexcept {
    metrics_.reset();
    memory_.reset();
    trace_.clear();
  }

 private:
  MetricsRegistry metrics_;
  MemoryLedger memory_;
  TraceBuffer trace_;
};

}  // namespace dnnd::telemetry
