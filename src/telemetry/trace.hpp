// Phase-scoped trace spans, cross-rank flow events, and the Chrome-trace
// (catapult) exporter.
//
// Each rank owns a TraceBuffer of events: complete spans ("ph":"X" in the
// trace-event format) plus flow start/finish records ("ph":"s"/"f") that
// stitch a sender-side event to the receiver-side handler span it caused.
// RAII TraceSpans stamp wall time against the process-global monotonic
// clock (util::monotonic_us), so events from different ranks share one
// timeline; the exporter additionally subtracts a per-run origin so every
// run's trace starts near zero even when several Environments live in one
// process.
//
// The exporter writes the JSON object form of the Trace Event Format that
// chrome://tracing and Perfetto load directly: pid = simulated rank,
// tid = logical thread within the rank (0 = the rank's driver thread),
// with metadata records naming both. Flow events carry a shared "id", so
// the viewer draws an arrow from the send site on rank A to the handler
// span on rank B — the §4.3 Type-1 → Type-2+ → Type-3 reply chains line
// up visually across rank tracks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dnnd::telemetry {

/// Microseconds since the process-global telemetry epoch (the first call
/// in the process). Monotonic; shared by every rank in the simulation and
/// by the structured logger (util::monotonic_us under the hood).
[[nodiscard]] std::uint64_t now_us();

/// Renders a trace/span id the way every exporter spells it ("0x" + hex),
/// so trace.json flow ids and structured-log trace fields compare equal.
[[nodiscard]] std::string hex_id(std::uint64_t id);

struct TraceEvent {
  std::string name;
  std::string category;
  std::uint64_t ts_us = 0;   ///< start, micros since the telemetry epoch
  std::uint64_t dur_us = 0;  ///< duration in micros ('X' events only)
  std::uint32_t tid = 0;     ///< logical thread within the rank
  /// Trace-event phase: 'X' = complete span, 's' = flow start,
  /// 'f' = flow finish (bound to the enclosing slice at its timestamp).
  char ph = 'X';
  std::uint64_t flow_id = 0;  ///< shared id linking 's' and 'f' records
  /// Pre-rendered JSON object emitted as "args" when non-empty (e.g.
  /// {"queue_us":12,"hop":2}); the writer does not re-escape it.
  std::string args;
};

/// Per-rank event buffer. Not thread-safe: owned and written by one
/// rank's thread, like MessageStats.
class TraceBuffer {
 public:
  void add(TraceEvent event) { events_.push_back(std::move(event)); }
  void add_complete(std::string name, std::string category,
                    std::uint64_t ts_us, std::uint64_t dur_us,
                    std::uint32_t tid = 0) {
    TraceEvent e;
    e.name = std::move(name);
    e.category = std::move(category);
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.tid = tid;
    events_.push_back(std::move(e));
  }
  /// Flow start ('s') / finish ('f') records; `ts_us` must fall inside the
  /// slice that should anchor the arrow on this rank's track.
  void add_flow(char ph, std::string name, std::uint64_t ts_us,
                std::uint64_t flow_id, std::uint32_t tid = 0) {
    TraceEvent e;
    e.name = std::move(name);
    e.category = "flow";
    e.ts_us = ts_us;
    e.tid = tid;
    e.ph = ph;
    e.flow_id = flow_id;
    events_.push_back(std::move(e));
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// RAII span: records one complete event into `buffer` on destruction.
/// A null buffer (default-constructed or moved-from) makes the span a
/// no-op that never reads the clock.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceBuffer* buffer, const char* name, const char* category,
            std::uint32_t tid = 0)
      : buffer_(buffer), name_(name), category_(category), tid_(tid) {
    if (buffer_ != nullptr) start_us_ = now_us();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    buffer_ = std::exchange(other.buffer_, nullptr);
    name_ = other.name_;
    category_ = other.category_;
    tid_ = other.tid_;
    start_us_ = other.start_us_;
    return *this;
  }

  ~TraceSpan() {
    if (buffer_ == nullptr) return;
    const std::uint64_t end = now_us();
    buffer_->add_complete(name_, category_, start_us_, end - start_us_, tid_);
  }

 private:
  TraceBuffer* buffer_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  std::uint32_t tid_ = 0;
  std::uint64_t start_us_ = 0;
};

/// One rank's contribution to the merged trace.
struct RankTrace {
  int rank = 0;
  const TraceBuffer* buffer = nullptr;
};

/// Writes the merged per-rank buffers as a Chrome trace (JSON object
/// format): every 'X' event becomes a complete record with pid = rank and
/// tid = event.tid, flow events become "ph":"s"/"f" records sharing an
/// "id" (the cross-rank stitch), preceded by process_name/thread_name
/// metadata so the viewer labels rows "rank N" / "driver".
///
/// `origin_us` is subtracted from every timestamp (clamped at zero): pass
/// the run's start time so every rank's spans share a per-run zero rather
/// than the process-global epoch.
void write_chrome_trace(std::ostream& os, std::span<const RankTrace> ranks,
                        std::uint64_t origin_us = 0);

}  // namespace dnnd::telemetry
