// Asynchronous remote-call layer (the YGM substitution, DESIGN.md §2).
//
// YGM's programming model is fire-and-forget RPC: a sender provides a
// handler and arguments for execution on a destination rank; the handler
// runs "at an unspecified time in the future"; a collective barrier waits
// for global quiescence. This class reproduces that model on top of the
// simulated transport:
//
//   * handlers are registered once per rank (same order on every rank,
//     as in SPMD code) and addressed by dense HandlerId;
//   * async() serializes the arguments into a per-destination send buffer
//     (YGM's internal buffering, §4.1) and flushes the buffer to the
//     transport when it exceeds `send_buffer_bytes`. A full buffer is
//     flushed *before* the next message is packed, never mid-pack, so a
//     multi-argument message can never be split across two datagrams;
//   * process_available() delivers inbound messages by invoking handlers;
//     the drivers in Environment run it to quiescence, which is the
//     equivalent of ygm::comm::barrier().
//
// Reliability (DESIGN.md §2 failure model): when the World has a
// FaultInjector installed, every outbound data datagram is stamped with a
// per-(source → dest) sequence number and kept until acknowledged.
// Receivers suppress duplicate sequence numbers (so each application
// message reaches its handler exactly once and the submitted/processed
// counters stay exact — quiescent() remains a true fixpoint under any
// fault schedule) and acknowledge with a cumulative + selective ack.
// Unacknowledged datagrams are retransmitted with capped exponential
// backoff; exhausting the retry budget throws TransportError rather than
// livelocking. When no injector is installed none of this state exists and
// the fast path is identical to the unreliable transport.
//
// Causal tracing: a sampled message carries a TraceContext — trace id,
// the send-side span id (which doubles as the Chrome-trace flow id), hop
// count, and the submission timestamp — inside its envelope. The
// traced/untraced distinction rides the low bit of the handler-id varint,
// so an *untraced* message costs zero extra wire bytes. Handler dispatch
// of a traced message opens a child span (queue latency = handler start −
// submission; duration = handler time), emits the flow-finish event that
// stitches it to the sender, and makes the context current so messages
// the handler sends propagate the trace — Type-1 → Type-2+ → Type-3
// chains stay connected across any number of ranks.
//
// Thread safety: a Communicator belongs to one rank and is only touched by
// that rank's thread (handlers for rank r run on rank r's thread). The
// underlying World does the cross-thread synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/message_stats.hpp"
#include "mpi/world.hpp"
#include "serial/archive.hpp"
#include "telemetry/telemetry.hpp"

namespace dnnd::comm {

/// A handler receives the source rank and an archive positioned at its
/// serialized arguments; it must consume exactly those arguments.
using HandlerFn = std::function<void(int source, serial::InArchive&)>;

/// Propagation stops past this depth: a runaway handler loop cannot grow
/// envelopes without bound. Far above the engine's reply chains (depth 3)
/// and the distributed query's bounded hop walks.
inline constexpr std::uint32_t kMaxTraceHops = 32;

/// Causal trace context as carried in a traced message's envelope.
struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = not traced
  std::uint64_t span_id = 0;   ///< the message's own span id == flow id
  std::uint32_t hop = 0;       ///< 1 for a root message, +1 per handler
  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// Retry/dedup protocol knobs. Ticks are retransmission-clock steps: one
/// tick per process_available() call on the owning rank.
struct RetryConfig {
  std::uint32_t max_retries = 32;           ///< then TransportError
  /// First retransmit delay. Acks ride the receiver's normal processing
  /// loop, so under backlog they take many ticks to come back; too small a
  /// value floods the wire with spurious (deduped but wasted) retransmits.
  std::uint32_t initial_backoff_ticks = 8;
  std::uint32_t max_backoff_ticks = 128;  ///< exponential backoff cap
};

/// Thrown when a datagram exhausts its retry budget: the channel is
/// considered failed and the error surfaces to the engine instead of the
/// barrier spinning forever. Carries full channel context — source, dest,
/// sequence number, attempt count, and the engine epoch (build phase
/// counter) active when the channel died — so a supervisor can log exactly
/// where a build was interrupted.
class TransportError : public std::runtime_error {
 public:
  TransportError(const std::string& what, int source, int dest,
                 std::uint64_t seq, std::uint32_t attempts,
                 std::uint64_t epoch = 0)
      : std::runtime_error(what),
        source_(source),
        dest_(dest),
        seq_(seq),
        attempts_(attempts),
        epoch_(epoch) {}

  [[nodiscard]] int source() const noexcept { return source_; }
  [[nodiscard]] int dest() const noexcept { return dest_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  [[nodiscard]] std::uint32_t attempts() const noexcept { return attempts_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  int source_;
  int dest_;
  std::uint64_t seq_;
  std::uint32_t attempts_;
  std::uint64_t epoch_;
};

/// Thrown by the failure detector when a peer rank has been silent past the
/// configured timeout: the rank is presumed crashed (crash-stop model) and
/// the current phase cannot complete. Deliberately NOT derived from
/// TransportError — phase timing code catches and re-wraps TransportError,
/// while a RankFailureError must propagate intact to the recovery driver.
class RankFailureError : public std::runtime_error {
 public:
  RankFailureError(const std::string& what, int failed_rank, int detected_by,
                   std::uint64_t epoch, std::uint64_t last_heard_tick,
                   std::uint64_t silent_ticks)
      : std::runtime_error(what),
        failed_rank_(failed_rank),
        detected_by_(detected_by),
        epoch_(epoch),
        last_heard_tick_(last_heard_tick),
        silent_ticks_(silent_ticks) {}

  [[nodiscard]] int failed_rank() const noexcept { return failed_rank_; }
  [[nodiscard]] int detected_by() const noexcept { return detected_by_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t last_heard_tick() const noexcept {
    return last_heard_tick_;
  }
  [[nodiscard]] std::uint64_t silent_ticks() const noexcept {
    return silent_ticks_;
  }

 private:
  int failed_rank_;
  int detected_by_;
  std::uint64_t epoch_;
  std::uint64_t last_heard_tick_;
  std::uint64_t silent_ticks_;
};

/// Heartbeat-based crash detection knobs. Only consulted when the
/// retry/dedup protocol is active (a fault injector is installed);
/// `failure_timeout_ticks == 0` disables detection entirely, leaving
/// retransmit exhaustion (TransportError) as the only failure backstop.
struct FailureDetectorConfig {
  /// Every rank posts an empty kHeartbeat datagram to every peer each time
  /// its retransmission clock passes a multiple of this period.
  std::uint32_t heartbeat_period_ticks = 8;
  /// A peer silent (no datagram of any kind collected from it) for more
  /// than this many local ticks is declared failed. 0 = detection off.
  std::uint64_t failure_timeout_ticks = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return failure_timeout_ticks != 0;
  }
};

/// Send/receive-side protocol counters (all zero when the protocol is off).
struct TransportCounters {
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t heartbeats_sent = 0;
  /// Heartbeat periods a declared-failed rank was silent for (recorded at
  /// detection time, so nonzero iff a RankFailureError was raised).
  std::uint64_t heartbeats_missed = 0;

  void merge(const TransportCounters& other) noexcept {
    retransmits += other.retransmits;
    duplicates_suppressed += other.duplicates_suppressed;
    acks_sent += other.acks_sent;
    acks_received += other.acks_received;
    heartbeats_sent += other.heartbeats_sent;
    heartbeats_missed += other.heartbeats_missed;
  }
};

class Communicator {
 public:
  /// `send_buffer_bytes`: per-destination buffering threshold; 0 means
  /// send every message immediately (useful for tests). The retry/dedup
  /// protocol switches on iff `world.faulty()` at construction time.
  /// `trace_sample_period`: every Nth root message (one with no inbound
  /// context to propagate) starts a new sampled trace; 0 disables tracing
  /// entirely — no trace bytes on the wire, no clock reads.
  Communicator(mpi::World& world, int rank, std::size_t send_buffer_bytes,
               RetryConfig retry = {}, std::uint64_t trace_sample_period = 0,
               FailureDetectorConfig detector = {});

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size(); }

  /// Registers a handler; every rank must register the same handlers in
  /// the same order so ids agree across ranks.
  HandlerId register_handler(std::string label, HandlerFn fn);

  /// Fire-and-forget remote call: runs `handler` on `dest` with `args`.
  /// Arguments are serialized immediately, so they may refer to
  /// stack-local data. Self-sends take the same serialized path (and are
  /// accounted as local messages).
  template <typename... Args>
  void async(int dest, HandlerId handler, const Args&... args) {
    // Messages to a peer this rank has declared dead are dropped before
    // any bookkeeping — like writes to a broken TCP connection. One bool
    // test on the fault-free fast path; the flag only ever sets when a
    // failure was detected, so the pre-failure byte stream is unchanged.
    if (any_peer_dead_ && peer_dead_[static_cast<std::size_t>(dest)] != 0) {
      return;
    }
    auto& buffer = send_buffers_[static_cast<std::size_t>(dest)];
    // Flush a full buffer *before* packing the next message. Checking
    // after the fact would tempt a mid-pack flush once a multi-arg
    // serial::pack pushes the buffer over the threshold, splitting a
    // partially packed message across two datagrams.
    if (send_buffer_bytes_ != 0 && buffer.message_count > 0 &&
        buffer.archive.size() >= send_buffer_bytes_) {
      flush_to(dest);
    }
    const std::size_t before = buffer.archive.size();
    // Envelope: handler id shifted left one bit, low bit = traced flag.
    // Untraced messages therefore serialize exactly one varint, the same
    // byte count the plain handler id costs (ids stay < 64).
    const TraceContext ctx = outbound_context();
    if (ctx.active()) {
      buffer.archive.write_size((static_cast<std::uint64_t>(handler) << 1) |
                                1u);
      const std::uint64_t send_ts = telemetry::now_us();
      buffer.archive.write_size(ctx.trace_id);
      buffer.archive.write_size(ctx.span_id);
      buffer.archive.write_size(ctx.hop);
      buffer.archive.write_size(send_ts);
      // Flow start anchors to whatever span is open on this rank at
      // submission time (a phase span or the handler span that is
      // sending a follow-up).
      telemetry_.add_trace_event(make_flow_event(
          's', handlers_[handler].label, send_ts, ctx.span_id));
      telemetry_.add(c_traced_sends_);
    } else {
      buffer.archive.write_size(static_cast<std::uint64_t>(handler) << 1);
    }
    serial::pack(buffer.archive, args...);
    const std::size_t message_bytes = buffer.archive.size() - before;
    // Mailbox accounting mirrors the archive's logical size: charged as
    // messages pack, discharged when flush_to() hands the payload to the
    // transport.
    t_mailbox_.add(static_cast<std::int64_t>(message_bytes));
    ++buffer.message_count;
    world_->note_messages_submitted(1);
    stats_.on_send(handler, dest != rank_, message_bytes);
    ++async_count_;
    if (send_buffer_bytes_ == 0) flush_to(dest);
  }

  /// Pushes all buffered messages to the transport.
  void flush();

  /// Delivers up to `max_datagrams` inbound datagrams by running their
  /// handlers. Returns the number of application messages processed.
  /// In reliable mode this call is also the protocol's clock: it sends
  /// pending acks and retransmits timed-out datagrams, so drain loops that
  /// poll it make progress even when nothing is arriving.
  std::size_t process_available(
      std::size_t max_datagrams = static_cast<std::size_t>(-1));

  /// Total async() calls issued by this rank (drives the §4.4 batching
  /// policy in the engines).
  [[nodiscard]] std::uint64_t async_count() const noexcept {
    return async_count_;
  }

  /// True when the retry/dedup protocol is active for this rank.
  [[nodiscard]] bool reliable() const noexcept { return reliable_; }

  // -- failure detection -------------------------------------------------

  /// True when heartbeat-based crash detection is running on this rank.
  [[nodiscard]] bool detecting_failures() const noexcept {
    return detect_failures_;
  }

  /// Sets the engine epoch (phase counter) attached to transport and
  /// rank-failure errors raised from this rank. Called by the Environment
  /// at each phase boundary.
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Raises RankFailureError if any peer has been silent past
  /// `failure_timeout_ticks`. No-op when detection is off, when this rank
  /// itself is dead (its frozen clocks must never accuse live peers), or
  /// before any tick has elapsed. The Environment's drain loops call this
  /// each polling round so a crash surfaces as a structured error instead
  /// of a barrier that never completes. Peers already declared dead via
  /// mark_peer_dead() are skipped, so each crash is reported once.
  void check_failures();

  /// Declares `peer` dead for this rank's protocol state (idempotent):
  /// buffered and unacknowledged datagrams to it are discarded (their
  /// retry/mailbox ledger bytes discharged, so no TransportError can fire
  /// for a channel everyone knows is gone), future async() calls to it
  /// drop, and check_failures() stops re-reporting it. The serving layer
  /// calls this on every surviving rank once the failure detector raises
  /// a RankFailureError. Like World::kill_rank, the termination counters
  /// are NOT rolled back — a crash strands its debt by design.
  void mark_peer_dead(int peer);

  /// True when mark_peer_dead(peer) was called on this communicator.
  [[nodiscard]] bool peer_presumed_dead(int peer) const noexcept {
    return any_peer_dead_ && peer_dead_[static_cast<std::size_t>(peer)] != 0;
  }

  [[nodiscard]] const TransportCounters& transport_counters() const noexcept {
    return transport_;
  }

  [[nodiscard]] MessageStats& stats() noexcept { return stats_; }
  [[nodiscard]] const MessageStats& stats() const noexcept { return stats_; }

  /// Per-rank telemetry sink (metrics + trace). Engines and services
  /// built on this communicator register their metrics here so one merge
  /// per rank collects the whole stack.
  [[nodiscard]] telemetry::Telemetry& telemetry() noexcept {
    return telemetry_;
  }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const noexcept {
    return telemetry_;
  }

  /// The trace context of the message whose handler is currently running
  /// on this rank (inactive outside traced dispatch). Exposed for tests
  /// and for services that want to tag their own artifacts.
  [[nodiscard]] const TraceContext& active_trace_context() const noexcept {
    return active_ctx_;
  }

  [[nodiscard]] mpi::World& world() noexcept { return *world_; }

 private:
  struct SendBuffer {
    serial::OutArchive archive;
    std::uint32_t message_count = 0;
  };

  /// Sender-side reliable channel state, one per destination.
  struct Pending {
    std::vector<std::byte> payload;
    std::uint32_t message_count = 0;
    std::uint64_t retry_at = 0;
    std::uint32_t backoff = 0;
    std::uint32_t attempts = 0;  ///< retransmissions so far
  };
  struct SendChannel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Pending> pending;  ///< seq → awaiting ack
  };

  /// Receiver-side dedup state, one per source. A sequence number is
  /// "seen" iff seq <= cumulative or seq ∈ out_of_order.
  struct RecvChannel {
    std::uint64_t cumulative = 0;
    std::set<std::uint64_t> out_of_order;
    bool ack_due = false;
  };

  void flush_to(int dest);
  void dispatch(const mpi::Datagram& datagram);
  /// Runs one traced message's handler inside a child span: records queue
  /// latency, emits the flow-finish stitch, and makes `ctx` current so
  /// the handler's own sends propagate the trace.
  void dispatch_traced(int source, HandlerId handler_id,
                       const TraceContext& ctx, std::uint64_t send_ts,
                       serial::InArchive& archive);

  /// Context for the next outbound message: propagate the active inbound
  /// context (hop+1, fresh span id), or start a new sampled root trace,
  /// or inactive (the common case).
  [[nodiscard]] TraceContext outbound_context() {
    if (active_ctx_.active()) {
      if (active_ctx_.hop >= kMaxTraceHops) return {};
      return TraceContext{active_ctx_.trace_id, mint_id(),
                          active_ctx_.hop + 1};
    }
    if (trace_sample_period_ != 0 && ++root_countdown_ >= trace_sample_period_) {
      root_countdown_ = 0;
      return TraceContext{mint_id(), mint_id(), 1};
    }
    return {};
  }

  /// Ids unique across ranks: rank in the top bits, a counter below.
  [[nodiscard]] std::uint64_t mint_id() noexcept {
    return (static_cast<std::uint64_t>(rank_ + 1) << 40) | ++trace_seq_;
  }

  [[nodiscard]] telemetry::TraceEvent make_flow_event(char ph,
                                                      const std::string& name,
                                                      std::uint64_t ts_us,
                                                      std::uint64_t flow_id) {
    telemetry::TraceEvent e;
    e.name = name;
    e.category = "flow";
    e.ts_us = ts_us;
    e.ph = ph;
    e.flow_id = flow_id;
    return e;
  }

  /// Returns true when the datagram should be dispatched (fresh data);
  /// acks and duplicates are consumed here.
  bool reliable_receive(const mpi::Datagram& datagram);
  void send_pending_acks();
  void drive_retransmits();
  void maybe_send_heartbeats();

  mpi::World* world_;
  int rank_;
  std::size_t send_buffer_bytes_;
  std::vector<SendBuffer> send_buffers_;
  struct Handler {
    std::string label;
    HandlerFn fn;
  };
  std::vector<Handler> handlers_;
  MessageStats stats_;
  std::uint64_t async_count_ = 0;

  // -- telemetry ---------------------------------------------------------
  telemetry::Telemetry telemetry_;
  std::vector<telemetry::MetricId> recv_counters_;  ///< per handler id
  telemetry::MetricId g_inbox_depth_ = 0;
  telemetry::MetricId c_retransmits_ = 0;
  telemetry::MetricId c_duplicates_ = 0;
  telemetry::MetricId c_acks_sent_ = 0;
  telemetry::MetricId c_acks_received_ = 0;

  // -- causal tracing state ----------------------------------------------
  std::uint64_t trace_sample_period_ = 0;
  std::uint64_t root_countdown_ = 0;
  std::uint64_t trace_seq_ = 0;
  TraceContext active_ctx_;
  telemetry::MetricId c_traced_sends_ = 0;
  telemetry::MetricId h_queue_latency_ = 0;   ///< submit → handler start
  telemetry::MetricId h_handler_time_ = 0;    ///< traced handler duration
  telemetry::MetricId h_dgram_queue_ = 0;     ///< post → collect, all dgrams
  telemetry::MemTag t_mailbox_;  ///< buffered-but-unflushed message bytes
  telemetry::MemTag t_retry_;    ///< unacked retransmission payload copies

  // -- retry/dedup protocol state (empty unless reliable_) ---------------
  bool reliable_ = false;
  RetryConfig retry_;
  std::uint64_t tick_ = 0;
  std::vector<SendChannel> send_channels_;
  std::vector<RecvChannel> recv_channels_;
  TransportCounters transport_;

  // -- presumed-dead peers (empty until a failure is detected) -----------
  bool any_peer_dead_ = false;
  std::vector<char> peer_dead_;

  // -- failure-detector state (inert unless detect_failures_) ------------
  FailureDetectorConfig detector_;
  bool detect_failures_ = false;
  std::uint64_t epoch_ = 0;
  /// Local tick at which a datagram (of any kind) was last collected from
  /// each peer. Self-entry unused.
  std::vector<std::uint64_t> last_heard_;
  telemetry::MetricId c_heartbeats_sent_ = 0;
  telemetry::MetricId c_heartbeats_missed_ = 0;
};

}  // namespace dnnd::comm
