#include "comm/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dnnd::comm {

Communicator::Communicator(mpi::World& world, int rank,
                           std::size_t send_buffer_bytes, RetryConfig retry,
                           std::uint64_t trace_sample_period,
                           FailureDetectorConfig detector)
    : world_(&world),
      rank_(rank),
      send_buffer_bytes_(send_buffer_bytes),
      trace_sample_period_(trace_sample_period),
      retry_(retry),
      detector_(detector) {
  if (rank < 0 || rank >= world.size()) {
    throw std::invalid_argument("Communicator: rank out of range");
  }
  send_buffers_.resize(static_cast<std::size_t>(world.size()));
  reliable_ = world.faulty();
  if (reliable_) {
    send_channels_.resize(static_cast<std::size_t>(world.size()));
    recv_channels_.resize(static_cast<std::size_t>(world.size()));
  }
  // Heartbeats need the reliable protocol's tick clock; detection without
  // an injector would be dead code (the perfect transport cannot crash).
  detect_failures_ = reliable_ && detector_.enabled();
  if (detect_failures_) {
    last_heard_.assign(static_cast<std::size_t>(world.size()), 0);
  }
  g_inbox_depth_ = telemetry_.gauge("comm.inbox_depth");
  c_retransmits_ = telemetry_.counter("comm.retransmits");
  c_duplicates_ = telemetry_.counter("comm.duplicates_suppressed");
  c_acks_sent_ = telemetry_.counter("comm.acks_sent");
  c_acks_received_ = telemetry_.counter("comm.acks_received");
  c_heartbeats_sent_ = telemetry_.counter("comm.heartbeats_sent");
  c_heartbeats_missed_ = telemetry_.counter("comm.heartbeats_missed");
  c_traced_sends_ = telemetry_.counter("comm.traced_sends");
  h_queue_latency_ = telemetry_.histogram("comm.queue_latency_us",
                                          telemetry::MetricUnit::kTimeUs);
  h_handler_time_ = telemetry_.histogram("comm.handler_time_us",
                                         telemetry::MetricUnit::kTimeUs);
  h_dgram_queue_ = telemetry_.histogram("comm.dgram_queue_us",
                                        telemetry::MetricUnit::kTimeUs);
  t_mailbox_ = telemetry_.mem_tag("mem.comm.mailbox");
  t_retry_ = telemetry_.mem_tag("mem.comm.retry");
}

HandlerId Communicator::register_handler(std::string label, HandlerFn fn) {
  const auto id = static_cast<HandlerId>(handlers_.size());
  stats_.add_handler(label);
  recv_counters_.push_back(telemetry_.counter("comm.recv." + label));
  handlers_.push_back(Handler{std::move(label), std::move(fn)});
  return id;
}

void Communicator::flush() {
  for (int dest = 0; dest < size(); ++dest) {
    flush_to(dest);
  }
}

void Communicator::mark_peer_dead(int peer) {
  if (peer < 0 || peer >= size() || peer == rank_) return;
  const auto p = static_cast<std::size_t>(peer);
  if (peer_dead_.empty()) {
    peer_dead_.assign(static_cast<std::size_t>(size()), 0);
  }
  if (peer_dead_[p] != 0) return;
  peer_dead_[p] = 1;
  any_peer_dead_ = true;
  // Discard anything buffered for the dead peer; the bytes would only be
  // blackholed by World::post anyway, and the mailbox ledger must not
  // keep charging for them.
  auto& buffer = send_buffers_[p];
  if (buffer.message_count != 0) {
    t_mailbox_.sub(static_cast<std::int64_t>(buffer.archive.size()));
    buffer.archive.clear();
    buffer.message_count = 0;
  }
  // Drop unacknowledged retransmission state: the ack will never come and
  // drive_retransmits() must not exhaust the retry budget (TransportError)
  // for a channel whose failure is already known and handled.
  if (reliable_) {
    auto& channel = send_channels_[p];
    for (const auto& [seq, pending] : channel.pending) {
      t_retry_.sub(static_cast<std::int64_t>(pending.payload.size()));
    }
    channel.pending.clear();
    recv_channels_[p].ack_due = false;  // never ack a corpse
  }
}

void Communicator::flush_to(int dest) {
  auto& buffer = send_buffers_[static_cast<std::size_t>(dest)];
  if (buffer.message_count == 0) return;
  if (peer_presumed_dead(dest)) {
    // Raced with mark_peer_dead (messages packed before the verdict):
    // discard, exactly as the transport would.
    t_mailbox_.sub(static_cast<std::int64_t>(buffer.archive.size()));
    buffer.archive.clear();
    buffer.message_count = 0;
    return;
  }
  mpi::Datagram datagram;
  datagram.source = rank_;
  datagram.message_count = buffer.message_count;
  datagram.post_ts_us = telemetry::now_us();
  datagram.payload = buffer.archive.release();
  t_mailbox_.sub(static_cast<std::int64_t>(datagram.payload.size()));
  buffer.archive.clear();
  buffer.message_count = 0;
  if (reliable_) {
    auto& channel = send_channels_[static_cast<std::size_t>(dest)];
    datagram.seq = channel.next_seq++;
    Pending pending;
    pending.payload = datagram.payload;  // retransmission copy
    t_retry_.add(static_cast<std::int64_t>(pending.payload.size()));
    pending.message_count = datagram.message_count;
    pending.backoff = retry_.initial_backoff_ticks;
    pending.retry_at = tick_ + pending.backoff;
    channel.pending.emplace(datagram.seq, std::move(pending));
  }
  world_->post(dest, std::move(datagram));
}

std::size_t Communicator::process_available(std::size_t max_datagrams) {
  // A dead rank does nothing: no collects, no acks, no retransmits, no
  // heartbeats. Its silence is exactly what the peers' detectors observe.
  if (!world_->alive(rank_)) return 0;
  // Inbox-depth probe (takes the mailbox mutex).
  telemetry_.set(g_inbox_depth_,
                 static_cast<std::int64_t>(world_->mailbox_depth(rank_)));
  std::size_t messages = 0;
  mpi::Datagram datagram;
  for (std::size_t i = 0; i < max_datagrams; ++i) {
    if (!world_->try_collect(rank_, datagram)) break;
    if (reliable_ && !reliable_receive(datagram)) continue;
    if (datagram.post_ts_us != 0) {
      const std::uint64_t now = telemetry::now_us();
      telemetry_.record(h_dgram_queue_, now >= datagram.post_ts_us
                                            ? now - datagram.post_ts_us
                                            : 0);
    }
    dispatch(datagram);
    messages += datagram.message_count;
  }
  // Re-check liveness: a scheduled crash may have fired inside the collect
  // loop above, and a freshly dead rank must not ack or retransmit.
  if (reliable_ && world_->alive(rank_)) {
    send_pending_acks();
    drive_retransmits();
    if (detect_failures_) maybe_send_heartbeats();
  }
  return messages;
}

void Communicator::maybe_send_heartbeats() {
  if (tick_ % detector_.heartbeat_period_ticks != 0) return;
  for (int dest = 0; dest < size(); ++dest) {
    if (dest == rank_ || peer_presumed_dead(dest)) continue;
    mpi::Datagram beat;
    beat.source = rank_;
    beat.kind = mpi::DatagramKind::kHeartbeat;
    // Unsequenced and message_count = 0: heartbeats are transport
    // bookkeeping, invisible to dedup and to the termination counters.
    world_->post(dest, std::move(beat));
    ++transport_.heartbeats_sent;
    telemetry_.add(c_heartbeats_sent_);
  }
}

void Communicator::check_failures() {
  if (!detect_failures_ || !world_->alive(rank_)) return;
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank_ || peer_presumed_dead(peer)) continue;
    const std::uint64_t heard = last_heard_[static_cast<std::size_t>(peer)];
    if (tick_ <= heard) continue;
    const std::uint64_t silent = tick_ - heard;
    if (silent <= detector_.failure_timeout_ticks) continue;
    const std::uint64_t missed = silent / detector_.heartbeat_period_ticks;
    transport_.heartbeats_missed += missed;
    telemetry_.add(c_heartbeats_missed_, missed);
    throw RankFailureError(
        "Communicator: rank " + std::to_string(peer) + " silent for " +
            std::to_string(silent) + " ticks (last heard at tick " +
            std::to_string(heard) + ", epoch " + std::to_string(epoch_) +
            ") — presumed crashed",
        peer, rank_, epoch_, heard, silent);
  }
}

bool Communicator::reliable_receive(const mpi::Datagram& datagram) {
  const auto src = static_cast<std::size_t>(datagram.source);
  // Any datagram proves the sender was alive recently; heartbeats exist
  // only to keep this clock fresh across otherwise-silent stretches.
  if (detect_failures_) last_heard_[src] = tick_;
  if (datagram.kind == mpi::DatagramKind::kHeartbeat) return false;
  if (datagram.kind == mpi::DatagramKind::kAck) {
    ++transport_.acks_received;
    telemetry_.add(c_acks_received_);
    serial::InArchive ar(datagram.payload);
    auto& channel = send_channels_[src];
    const std::uint64_t cumulative = ar.read_size();
    const auto cumulative_end = channel.pending.upper_bound(cumulative);
    for (auto it = channel.pending.begin(); it != cumulative_end; ++it) {
      t_retry_.sub(static_cast<std::int64_t>(it->second.payload.size()));
    }
    channel.pending.erase(channel.pending.begin(), cumulative_end);
    const std::uint64_t selective = ar.read_size();
    for (std::uint64_t i = 0; i < selective; ++i) {
      const auto it = channel.pending.find(ar.read_size());
      if (it == channel.pending.end()) continue;
      t_retry_.sub(static_cast<std::int64_t>(it->second.payload.size()));
      channel.pending.erase(it);
    }
    return false;
  }
  auto& channel = recv_channels_[src];
  channel.ack_due = true;  // (re-)ack even duplicates so the sender stops
  if (datagram.seq <= channel.cumulative ||
      channel.out_of_order.contains(datagram.seq)) {
    ++transport_.duplicates_suppressed;
    telemetry_.add(c_duplicates_);
    return false;
  }
  channel.out_of_order.insert(datagram.seq);
  while (channel.out_of_order.contains(channel.cumulative + 1)) {
    channel.out_of_order.erase(channel.cumulative + 1);
    ++channel.cumulative;
  }
  return true;
}

void Communicator::send_pending_acks() {
  for (int src = 0; src < size(); ++src) {
    auto& channel = recv_channels_[static_cast<std::size_t>(src)];
    if (!channel.ack_due) continue;
    channel.ack_due = false;
    serial::OutArchive ar;
    ar.write_size(channel.cumulative);
    ar.write_size(channel.out_of_order.size());
    for (const std::uint64_t seq : channel.out_of_order) ar.write_size(seq);
    mpi::Datagram ack;
    ack.source = rank_;
    ack.kind = mpi::DatagramKind::kAck;
    ack.payload = ar.release();
    world_->post(src, std::move(ack));
    ++transport_.acks_sent;
    telemetry_.add(c_acks_sent_);
  }
}

void Communicator::drive_retransmits() {
  ++tick_;
  for (int dest = 0; dest < size(); ++dest) {
    if (peer_presumed_dead(dest)) continue;
    auto& channel = send_channels_[static_cast<std::size_t>(dest)];
    for (auto& [seq, pending] : channel.pending) {
      if (pending.retry_at > tick_) continue;
      if (pending.attempts >= retry_.max_retries) {
        throw TransportError(
            "Communicator: datagram " + std::to_string(seq) + " from rank " +
                std::to_string(rank_) + " to rank " + std::to_string(dest) +
                " unacknowledged after " + std::to_string(pending.attempts) +
                " retransmissions (epoch " + std::to_string(epoch_) +
                ") — channel considered failed",
            rank_, dest, seq, pending.attempts, epoch_);
      }
      mpi::Datagram copy;
      copy.source = rank_;
      copy.seq = seq;
      copy.message_count = pending.message_count;
      copy.post_ts_us = telemetry::now_us();
      copy.payload = pending.payload;
      world_->post(dest, std::move(copy));
      ++pending.attempts;
      ++transport_.retransmits;
      telemetry_.add(c_retransmits_);
      pending.backoff =
          std::min(pending.backoff * 2, retry_.max_backoff_ticks);
      pending.retry_at = tick_ + pending.backoff;
    }
  }
}

void Communicator::dispatch_traced(int source, HandlerId handler_id,
                                   const TraceContext& ctx,
                                   std::uint64_t send_ts,
                                   serial::InArchive& archive) {
  const Handler& handler = handlers_[handler_id];
  const std::uint64_t start = telemetry::now_us();
  const std::uint64_t queue_us = start >= send_ts ? start - send_ts : 0;
  telemetry_.record(h_queue_latency_, queue_us);
  // Flow finish at handler start: with bp="e" the arrowhead binds to the
  // recv span below, which begins at the same timestamp.
  telemetry_.add_trace_event(
      make_flow_event('f', handler.label, start, ctx.span_id));

  // Make the context current for the handler's own async() calls. Restore
  // on scope exit even if the handler throws (chaos tests exercise
  // throwing handlers).
  struct ActiveScope {
    Communicator* self;
    ~ActiveScope() { self->active_ctx_ = TraceContext{}; }
  };
  active_ctx_ = ctx;
  const ActiveScope scope{this};

  handler.fn(source, archive);

  const std::uint64_t end = telemetry::now_us();
  telemetry_.record(h_handler_time_, end - start);
  telemetry::TraceEvent span;
  span.name = "recv." + handler.label;
  span.category = "handler";
  span.ts_us = start;
  span.dur_us = end - start;
  span.args = "{\"trace\":\"" + telemetry::hex_id(ctx.trace_id) +
              "\",\"span\":\"" + telemetry::hex_id(ctx.span_id) +
              "\",\"hop\":" + std::to_string(ctx.hop) +
              ",\"src\":" + std::to_string(source) +
              ",\"queue_us\":" + std::to_string(queue_us) + '}';
  telemetry_.add_trace_event(std::move(span));
}

void Communicator::dispatch(const mpi::Datagram& datagram) {
  serial::InArchive archive(datagram.payload);
  std::uint32_t handled = 0;
  while (!archive.empty()) {
    const std::uint64_t key = archive.read_size();
    const auto handler_id = static_cast<HandlerId>(key >> 1);
    const bool traced = (key & 1u) != 0;
    TraceContext ctx;
    std::uint64_t send_ts = 0;
    if (traced) {
      ctx.trace_id = archive.read_size();
      ctx.span_id = archive.read_size();
      ctx.hop = static_cast<std::uint32_t>(archive.read_size());
      send_ts = archive.read_size();
    }
    if (handler_id >= handlers_.size()) {
      throw std::runtime_error("Communicator: unknown handler id");
    }
    if (traced) {
      dispatch_traced(datagram.source, handler_id, ctx, send_ts, archive);
    } else {
      handlers_[handler_id].fn(datagram.source, archive);
    }
    telemetry_.add(recv_counters_[handler_id]);
    // Count each message as processed only after its handler returned, so
    // the quiescence test cannot pass while a handler (which may itself
    // send) is still running.
    world_->note_messages_processed(1);
    ++handled;
  }
  if (handled != datagram.message_count) {
    throw std::runtime_error(
        "Communicator: datagram message count mismatch (handler read too "
        "few/many bytes?)");
  }
}

}  // namespace dnnd::comm
