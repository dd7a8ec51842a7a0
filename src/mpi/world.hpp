// Simulated message-passing transport.
//
// The paper runs on MPI (MVAPICH2) across a 50-node cluster. This module is
// the substitution documented in DESIGN.md §2: an in-process transport with
// one mailbox per simulated rank. It carries exactly the bytes a real MPI
// transport would carry (serialized payloads produced by dnnd::serial), so
// message-count and message-volume experiments are faithful; only absolute
// wall-clock time differs from real hardware.
//
// The World is pure transport: it moves byte buffers and maintains the
// global sent/processed counters needed for termination detection. Handler
// dispatch lives one layer up in dnnd::comm (the YGM-equivalent).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace dnnd::mpi {

class FaultInjector;

/// Wire-level datagram type: payload-carrying data vs. protocol
/// acknowledgements and liveness heartbeats (the latter two only flow when
/// the retry/dedup protocol is active). Acks and heartbeats are
/// unsequenced and never counted toward the termination-detection
/// counters — they are transport bookkeeping, not application messages.
enum class DatagramKind : std::uint8_t { kData = 0, kAck = 1, kHeartbeat = 2 };

/// One transport-level datagram. A datagram may carry several application
/// messages packed back-to-back by the communicator's send buffering.
struct Datagram {
  int source = -1;
  DatagramKind kind = DatagramKind::kData;
  /// Reliable-channel sequence number, per (source → dest) channel and
  /// starting at 1. 0 means unsequenced (protocol off, or an ack).
  std::uint64_t seq = 0;
  /// Number of application-level messages packed in `payload`; the World
  /// tracks these for termination detection.
  std::uint32_t message_count = 0;
  /// Telemetry stamp set at post() time by the sending communicator on
  /// data datagrams (0 on acks and heartbeats). Transport *metadata*,
  /// like an MPI envelope's internal bookkeeping — never serialized
  /// payload bytes, so it does not count toward the Fig. 4 byte
  /// accounting.
  std::uint64_t post_ts_us = 0;
  std::vector<std::byte> payload{};
};

/// In-process stand-in for an MPI communicator's transport layer.
///
/// Thread safety: `post`, `try_collect`, and the counter methods are safe to
/// call concurrently (the threaded driver runs one thread per rank). The
/// sequential driver calls them from a single thread.
class World {
 public:
  explicit World(int num_ranks);
  ~World();  // out-of-line: FaultInjector is incomplete here

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return num_ranks_; }

  /// Enqueues a datagram into `dest`'s mailbox.
  /// Pre: 0 <= dest < size(), datagram.message_count messages were
  /// previously announced via note_messages_submitted().
  /// With a fault injector installed the datagram may instead be dropped,
  /// duplicated, delayed, or queue-jumped — the communicator's retry/dedup
  /// protocol is what restores exactly-once semantics on top.
  void post(int dest, Datagram&& datagram);

  /// Pops one datagram from `rank`'s mailbox. Returns false if empty.
  /// With a fault injector installed this also advances `rank`'s tick
  /// clock (releasing matured delayed datagrams) and honors rank stalls.
  bool try_collect(int rank, Datagram& out);

  /// Installs a fault injector. Must be called before any traffic flows;
  /// communicators built on this World check faulty() at construction to
  /// decide whether to run the retry/dedup protocol.
  void install_fault_injector(std::unique_ptr<FaultInjector> injector);

  /// Null when the transport is perfectly reliable (the default).
  [[nodiscard]] FaultInjector* fault_injector() noexcept {
    return injector_.get();
  }
  [[nodiscard]] bool faulty() const noexcept { return injector_ != nullptr; }

  // -- crash-stop liveness -----------------------------------------------
  //
  // A dead rank models a crashed MPI process: its mailbox blackholes
  // (pending datagrams are discarded, new ones never enqueue), it never
  // collects again, and datagrams it posts post-mortem are dropped. The
  // submitted/processed counters are deliberately left untouched, so a
  // crash that strands in-flight messages keeps the world permanently
  // non-quiescent — the failure detector, not the barrier, must end the
  // phase.

  /// Marks `rank` dead (idempotent). Called by try_collect when a
  /// scheduled CrashFault fires, or directly by tests/harnesses.
  void kill_rank(int rank);

  /// Marks the start of the query-serving epoch: CrashFaults declared
  /// with `after_serving_epoch` arm now, firing at (current tick +
  /// at_tick) on their victim rank. No-op without a fault injector.
  void begin_serving_epoch();

  [[nodiscard]] bool alive(int rank) const noexcept {
    return !dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Lowest dead rank, or -1 when every rank is alive.
  [[nodiscard]] int first_dead() const noexcept {
    for (int r = 0; r < num_ranks_; ++r) {
      if (!alive(r)) return r;
    }
    return -1;
  }

  [[nodiscard]] bool mailbox_empty(int rank) const;

  // -- Polling steps (retry/dedup protocol only) -------------------------
  //
  // A rank's communicator notes one poll per completed polling step, after
  // it has collected and acknowledged what that step delivered. A sender
  // reads its destination's count to spend its retry budget only on
  // attempts the destination had a chance to answer, so a rank spinning
  // while its peer is descheduled cannot exhaust the budget alone. Each
  // rank writes only its own count.

  void note_poll(int rank) noexcept {
    mailboxes_[static_cast<std::size_t>(rank)]->polls.fetch_add(
        1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t polls(int rank) const noexcept {
    return mailboxes_[static_cast<std::size_t>(rank)]->polls.load(
        std::memory_order_relaxed);
  }

  /// Current queued datagram count in `rank`'s mailbox (takes the mailbox
  /// mutex — a telemetry probe, not a hot-path primitive).
  [[nodiscard]] std::size_t mailbox_depth(int rank) const;

  // -- Termination-detection counters -----------------------------------
  //
  // A message is "submitted" the moment the application hands it to the
  // communicator (it may sit in a send buffer before post()), and
  // "processed" after its handler ran. Global quiescence ==
  // submitted == processed. Counting at submission rather than at post()
  // closes the window where a message is buffered but not yet visible.

  void note_messages_submitted(std::uint64_t n) noexcept {
    submitted_.fetch_add(n, std::memory_order_seq_cst);
  }
  void note_messages_processed(std::uint64_t n) noexcept {
    processed_.fetch_add(n, std::memory_order_seq_cst);
  }
  [[nodiscard]] std::uint64_t submitted() const noexcept {
    return submitted_.load(std::memory_order_seq_cst);
  }
  [[nodiscard]] std::uint64_t processed() const noexcept {
    return processed_.load(std::memory_order_seq_cst);
  }
  /// True when every submitted message has been processed.
  [[nodiscard]] bool quiescent() const noexcept {
    return submitted() == processed();
  }

  /// Total datagrams ever posted (transport-level, for diagnostics).
  [[nodiscard]] std::uint64_t datagrams_posted() const noexcept {
    return datagrams_.load(std::memory_order_relaxed);
  }

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    std::deque<Datagram> queue;
    std::atomic<std::uint64_t> polls{0};  ///< see note_poll()
  };

  void enqueue(int dest, Datagram&& datagram, bool front);

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Per-rank dead flags (crash-stop). Atomic: the threaded driver reads
  /// liveness from every rank's thread.
  std::vector<std::atomic<bool>> dead_;
  std::unique_ptr<FaultInjector> injector_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> datagrams_{0};
};

}  // namespace dnnd::mpi
