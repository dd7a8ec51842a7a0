// Deterministic per-rank thread pool (ROADMAP: intra-rank parallelism).
//
// Each simulated rank may own one of these and split its hot per-phase
// loops across `threads_per_rank` OS threads. The pool is built so that
// the thread count can never change the answer:
//
//   * The task DECOMPOSITION is fixed by the work size and a grain,
//     never by the thread count: run(num_tasks, fn) always executes
//     tasks 0..num_tasks-1, whether inline (threads <= 1, or a single
//     task) or scheduled onto workers. Task counters are therefore
//     bit-identical across thread counts.
//   * Tasks communicate only through private, index-addressed output
//     slots provided by the caller; after run() returns, the caller
//     merges the slots in fixed (task-index, intra-task) order. The
//     scheduler decides *which worker* runs a task and *when* — and
//     nothing observable depends on either.
//
// threads <= 1 spawns no OS threads at all: run() degenerates to a plain
// sequential loop over the same task decomposition (today's serial path,
// with zero synchronization on it). The same is true for a single-task
// section on any pool size, so fine-grained callers pay no dispatch cost
// for work too small to split.
//
// Telemetry: an optional sink counts one increment per executed task
// *from the executing thread* (worker or caller) — this is the exercise
// for MetricsRegistry's relaxed-atomic counters. Sections given a span
// name additionally emit one trace event per participating thread (tid 0
// = the rank's driver thread, tid 1.. = pool workers), stamped by the
// caller after the section's join, so the trace shows per-thread busy
// intervals without concurrent TraceBuffer writes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace dnnd::core {

/// Resolves a configured thread count: 0 means "auto" — take
/// DNND_THREADS_PER_RANK from the environment (the lever the build-matrix
/// TSan leg uses to run the whole suite threaded), else 1. Mirrors the
/// DNND_FORCE_SCALAR precedent: config wins over env, env over default.
inline std::size_t resolve_threads(std::size_t configured) noexcept {
  if (configured != 0) return configured;
  const char* env = std::getenv("DNND_THREADS_PER_RANK");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 256) {
      return static_cast<std::size_t>(v);
    }
  }
  return 1;
}

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = 1)
      : threads_(threads == 0 ? 1 : threads), spans_(threads_) {
    if (threads_ > 1) {
      workers_.reserve(threads_ - 1);
      for (std::size_t w = 1; w < threads_; ++w) {
        workers_.emplace_back([this, w] { worker_loop(w); });
      }
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    if (!workers_.empty()) {
      {
        const std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
      }
      cv_.notify_all();
      for (auto& t : workers_) t.join();
    }
  }

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Arms per-task counting (+1 per executed task, from the executing
  /// thread) and per-thread trace spans. `sink` must outlive the pool.
  void set_telemetry(telemetry::Telemetry* sink,
                     telemetry::MetricId task_counter) noexcept {
    sink_ = sink;
    task_counter_ = task_counter;
  }

  /// Executes tasks 0..num_tasks-1 (same decomposition on every pool
  /// size). Fn is invoked as fn(task_index); it must only write state
  /// owned by that task index. Blocks until every task completed; the
  /// calling thread participates. Rethrows the first task exception.
  template <typename Fn>
  void run(std::size_t num_tasks, Fn&& fn, const char* span_name = nullptr) {
    if (num_tasks == 0) return;
    if (workers_.empty() || num_tasks == 1) {
      for (std::size_t t = 0; t < num_tasks; ++t) {
        fn(t);
        if (sink_ != nullptr) sink_->add(task_counter_);
      }
      return;
    }
    using Body = std::remove_reference_t<Fn>;
    const bool tracing = span_name != nullptr && sink_ != nullptr;
    {
      const std::lock_guard<std::mutex> lock(m_);
      job_ctx_ = const_cast<void*>(static_cast<const void*>(&fn));
      job_invoke_ = [](void* ctx, std::size_t t) {
        (*static_cast<Body*>(ctx))(t);
      };
      job_tasks_ = num_tasks;
      job_tracing_ = tracing;
      next_.store(0, std::memory_order_relaxed);
      active_ = workers_.size();
      ++generation_;
    }
    cv_.notify_all();
    run_tasks(0, tracing);
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_done_.wait(lock, [&] { return active_ == 0; });
      error = error_;
      error_ = nullptr;
    }
    if (tracing) emit_spans(span_name);
    if (error) std::rethrow_exception(error);
  }

  /// Number of grain-sized blocks covering n items — the fixed task
  /// decomposition helpers below use. Independent of the thread count.
  [[nodiscard]] static std::size_t block_count(std::size_t n,
                                               std::size_t grain) noexcept {
    return n == 0 ? 0 : (n + grain - 1) / grain;
  }

  /// run() over contiguous blocks: fn(task, begin, end) with
  /// [begin, end) the task's item range.
  template <typename Fn>
  void for_blocks(std::size_t n, std::size_t grain, Fn&& fn,
                  const char* span_name = nullptr) {
    run(
        block_count(n, grain),
        [&](std::size_t t) {
          const std::size_t begin = t * grain;
          fn(t, begin, begin + grain < n ? begin + grain : n);
        },
        span_name);
  }

 private:
  /// Per-participant busy window for one traced section. Written only by
  /// its owning thread during the section; read by the caller after the
  /// join (the done-handshake's mutex orders the accesses).
  struct SpanSlot {
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::size_t tasks = 0;
  };

  void run_tasks(std::size_t participant, bool tracing) noexcept {
    SpanSlot& slot = spans_[participant];
    slot.tasks = 0;
    while (true) {
      const std::size_t t = next_.fetch_add(1, std::memory_order_relaxed);
      if (t >= job_tasks_) break;
      if (tracing && slot.tasks == 0) slot.start_us = telemetry::now_us();
      try {
        job_invoke_(job_ctx_, t);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m_);
        if (!error_) error_ = std::current_exception();
      }
      ++slot.tasks;
      if (tracing) slot.end_us = telemetry::now_us();
      if (sink_ != nullptr) sink_->add(task_counter_);
    }
  }

  void worker_loop(std::size_t participant) {
    std::uint64_t seen = 0;
    while (true) {
      bool tracing = false;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        tracing = job_tracing_;
      }
      run_tasks(participant, tracing);
      {
        const std::lock_guard<std::mutex> lock(m_);
        if (--active_ == 0) cv_done_.notify_one();
      }
    }
  }

  void emit_spans(const char* name) {
    for (std::size_t p = 0; p < spans_.size(); ++p) {
      const SpanSlot& slot = spans_[p];
      if (slot.tasks == 0) continue;
      telemetry::TraceEvent event;
      event.name = name;
      event.category = "pool";
      event.ts_us = slot.start_us;
      event.dur_us = slot.end_us - slot.start_us;
      event.tid = static_cast<std::uint32_t>(p);
      event.args = "{\"tasks\":" + std::to_string(slot.tasks) + "}";
      sink_->add_trace_event(std::move(event));
    }
  }

  std::size_t threads_;
  std::vector<SpanSlot> spans_;
  std::vector<std::thread> workers_;

  telemetry::Telemetry* sink_ = nullptr;
  telemetry::MetricId task_counter_ = 0;

  // Job state: published under m_ before the generation bump, read by
  // workers after observing the bump under the same mutex (next_ is the
  // only field touched concurrently, and it is atomic).
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  bool job_tracing_ = false;
  void* job_ctx_ = nullptr;
  void (*job_invoke_)(void*, std::size_t) = nullptr;
  std::size_t job_tasks_ = 0;
  std::size_t active_ = 0;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
};

}  // namespace dnnd::core
