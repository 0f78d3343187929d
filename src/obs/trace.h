// Execution tracing (docs/observability.md).
//
// A TraceRecorder collects timestamped spans — plan passes, stages, steps,
// communication events, worker compute, block tasks — into per-thread
// buffers. The hot path touches only the calling thread's own buffer (its
// mutex is uncontended except during Snapshot/Clear), so recording costs a
// clock read plus a vector push. When the recorder is disabled, TraceSpan
// reduces to one relaxed atomic load and records nothing at all.
//
// Spans are exported to Chrome-trace JSON (chrome_trace.h), loadable in
// chrome://tracing and Perfetto, with one process per simulated worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace dmac {

// Span categories. Use these constants (the exporters and tests match on
// the exact strings; docs/observability.md documents each).
inline constexpr const char* kTracePlan = "plan";    // planner / analysis pass
inline constexpr const char* kTraceStage = "stage";  // one barrier stage
inline constexpr const char* kTraceStep = "step";    // one plan step
inline constexpr const char* kTraceComm = "comm";    // shuffle / broadcast
inline constexpr const char* kTraceWorker = "worker";  // one worker's compute
inline constexpr const char* kTraceTask = "task";    // one block task
inline constexpr const char* kTraceRecovery = "recovery";  // fault recovery
inline constexpr const char* kTraceSpill = "spill";    // budget spill/restore
inline constexpr const char* kTraceCancel = "cancel";  // cancellation observed
inline constexpr const char* kTraceMembership =
    "membership";  // epoch bumps / worker death / degraded rebalance
inline constexpr const char* kTraceCheckpoint =
    "checkpoint";  // durable checkpoint commit / crash-restart resume
inline constexpr const char* kTraceSearch =
    "search";  // cost-based plan search

/// One completed span. `worker` is -1 for driver-side work.
struct TraceEvent {
  const char* category = "";  // one of the kTrace* constants (static storage)
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int worker = -1;
  uint32_t tid = 0;  // recorder-assigned stable thread id
  /// Extra key/values, pre-rendered as the *body* of a JSON object
  /// (`"bytes":12,"kind":"shuffle"`), or empty.
  std::string args;
};

/// Process-wide span collector. All methods are thread-safe.
class TraceRecorder {
 public:
  /// The recorder every TraceSpan and exporter uses.
  static TraceRecorder& Global();

  /// Enabling clears nothing; pair with Clear() for a fresh capture.
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the recorder's epoch (its construction).
  int64_t NowNs() const;

  /// Appends `event` to the calling thread's buffer. Ignored while
  /// disabled; drops (and counts) events beyond the per-thread cap.
  void Record(TraceEvent event);

  /// Merged copy of every thread's events, ordered by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// Discards all buffered events (buffers stay registered).
  void Clear();

  /// Events dropped because a thread buffer hit its cap.
  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-thread buffer cap; beyond it new events are dropped, not resized,
  /// so a runaway trace cannot exhaust memory.
  static constexpr size_t kMaxEventsPerThread = 1u << 22;

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  struct ThreadBuffer {
    /// The stable id is fixed at registration, before any other thread can
    /// see the buffer, so it needs no lock.
    explicit ThreadBuffer(uint32_t id) : tid(id) {}

    Mutex mu;
    std::vector<TraceEvent> events DMAC_GUARDED_BY(mu);
    const uint32_t tid;
  };

  ThreadBuffer* LocalBuffer() DMAC_EXCLUDES(registry_mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  int64_t epoch_ns_ = 0;

  mutable Mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      DMAC_GUARDED_BY(registry_mu_);
  uint32_t next_tid_ DMAC_GUARDED_BY(registry_mu_) = 0;
};

/// RAII span: records [construction, destruction) under the global
/// recorder. When tracing is disabled at construction the object is inert.
class TraceSpan {
 public:
  /// Inert span that never records. Hot call sites whose name/args are
  /// expensive to build use `enabled() ? TraceSpan(...) : TraceSpan()` so
  /// the strings are not constructed while tracing is off (constructor
  /// arguments are evaluated before the ctor's own enabled check).
  TraceSpan() : active_(false) {}

  TraceSpan(const char* category, std::string name, int worker = -1,
            std::string args = "")
      : active_(TraceRecorder::Global().enabled()) {
    if (!active_) return;
    event_.category = category;
    event_.name = std::move(name);
    event_.worker = worker;
    event_.args = std::move(args);
    event_.start_ns = TraceRecorder::Global().NowNs();
  }

  TraceSpan(TraceSpan&& other) noexcept
      : active_(other.active_), event_(std::move(other.event_)) {
    other.active_ = false;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan& operator=(TraceSpan&&) = delete;

  ~TraceSpan() { Close(); }

  /// True while the span will record on Close(). Callers guard expensive
  /// set_args() argument construction on this.
  bool active() const { return active_; }

  /// Replaces the span's args (e.g. byte counts known only at the end).
  void set_args(std::string args) {
    if (active_) event_.args = std::move(args);
  }

  /// Ends the span now (idempotent; the destructor is then a no-op).
  void Close() {
    if (!active_) return;
    active_ = false;
    event_.dur_ns = TraceRecorder::Global().NowNs() - event_.start_ns;
    TraceRecorder::Global().Record(std::move(event_));
  }

 private:
  bool active_;
  TraceEvent event_;
};

/// Renders one JSON key/value pair for TraceEvent::args, escaping string
/// values. Join multiple pairs with commas.
std::string TraceArg(const std::string& key, const std::string& value);
std::string TraceArg(const std::string& key, double value);
std::string TraceArg(const std::string& key, int64_t value);

}  // namespace dmac
