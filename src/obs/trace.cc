#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.h"

namespace dmac {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(SteadyNowNs()) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

int64_t TraceRecorder::NowNs() const { return SteadyNowNs() - epoch_ns_; }

TraceRecorder::ThreadBuffer* TraceRecorder::LocalBuffer() {
  // One buffer per (thread, process lifetime); the registry keeps it alive
  // past thread exit so Snapshot() still sees short-lived pool threads.
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (local == nullptr) {
    MutexLock lock(&registry_mu_);
    local = std::make_shared<ThreadBuffer>(next_tid_++);
    buffers_.push_back(local);
  }
  return local.get();
}

void TraceRecorder::Record(TraceEvent event) {
  if (!enabled()) return;
  ThreadBuffer* buf = LocalBuffer();
  MutexLock lock(&buf->mu);
  if (buf->events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = buf->tid;
  buf->events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    MutexLock registry_lock(&registry_mu_);
    for (const auto& buf : buffers_) {
      MutexLock lock(&buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void TraceRecorder::Clear() {
  MutexLock registry_lock(&registry_mu_);
  for (const auto& buf : buffers_) {
    MutexLock lock(&buf->mu);
    buf->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceArg(const std::string& key, const std::string& value) {
  return JsonQuote(key) + ":" + JsonQuote(value);
}

std::string TraceArg(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return JsonQuote(key) + ":" + buf;
}

std::string TraceArg(const std::string& key, int64_t value) {
  return JsonQuote(key) + ":" + std::to_string(value);
}

}  // namespace dmac
