#include "runtime/buffer_pool.h"

#include <atomic>

#include "obs/metrics.h"

namespace dmac {

namespace {

struct PoolMetrics {
  Counter* acquires = MetricRegistry::Global().counter(kMetricPoolAcquires);
  Counter* reuses = MetricRegistry::Global().counter(kMetricPoolReuses);
  Counter* discards = MetricRegistry::Global().counter(kMetricPoolDiscards);
  Gauge* outstanding = MetricRegistry::Global().gauge(kMetricPoolOutstanding);
  Gauge* peak_bytes = MetricRegistry::Global().gauge(kMetricPoolPeakBytes);
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// Process-wide accounting shared by all pools; the obs gauges mirror these.
std::atomic<int64_t> g_outstanding{0};
std::atomic<int64_t> g_held_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void AddHeldBytes(int64_t delta) {
  int64_t held = g_held_bytes.fetch_add(delta, std::memory_order_relaxed) +
                 delta;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (held > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, held, std::memory_order_relaxed)) {
  }
  Metrics().peak_bytes->Set(
      static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed)));
}

void AddOutstanding(int64_t delta) {
  int64_t now = g_outstanding.fetch_add(delta, std::memory_order_relaxed) +
                delta;
  Metrics().outstanding->Set(static_cast<double>(now));
}

}  // namespace

BufferPool::~BufferPool() {
  // Outstanding blocks must have been released before the pool dies (the
  // engine waits for idle).
  MutexLock lock(&mu_);
  int64_t idle_bytes = 0;
  for (const auto& [shape, blocks] : free_) {
    for (const auto& b : blocks) idle_bytes += b.MemoryBytes();
  }
  if (idle_bytes > 0) AddHeldBytes(-idle_bytes);
}

DenseBlock BufferPool::Acquire(int64_t rows, int64_t cols) {
  Metrics().acquires->Increment();
  AddOutstanding(1);
  DenseBlock block;
  bool recycled = false;
  {
    MutexLock lock(&mu_);
    auto it = free_.find({rows, cols});
    if (it != free_.end() && !it->second.empty()) {
      block = std::move(it->second.back());
      it->second.pop_back();
      recycled = true;
    }
  }
  if (recycled) {
    // Recycled (its bytes were counted when first allocated); cleared
    // outside the lock so other tasks' acquires do not wait on the memset.
    Metrics().reuses->Increment();
    block.Clear();
    return block;
  }
  AddHeldBytes(DenseBlock::MemoryBytesFor(rows, cols));
  return DenseBlock(rows, cols);
}

void BufferPool::Release(DenseBlock block) {
  AddOutstanding(-1);
  MutexLock lock(&mu_);
  auto& slot = free_[{block.rows(), block.cols()}];
  if (slot.size() < max_per_shape_) {
    slot.push_back(std::move(block));
  } else {
    Metrics().discards->Increment();
    AddHeldBytes(-block.MemoryBytes());
  }
}

void BufferPool::Disown(const DenseBlock& block) {
  AddOutstanding(-1);
  AddHeldBytes(-block.MemoryBytes());
}

size_t BufferPool::IdleBlocks() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& [shape, blocks] : free_) n += blocks.size();
  return n;
}

int64_t BufferPool::GlobalOutstandingBlocks() {
  return g_outstanding.load(std::memory_order_relaxed);
}

}  // namespace dmac
