#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace dmac {

namespace {

/// Lock-free add for atomic doubles (no fetch_add before C++20 on all
/// toolchains; the CAS loop is equivalent).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (current < value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& MetricCatalog() {
  static const std::vector<MetricSpec>* catalog = new std::vector<MetricSpec>{
      {kMetricShuffleBytes, MetricKind::kCounter, "bytes",
       "bytes moved between distinct workers by shuffles (partition, CPMM "
       "aggregation, crossed row/col sums, reduce)"},
      {kMetricBroadcastBytes, MetricKind::kCounter, "bytes",
       "bytes replicated to all workers by broadcasts (incl. broadcast "
       "loads)"},
      {kMetricShuffleRounds, MetricKind::kCounter, "rounds",
       "shuffle communication rounds (one per shuffling step)"},
      {kMetricBroadcastRounds, MetricKind::kCounter, "rounds",
       "broadcast communication rounds"},
      {kMetricStepsExecuted, MetricKind::kCounter, "steps",
       "plan steps executed"},
      {kMetricStages, MetricKind::kGauge, "stages",
       "barrier stages of the last executed plan"},
      {kMetricPeakMemoryBytes, MetricKind::kGauge, "bytes",
       "peak tracked block memory over the last execution"},
      {kMetricEngineTasks, MetricKind::kCounter, "tasks",
       "block tasks run by the worker-local engine"},
      {kMetricQueueWaitSeconds, MetricKind::kHistogram, "seconds",
       "time a block task waited in the worker task queue before a thread "
       "picked it up"},
      {kMetricTaskSecondsMultiply, MetricKind::kHistogram, "seconds",
       "per-task kernel time of block-multiply tasks"},
      {kMetricTaskSecondsTranspose, MetricKind::kHistogram, "seconds",
       "per-task kernel time of block-transpose tasks"},
      {kMetricTaskSecondsElementwise, MetricKind::kHistogram, "seconds",
       "per-task kernel time of cell-wise, scalar, and unary tasks"},
      {kMetricTaskSecondsAggregate, MetricKind::kHistogram, "seconds",
       "per-task kernel time of partial-sum aggregation tasks (CPMM phase "
       "2, row/col-sum merges)"},
      {kMetricGemmFlops, MetricKind::kCounter, "flops",
       "floating-point operations executed by the multiply kernels (2mnk "
       "per dense GEMM, 2 per sparse multiply-add)"},
      {kMetricGemmPackSeconds, MetricKind::kHistogram, "seconds",
       "per-multiply-task time spent packing/staging GEMM operand panels "
       "and converting sparse formats (the pack-vs-compute split of "
       "docs/kernels.md)"},
      {kMetricGemmTasks, MetricKind::kCounter, "tasks",
       "parallel GEMM tile tasks run by the threaded dense macro-kernel "
       "(0 while every multiply takes the serial path)"},
      {kMetricPoolAcquires, MetricKind::kCounter, "blocks",
       "dense accumulator blocks acquired from the result buffer pool"},
      {kMetricPoolReuses, MetricKind::kCounter, "blocks",
       "acquires satisfied by a recycled block instead of an allocation"},
      {kMetricPoolDiscards, MetricKind::kCounter, "blocks",
       "released blocks dropped because the shape's idle slot was full"},
      {kMetricPlanDecomposeSeconds, MetricKind::kGauge, "seconds",
       "driver time of the last program decomposition"},
      {kMetricPlanGenerateSeconds, MetricKind::kGauge, "seconds",
       "driver time of the last plan generation (Algorithm 1, incl. the "
       "verifier when enabled)"},
      {kMetricPlanVerifySeconds, MetricKind::kGauge, "seconds",
       "driver time of the last static plan verification (all analysis "
       "passes)"},
      {kMetricPlanSearchCandidates, MetricKind::kCounter, "plans",
       "complete candidate plans costed and ranked by the plan search"},
      {kMetricPlanSearchPlanned, MetricKind::kCounter, "plans",
       "GeneratePlan invocations made by the plan search (window scoring "
       "plus full-program finalists)"},
      {kMetricPlanSearchRejected, MetricKind::kCounter, "plans",
       "search candidates dropped by a planning or verification failure"},
      {kMetricPlanSearchSeconds, MetricKind::kGauge, "seconds",
       "driver time of the last cost-based plan search"},
      {kMetricPlanEstimateDrift, MetricKind::kGauge, "ratio",
       "estimated-vs-measured communication ratio of the last run "
       "(max/min, so always >= 1; 1 = perfect estimate)"},
      {kMetricPlanEstimateDriftEvents, MetricKind::kCounter, "events",
       "runs whose measured communication diverged more than 4x from the "
       "plan-time estimate (worst-case sparsity pessimism made visible)"},
      {kMetricFaultInjected, MetricKind::kCounter, "faults",
       "faults injected by the fault framework (crashes, lost blocks, "
       "corruptions, transient failures, stragglers)"},
      {kMetricFaultRetries, MetricKind::kCounter, "retries",
       "plan-step attempts repeated after a retryable failure"},
      {kMetricFaultRecomputedBlocks, MetricKind::kCounter, "blocks",
       "damaged blocks rebuilt by re-running their lineage producer steps"},
      {kMetricFaultRestoredBlocks, MetricKind::kCounter, "blocks",
       "damaged blocks restored from a checkpoint or a surviving broadcast "
       "replica instead of recomputation"},
      {kMetricFaultSpeculatedTasks, MetricKind::kCounter, "tasks",
       "straggler worker tasks re-executed speculatively on a backup "
       "worker"},
      {kMetricFaultCheckpointBytes, MetricKind::kCounter, "bytes",
       "block payload bytes deep-copied into the driver checkpoint store"},
      {kMetricFaultRecoverySeconds, MetricKind::kCounter, "seconds",
       "simulated worker time spent on recovery instead of useful compute "
       "(retried attempts, backoff waits, abandoned straggler attempts)"},
      {kMetricFaultCheckpointDurableBytes, MetricKind::kCounter, "bytes",
       "bytes committed to durable checkpoint storage (block files plus "
       "manifests)"},
      {kMetricFaultCheckpointEpochs, MetricKind::kCounter, "epochs",
       "durable checkpoint epochs committed (manifest atomically renamed)"},
      {kMetricFaultCheckpointFailures, MetricKind::kCounter, "failures",
       "durable checkpoint commits that failed on a disk fault (the run "
       "continued on the previous epoch)"},
      {kMetricFaultResumeRestoredBlocks, MetricKind::kCounter, "blocks",
       "blocks read back from a durable checkpoint on crash-restart resume"},
      {kMetricFaultResumeSeconds, MetricKind::kCounter, "seconds",
       "wall time spent restoring a durable snapshot on resume"},
      {kMetricFaultDiskFaults, MetricKind::kCounter, "faults",
       "disk faults drawn by the StorageIO layer (short writes, bit flips, "
       "ENOSPC, fsync failures)"},
      {kMetricPoolOutstanding, MetricKind::kGauge, "blocks",
       "buffer-pool blocks currently acquired and not yet released, across "
       "all live pools (must drain to zero after every query)"},
      {kMetricPoolPeakBytes, MetricKind::kGauge, "bytes",
       "high-water mark of bytes held by buffer pools (outstanding plus "
       "idle blocks) since the last reset"},
      {kMetricGovernorSpillBytes, MetricKind::kCounter, "bytes",
       "block payload bytes written to spill files under memory pressure"},
      {kMetricGovernorSpillBlocks, MetricKind::kCounter, "blocks",
       "blocks spilled to disk under memory pressure"},
      {kMetricGovernorRestoreBytes, MetricKind::kCounter, "bytes",
       "block payload bytes read back (checksum-verified) from spill files"},
      {kMetricGovernorRestoreBlocks, MetricKind::kCounter, "blocks",
       "blocks restored from spill files"},
      {kMetricGovernorBudgetPeakBytes, MetricKind::kGauge, "bytes",
       "peak bytes charged against the last query's memory budget (stores "
       "plus pool accumulators)"},
      {kMetricGovernorAdmitted, MetricKind::kCounter, "queries",
       "queries admitted by the session's admission controller"},
      {kMetricGovernorRejected, MetricKind::kCounter, "queries",
       "queries rejected at admission (estimate over quota or queue full)"},
      {kMetricGovernorQueueDepth, MetricKind::kGauge, "queries",
       "queries waiting in the admission queue right now"},
      {kMetricGovernorCancelLatencySeconds, MetricKind::kHistogram, "seconds",
       "wall time from a cancel/deadline firing to the query's terminal "
       "status"},
      {kMetricNetMessages, MetricKind::kCounter, "messages",
       "transfers routed through the fault-injecting network layer"},
      {kMetricNetRetransmits, MetricKind::kCounter, "messages",
       "dropped transfers retransmitted until delivered"},
      {kMetricNetRetransBytes, MetricKind::kCounter, "bytes",
       "bytes moved again by network retransmits (recovery-side, never in "
       "the useful-comm totals)"},
      {kMetricNetDuplicates, MetricKind::kCounter, "messages",
       "duplicate deliveries absorbed by sequence-number dedup"},
      {kMetricNetReordered, MetricKind::kCounter, "messages",
       "out-of-order arrivals absorbed by sorted (sender, sequence) "
       "delivery"},
      {kMetricNetDelaySeconds, MetricKind::kCounter, "seconds",
       "simulated latency added by injected delays and retransmit backoff"},
      {kMetricNetPartitions, MetricKind::kCounter, "partitions",
       "transient bidirectional network partitions opened"},
      {kMetricNetStaleFenced, MetricKind::kCounter, "messages",
       "dead-sender transfers fenced by the membership epoch (the "
       "zombie-straggler double-write, prevented)"},
      {kMetricNetStaleApplied, MetricKind::kCounter, "messages",
       "audit counter: dead-sender transfers applied anyway (must stay 0)"},
      {kMetricMembershipEpoch, MetricKind::kGauge, "epoch",
       "membership epoch after the last run (1 = no membership changes)"},
      {kMetricMembershipWorkersDead, MetricKind::kGauge, "workers",
       "workers permanently dead at the end of the last run"},
      {kMetricMembershipDetectionSeconds, MetricKind::kCounter, "seconds",
       "simulated heartbeat-detector latency from death to declaration"},
  };
  return *catalog;
}

// ---- instruments ---------------------------------------------------------

void Counter::Add(double delta) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  AtomicAdd(&value_, delta);
}

void Gauge::Set(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  value_.store(value, std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  int bucket = 0;
  if (value >= kMinValue) {
    bucket = static_cast<int>(std::floor(std::log2(value / kMinValue)));
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  }
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(n - 1));
  for (int i = 0; i < kNumBuckets; ++i) {
    rank -= buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (rank < 0) return kMinValue * std::pow(2.0, i + 1);  // bucket's edge
  }
  return max();
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---- registry ------------------------------------------------------------

struct MetricRegistry::Instrument {
  const MetricSpec* spec;
  // Exactly one of these is non-null, matching spec->kind.
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

MetricRegistry::MetricRegistry() {
  for (const MetricSpec& spec : MetricCatalog()) {
    auto* inst = new Instrument{&spec};
    switch (spec.kind) {
      case MetricKind::kCounter:
        inst->counter = new Counter(&enabled_);
        break;
      case MetricKind::kGauge:
        inst->gauge = new Gauge(&enabled_);
        break;
      case MetricKind::kHistogram:
        inst->histogram = new Histogram(&enabled_);
        break;
    }
    instruments_.push_back(inst);
  }
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

const MetricRegistry::Instrument* MetricRegistry::Find(
    const std::string& name, MetricKind kind) const {
  for (const Instrument* inst : instruments_) {
    if (name == inst->spec->name) {
      DMAC_CHECK(inst->spec->kind == kind)
          << "metric " << name << " is a " << KindName(inst->spec->kind)
          << ", requested as " << KindName(kind);
      return inst;
    }
  }
  DMAC_CHECK(false) << "metric " << name
                    << " is not in the catalog (obs/metrics.cc)";
  return nullptr;
}

Counter* MetricRegistry::counter(const std::string& name) {
  return Find(name, MetricKind::kCounter)->counter;
}

Gauge* MetricRegistry::gauge(const std::string& name) {
  return Find(name, MetricKind::kGauge)->gauge;
}

Histogram* MetricRegistry::histogram(const std::string& name) {
  return Find(name, MetricKind::kHistogram)->histogram;
}

void MetricRegistry::Reset() {
  for (Instrument* inst : instruments_) {
    switch (inst->spec->kind) {
      case MetricKind::kCounter:
        inst->counter->Reset();
        break;
      case MetricKind::kGauge:
        inst->gauge->Reset();
        break;
      case MetricKind::kHistogram:
        inst->histogram->Reset();
        break;
    }
  }
}

std::vector<MetricValue> MetricRegistry::Collect() const {
  std::vector<MetricValue> out;
  for (const Instrument* inst : instruments_) {
    MetricValue v;
    v.name = inst->spec->name;
    v.kind = inst->spec->kind;
    v.unit = inst->spec->unit;
    switch (inst->spec->kind) {
      case MetricKind::kCounter:
        v.value = inst->counter->value();
        if (v.value == 0) continue;
        break;
      case MetricKind::kGauge:
        v.value = inst->gauge->value();
        if (v.value == 0) continue;
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *inst->histogram;
        if (h.count() == 0) continue;
        v.value = h.sum();
        v.count = h.count();
        v.mean = h.mean();
        v.p50 = h.Quantile(0.5);
        v.p99 = h.Quantile(0.99);
        v.max = h.max();
        break;
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& v : Collect()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + v.name + "\",\"kind\":\"" + KindName(v.kind) +
           "\",\"unit\":\"" + v.unit + "\",\"value\":" + FormatDouble(v.value);
    if (v.kind == MetricKind::kHistogram) {
      out += ",\"count\":" + std::to_string(v.count) +
             ",\"mean\":" + FormatDouble(v.mean) +
             ",\"p50\":" + FormatDouble(v.p50) +
             ",\"p99\":" + FormatDouble(v.p99) +
             ",\"max\":" + FormatDouble(v.max);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::string MetricRegistry::ToCsv() const {
  std::string out = "name,kind,unit,value,count,mean,p50,p99,max\n";
  for (const MetricValue& v : Collect()) {
    out += v.name;
    out += ",";
    out += KindName(v.kind);
    out += ",";
    out += v.unit;
    out += "," + FormatDouble(v.value);
    if (v.kind == MetricKind::kHistogram) {
      out += "," + std::to_string(v.count) + "," + FormatDouble(v.mean) +
             "," + FormatDouble(v.p50) + "," + FormatDouble(v.p99) + "," +
             FormatDouble(v.max);
    } else {
      out += ",,,,,";
    }
    out += "\n";
  }
  return out;
}

}  // namespace dmac
