// Named runtime metrics (docs/observability.md).
//
// A MetricRegistry holds one instrument per entry of the static metric
// catalog: monotonic counters, last-value gauges, and log-bucketed
// histograms. Instruments are plain atomics, safe to update from any worker
// thread, and permanently addressable — call-sites cache the pointer once
// and Reset() only zeroes values. While the registry is disabled every
// update is one relaxed atomic load and an early return.
//
// Every metric name that can ever appear in a dump is listed in
// MetricCatalog() and documented in docs/observability.md; a unit test
// enforces catalog <-> documentation parity.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dmac {

enum class MetricKind { kCounter, kGauge, kHistogram };

struct ExecStats;

/// Catalog entry: the single source of truth for a metric's identity. A
/// metric fed from a run's ExecStats also says how to read it there, so
/// exporting a new ExecStats field takes one row here and one docs row.
struct MetricSpec {
  const char* name;  // dotted, e.g. "exec.shuffle.bytes"
  MetricKind kind;
  const char* unit;  // "bytes", "rounds", "seconds", "tasks", "blocks"
  const char* help;  // one-line meaning, mirrored in the docs
  /// The run's value of an ExecStats-fed metric; null for metrics other
  /// layers update directly.
  double (*read)(const ExecStats&) = nullptr;
  /// Gauges only: whether the metric's layer ran at all (null = always).
  bool (*ran)(const ExecStats&) = nullptr;
};

/// Every metric this build can emit, in dump order.
const std::vector<MetricSpec>& MetricCatalog();

class MetricRegistry;

/// Monotonic counter (doubles, so byte totals beyond 2^53 are the caller's
/// problem — the simulator never gets close).
class Counter {
 public:
  void Add(double delta);
  void Increment() { Add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Last-written-value gauge.
class Gauge {
 public:
  void Set(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Histogram over positive values with power-of-two buckets spanning
/// [1 ns, ~4.4 s] when observing seconds (values outside clamp to the first
/// or last bucket). Tracks count, sum, and max exactly; quantiles are
/// bucket-resolution estimates.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;
  /// Smallest distinguishable value; bucket i covers
  /// [kMinValue·2^i, kMinValue·2^(i+1)).
  static constexpr double kMinValue = 1e-9;

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const int64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Upper edge of the bucket holding quantile `q` in [0,1]; 0 when empty.
  double Quantile(double q) const;

 private:
  friend class MetricRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void Reset();

  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

/// One exported metric value (flattened for the JSON/CSV dumps).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string unit;
  double value = 0;      // counter/gauge value; histogram sum
  int64_t count = 0;     // histogram only
  double mean = 0;       // histogram only
  double p50 = 0;        // histogram only
  double p99 = 0;        // histogram only
  double max = 0;        // histogram only
};

/// Process-wide registry; instruments are created up front from the
/// catalog. All methods are thread-safe.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Instrument lookup by catalog name. The name must exist in the catalog
  /// with the matching kind; unknown names abort (they indicate a call-site
  /// out of sync with the catalog). Pointers stay valid forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Zeroes every instrument (pointers stay valid).
  void Reset();

  /// Feeds one run's ExecStats into every catalog metric that reads it.
  /// Counters add the run's totals on every exit path; gauges are set only
  /// by a `completed` run, and only when their layer ran.
  void Record(const ExecStats& stats, bool completed);

  /// Snapshot of every instrument with a non-zero footprint (counters with
  /// value 0 and never-observed histograms are skipped so dumps only show
  /// what the run actually touched). Catalog order.
  std::vector<MetricValue> Collect() const;

  /// Full dumps of Collect() — `{"metrics":[...]}` / CSV with header.
  std::string ToJson() const;
  std::string ToCsv() const;

  MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

 private:
  struct Instrument;
  const Instrument* Find(const std::string& name, MetricKind kind) const;

  std::atomic<bool> enabled_{false};
  std::vector<Instrument*> instruments_;  // catalog order, never freed
};

// ---- catalog names -------------------------------------------------------
// Names of the metrics other layers update directly; each must appear in
// MetricCatalog(). ExecStats-fed metrics are named only by their row.

inline constexpr const char* kMetricEngineTasks = "engine.tasks";
inline constexpr const char* kMetricQueueWaitSeconds =
    "engine.queue_wait.seconds";
inline constexpr const char* kMetricTaskSecondsMultiply =
    "engine.task.seconds.multiply";
inline constexpr const char* kMetricTaskSecondsTranspose =
    "engine.task.seconds.transpose";
inline constexpr const char* kMetricTaskSecondsElementwise =
    "engine.task.seconds.elementwise";
inline constexpr const char* kMetricTaskSecondsAggregate =
    "engine.task.seconds.aggregate";
inline constexpr const char* kMetricGemmFlops = "engine.gemm_flops";
inline constexpr const char* kMetricGemmPackSeconds =
    "engine.gemm.pack.seconds";
// Not in the catalog, so never recorded; bench/e2e/dmac_e2e.cc names them.
inline constexpr const char* kMetricPoolAcquires = "pool.acquires";
inline constexpr const char* kMetricPoolReuses = "pool.reuses";
inline constexpr const char* kMetricPlanDecomposeSeconds =
    "plan.decompose.seconds";
inline constexpr const char* kMetricPlanGenerateSeconds =
    "plan.generate.seconds";
inline constexpr const char* kMetricPlanVerifySeconds = "plan.verify.seconds";
inline constexpr const char* kMetricPlanSearchCandidates =
    "planner.search.candidates";
inline constexpr const char* kMetricPlanSearchPlanned =
    "planner.search.planned";
inline constexpr const char* kMetricPlanSearchRejected =
    "planner.search.rejected";
inline constexpr const char* kMetricPlanSearchSeconds =
    "planner.search.seconds";
inline constexpr const char* kMetricGovernorSpillBytes = "governor.spill.bytes";
inline constexpr const char* kMetricGovernorSpillBlocks =
    "governor.spill.blocks";
inline constexpr const char* kMetricGovernorRestoreBytes =
    "governor.restore.bytes";
inline constexpr const char* kMetricGovernorRestoreBlocks =
    "governor.restore.blocks";
inline constexpr const char* kMetricGovernorBudgetPeakBytes =
    "governor.budget.peak.bytes";
inline constexpr const char* kMetricGovernorAdmitted =
    "governor.admission.admitted";
inline constexpr const char* kMetricGovernorRejected =
    "governor.admission.rejected";
inline constexpr const char* kMetricGovernorQueueDepth =
    "governor.admission.queue_depth";
inline constexpr const char* kMetricGovernorCancelLatencySeconds =
    "governor.cancel.latency.seconds";

}  // namespace dmac
