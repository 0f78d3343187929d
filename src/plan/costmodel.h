// Calibrated plan cost model (ROADMAP item 2).
//
// The planner's Equation 1 ranks strategies by communication bytes alone
// (paper §4.1). This layer turns a finalized plan into estimated *seconds*:
// per-kernel compute rates (GFLOP/s for multiplies, bytes/s for streaming
// kernels) measured by bench_kernels, combined with the simulated network's
// bandwidth/latency model. The plan search layer (plan/search.h) ranks
// whole candidate plans with it; dmac_lint --cost prints it per step.
//
// Rates come from a CalibrationTable: loaded from a `dmac-calibration-v1`
// document (CALIBRATION.json, scripts/gen_calibration.py) or directly from
// a `dmac-kernel-bench-v2` sweep (BENCH_kernels.json), with conservative
// built-in defaults when no file is given. An unreadable path degrades to
// the paper's byte-only cost (compute terms zero) with a one-line warning,
// so plan ranking still works — it just reproduces Equation 1's order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "plan/plan.h"
#include "obs/exec_stats.h"

namespace dmac {

/// Measured throughput of one kernel class.
struct CalibrationRate {
  double gflops = 0;            // useful FLOP/s (multiply kernels), 1e9 units
  double bytes_per_second = 0;  // payload throughput (streaming kernels)
};

/// Kernel-rate table keyed by (kind, representation, trans), holding one
/// entry per measured block size / thread count.
class CalibrationTable {
 public:
  /// Conservative single-thread rates baked into the binary — the shape of
  /// a real BENCH_kernels.json sweep, scaled down so estimates err toward
  /// overpredicting compute.
  static CalibrationTable Builtin();

  /// Loads a `dmac-calibration-v1` or `dmac-kernel-bench-v2` document.
  /// Unreadable path → byte-cost-only table plus one warning line (the
  /// paper-style fallback); malformed content is an error.
  static Result<CalibrationTable> Load(const std::string& path);

  /// Parses a document from JSON text (exposed for tests).
  static Result<CalibrationTable> Parse(const std::string& json,
                                        const std::string& source);

  /// Byte-cost mode: no compute rates; estimates carry only the §4.1
  /// communication terms.
  bool byte_cost_only() const { return byte_cost_only_; }
  /// Where the rates came from: "builtin", a file path, or "byte-cost".
  const std::string& source() const { return source_; }
  size_t num_entries() const { return entries_.size(); }

  void Add(const std::string& kind, const std::string& representation,
           const std::string& trans, int64_t block_size, int threads,
           CalibrationRate rate);

  /// Best-matching rate: exact (kind, representation, trans) at the nearest
  /// block size with the fewest threads, falling back to any representation
  /// of the kind, then to a zero rate (caller treats 0 as "unknown").
  CalibrationRate Lookup(const std::string& kind,
                         const std::string& representation,
                         const std::string& trans, int64_t block_size) const;

 private:
  struct Entry {
    std::string kind;
    std::string representation;
    std::string trans;
    int64_t block_size = 0;
    int threads = 1;
    CalibrationRate rate;
  };
  std::vector<Entry> entries_;
  bool byte_cost_only_ = false;
  std::string source_ = "builtin";
};

/// Cost estimate of one plan step.
struct StepCost {
  double compute_seconds = 0;
  double comm_seconds = 0;
  double comm_bytes = 0;
  double seconds() const { return compute_seconds + comm_seconds; }
};

/// Cost estimate of a whole plan. `steps` is aligned with Plan::steps.
struct PlanCost {
  double compute_seconds = 0;
  double comm_seconds = 0;
  double comm_bytes = 0;
  std::vector<StepCost> steps;
  double seconds() const { return compute_seconds + comm_seconds; }
};

/// Cluster configuration the estimate is for.
struct CostModelOptions {
  int num_workers = 4;
  int threads_per_worker = kDefaultThreadsPerWorker;
  /// Block side used to pick the nearest calibration entry. 0 = the
  /// table's entries are matched at 256 (the bench default).
  int64_t block_size = 0;
  NetworkModel network;
};

/// Combines §4.1 communication formulas with calibrated compute rates.
class CostModel {
 public:
  CostModel(CalibrationTable table, CostModelOptions options);

  StepCost EstimateStep(const Plan& plan, const PlanStep& step) const;
  PlanCost EstimatePlan(const Plan& plan) const;

  const CalibrationTable& table() const { return table_; }
  const CostModelOptions& options() const { return options_; }

 private:
  double MultiplySeconds(const Plan& plan, const PlanStep& step) const;
  double StreamSeconds(const std::string& representation,
                       double bytes) const;

  CalibrationTable table_;
  CostModelOptions options_;
};

}  // namespace dmac
