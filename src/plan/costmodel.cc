#include "plan/costmodel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "matrix/block.h"

namespace dmac {

namespace {

// Entry fields read from a document ParseJson accepted; a missing or
// mistyped field reads as 0 / "" and Parse's checks decide if that is fatal.
double NumberField(const JsonValue& entry, const std::string& key) {
  const JsonValue* v = entry.Find(key);
  return (v != nullptr && v->type == JsonValue::Type::kNumber) ? v->number
                                                               : 0;
}

std::string StringField(const JsonValue& entry, const std::string& key) {
  const JsonValue* v = entry.Find(key);
  return (v != nullptr && v->type == JsonValue::Type::kString) ? v->string
                                                               : "";
}

}  // namespace

// ---- CalibrationTable ----------------------------------------------------

CalibrationTable CalibrationTable::Builtin() {
  // The shape of a BENCH_kernels.json sweep at block size 256, scaled down
  // ~2x so uncalibrated estimates err toward overpredicting compute.
  CalibrationTable t;
  t.source_ = "builtin";
  const int64_t bs = 256;
  auto gemm = [&](const char* rep, const char* trans, double gflops) {
    t.Add("gemm", rep, trans, bs, 1, {gflops, gflops * 1e9 / 8});
  };
  for (const char* trans : {"nn", "nt", "tn", "tt"}) {
    gemm("dense_dense", trans, 8.0);
    gemm("dense_sparse", trans, 1.0);
    gemm("sparse_dense", trans, 1.0);
    gemm("sparse_sparse", trans, 0.3);
  }
  auto vec = [&](const char* rep, double bps) {
    t.Add("vec", rep, "", bs, 1, {0, bps});
  };
  vec("add_accumulate", 20e9);
  vec("cell_unary_abs", 20e9);
  vec("sum", 8e9);
  vec("sum_squares", 8e9);
  vec("row_sums", 12e9);
  vec("col_sums", 12e9);
  return t;
}

void CalibrationTable::Add(const std::string& kind,
                           const std::string& representation,
                           const std::string& trans, int64_t block_size,
                           int threads, CalibrationRate rate) {
  entries_.push_back({kind, representation, trans,
                      std::max<int64_t>(block_size, 1), std::max(threads, 1),
                      rate});
}

CalibrationRate CalibrationTable::Lookup(const std::string& kind,
                                         const std::string& representation,
                                         const std::string& trans,
                                         int64_t block_size) const {
  const double target = std::log2(static_cast<double>(
      std::max<int64_t>(block_size > 0 ? block_size : 256, 1)));
  const Entry* best = nullptr;
  // (representation match, trans match) dominate; nearest block size and
  // fewest threads (per-core rates compose with the parallelism divisor)
  // break ties.
  double best_score = -1;
  for (const Entry& e : entries_) {
    if (e.kind != kind) continue;
    const double bs_dist =
        std::fabs(std::log2(static_cast<double>(e.block_size)) - target);
    double score = 0;
    if (e.representation == representation) score += 1000;
    if (e.trans == trans) score += 100;
    score -= bs_dist * 10;
    score -= e.threads;
    if (best == nullptr || score > best_score) {
      best = &e;
      best_score = score;
    }
  }
  return best != nullptr ? best->rate : CalibrationRate{};
}

Result<CalibrationTable> CalibrationTable::Parse(const std::string& json,
                                                 const std::string& source) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return Status::Invalid("calibration JSON: " + parsed.status().message());
  }
  const JsonValue& doc = *parsed;
  if (doc.type != JsonValue::Type::kObject) {
    return Status::Invalid("calibration JSON: not an object");
  }
  const std::string schema = StringField(doc, "schema");
  if (schema != "dmac-calibration-v1" && schema != "dmac-kernel-bench-v2") {
    return Status::Invalid("calibration JSON: unknown schema '" +
                                   schema + "'");
  }
  const JsonValue* entries = doc.Find("entries");
  if (entries == nullptr || entries->type != JsonValue::Type::kArray ||
      entries->array.empty()) {
    return Status::Invalid("calibration JSON: no entries");
  }
  CalibrationTable t;
  t.source_ = source;
  for (const JsonValue& e : entries->array) {
    if (e.type != JsonValue::Type::kObject) {
      return Status::Invalid("calibration JSON: entry not an object");
    }
    const std::string kind = StringField(e, "kind");
    if (kind.empty()) {
      return Status::Invalid("calibration JSON: entry without kind");
    }
    // The seed-loop reference rows document the speedup only; the engine
    // never runs that kernel.
    if (kind == "gemm_seed_reference") continue;
    t.Add(kind, StringField(e, "representation"), StringField(e, "trans"),
          static_cast<int64_t>(NumberField(e, "block_size")),
          static_cast<int>(NumberField(e, "threads")),
          {NumberField(e, "gflops"), NumberField(e, "bytes_per_second")});
  }
  if (t.entries_.empty()) {
    return Status::Invalid("calibration JSON: no usable entries");
  }
  return t;
}

Result<CalibrationTable> CalibrationTable::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr,
                 "[costmodel] warning: calibration file '%s' unreadable; "
                 "falling back to paper-style byte costs\n",
                 path.c_str());
    CalibrationTable t;
    t.byte_cost_only_ = true;
    t.source_ = "byte-cost";
    return t;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), path);
}

// ---- CostModel -----------------------------------------------------------

CostModel::CostModel(CalibrationTable table, CostModelOptions options)
    : table_(std::move(table)), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.threads_per_worker < 1) options_.threads_per_worker = 1;
}

double CostModel::StreamSeconds(const std::string& representation,
                                double bytes) const {
  const CalibrationRate rate =
      table_.Lookup("vec", representation, "", options_.block_size);
  if (rate.bytes_per_second <= 0) return 0;
  const double cores = static_cast<double>(options_.num_workers) *
                       static_cast<double>(options_.threads_per_worker);
  return bytes / rate.bytes_per_second / cores;
}

double CostModel::MultiplySeconds(const Plan& plan,
                                  const PlanStep& step) const {
  if (step.inputs.size() != 2) return 0;
  MatrixStats a = plan.nodes[static_cast<size_t>(step.inputs[0])].stats;
  MatrixStats b = plan.nodes[static_cast<size_t>(step.inputs[1])].stats;
  if (step.trans_a) a = a.Transposed();
  if (step.trans_b) b = b.Transposed();
  const double m = static_cast<double>(a.shape.rows);
  const double k = static_cast<double>(a.shape.cols);
  const double n = static_cast<double>(b.shape.cols);
  const double flops =
      std::max(2.0 * m * k * n * a.sparsity * b.sparsity, 1.0);

  const auto rep = [&](double density) {
    return density >= kDensityThreshold ? "dense" : "sparse";
  };
  const std::string representation =
      std::string(rep(a.sparsity)) + "_" + rep(b.sparsity);
  const std::string trans =
      std::string(step.trans_a ? "t" : "n") + (step.trans_b ? "t" : "n");
  const CalibrationRate rate =
      table_.Lookup("gemm", representation, trans, options_.block_size);
  const double cores = static_cast<double>(options_.num_workers) *
                       static_cast<double>(options_.threads_per_worker);
  if (rate.gflops <= 0) {
    // No multiply rate: charge the operands + result as a stream.
    return StreamSeconds("add_accumulate",
                         a.EstimatedBytes() + b.EstimatedBytes());
  }
  return flops / (rate.gflops * 1e9) / cores;
}

StepCost CostModel::EstimateStep(const Plan& plan,
                                 const PlanStep& step) const {
  StepCost cost;
  cost.comm_bytes = step.comm_bytes;
  cost.comm_seconds =
      step.comm_bytes / options_.network.bandwidth_bytes_per_sec +
      (step.Communicates() ? options_.network.latency_sec : 0.0);
  if (table_.byte_cost_only()) return cost;

  const auto node_bytes = [&](int id) {
    return id >= 0 ? plan.nodes[static_cast<size_t>(id)].stats.EstimatedBytes()
                   : 0.0;
  };
  const auto inputs_bytes = [&] {
    double total = 0;
    for (int id : step.inputs) total += node_bytes(id);
    return total;
  };

  switch (step.kind) {
    case StepKind::kCompute:
      switch (step.op_kind) {
        case OpKind::kMultiply:
          cost.compute_seconds = MultiplySeconds(plan, step);
          break;
        case OpKind::kRowSums:
          cost.compute_seconds = StreamSeconds("row_sums", inputs_bytes());
          break;
        case OpKind::kColSums:
          cost.compute_seconds = StreamSeconds("col_sums", inputs_bytes());
          break;
        default:  // element-wise: one streaming pass
          cost.compute_seconds =
              step.cell.kind == CellOp::kUnary
                  ? StreamSeconds("cell_unary_abs", inputs_bytes())
                  : StreamSeconds("add_accumulate",
                                  inputs_bytes() + node_bytes(step.output));
          break;
      }
      break;
    case StepKind::kTranspose:
    case StepKind::kExtract:
      cost.compute_seconds = StreamSeconds("add_accumulate", inputs_bytes());
      break;
    case StepKind::kReduce:
      cost.compute_seconds = StreamSeconds(
          step.reduce == ReduceKind::kNorm2 ? "sum_squares" : "sum",
          inputs_bytes());
      break;
    case StepKind::kLoad:
    case StepKind::kRandom:
      // Materialization: one streaming write of the produced matrix (the
      // distribution cost is already in comm_bytes for loads).
      cost.compute_seconds =
          StreamSeconds("add_accumulate", node_bytes(step.output));
      break;
    case StepKind::kPartition:
    case StepKind::kBroadcast:
    case StepKind::kScalarAssign:
      break;  // pure communication / driver-side
  }
  return cost;
}

PlanCost CostModel::EstimatePlan(const Plan& plan) const {
  PlanCost total;
  total.steps.reserve(plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    StepCost c = EstimateStep(plan, step);
    total.compute_seconds += c.compute_seconds;
    total.comm_seconds += c.comm_seconds;
    total.comm_bytes += c.comm_bytes;
    total.steps.push_back(c);
  }
  return total;
}

}  // namespace dmac
