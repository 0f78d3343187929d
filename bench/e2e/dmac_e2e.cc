// dmac_e2e — end-to-end benchmark of whole applications (README.md in this
// directory).
//
//   dmac_e2e [--workload NAME[,NAME...]] [--seed S] [--seconds T]
//            [--trace 0|1] [--quick] [--out FILE] [--trace-dir DIR]
//            [--calibration FILE]
//
// One closed-loop client runs one application at a time through
// RunProgram, the API dmac_run uses, in a process that keeps the memory it
// frees (RetainFreedMemory). Every workload gets one untimed
// warm-up run, checked against the local interpreter; then timed runs go
// round-robin over the selected workloads, the first workload rotating each
// round, until --seconds have passed, or for 30 rounds (3 with --quick)
// when --seconds is not given.
// Every timed run must reproduce the warm-up's output bits, and is followed
// by PlanProgram calls timed on their own (setup_s). With --trace 1
// the planning layers are timed one by one and each workload runs once more
// with tracing on, which yields the per-layer metrics and the time ledger.
//
// The last stdout line is one JSON object: correct, attempted, failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Metric names carry a "<workload>." prefix when more than one workload
// runs. --out writes every sample, quartile and ledger row.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "common/timer.h"
#include "fault/checksum.h"
#include "lang/decompose.h"
#include "ledger.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "plan/costmodel.h"
#include "workloads.h"

#ifndef DMAC_E2E_BUILD_TYPE
#define DMAC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dmac;
using namespace dmac::e2e;

constexpr double kOracleTolerance = 1e-3;

struct Options {
  std::vector<std::string> workloads = WorkloadNames();
  uint64_t seed = 42;
  double seconds = 0;
  int runs = 30;
  bool trace = true;
  bool quick = false;
  std::string out;
  std::string trace_dir = "build-e2e/traces";
  std::string calibration = "CALIBRATION.json";
};

// ---- small JSON rendering ------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Obj(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += Str(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string NumArr(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

// ---- statistics ----------------------------------------------------------

/// Median and quartiles as Python's statistics.median / quantiles(n=4)
/// (exclusive method) compute them, so compare.py and this file agree.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
};

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  auto quartile = [&](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double Median(const std::vector<double>& v) { return Summarize(v).median; }

// ---- per-workload state --------------------------------------------------

/// What one run contributes to the end-to-end and runtime metrics.
struct RunSample {
  double wall_s = 0;
  double sim_cluster_s = 0;
  double comm_mb = 0;
  double peak_mem_mb = 0;
  double exec_s = 0;
  double compute_crit_s = 0;
  double compute_total_s = 0;
  double comm_rounds = 0;
  double shuffle_mb = 0;
  double broadcast_mb = 0;
};

RunSample SampleOf(const RunOutcome& o, double wall_s) {
  const ExecStats& st = o.result.stats;
  RunSample s;
  s.wall_s = wall_s;
  s.sim_cluster_s = st.SimulatedSeconds(NetworkModel{});
  s.comm_mb = st.comm_bytes() / 1e6;
  s.peak_mem_mb = static_cast<double>(st.peak_memory_bytes) / 1e6;
  s.exec_s = o.execute_seconds;
  s.compute_crit_s = st.ComputeWallSeconds();
  s.compute_total_s = st.TotalComputeSeconds();
  s.comm_rounds = static_cast<double>(st.comm_events());
  s.shuffle_mb = st.shuffle_bytes / 1e6;
  s.broadcast_mb = st.broadcast_bytes / 1e6;
  return s;
}

struct TracedRun {
  bool ran = false;
  Ledger ledger;
  std::map<std::string, MetricValue> metrics;
  std::string trace_file;
  std::string metrics_file;
  std::string check;
};

struct State {
  std::unique_ptr<Workload> w;
  double gen_s = 0;
  bool usable = false;  // warm-up ran; timed runs compare against it
  uint64_t digest = 0;
  Plan plan;
  ExecStats warm_stats;
  double oracle_s = 0;
  std::string oracle = "not run";
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<RunSample> samples;
  std::vector<double> setup_s, decompose_s, generate_s, search_s;
  int64_t search_candidates = 0;
  double est_s = 0;
  TracedRun traced;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
    std::fprintf(stderr, "[%s] FAILED: %s\n", w->name.c_str(), what.c_str());
  }
};

/// Bit-level digest of every output (matrices in name order, block
/// checksums in grid order, then scalars).
uint64_t Digest(const ExecutionResult& r) {
  std::map<std::string, const LocalMatrix*> matrices;
  for (const auto& [name, m] : r.matrices) matrices[name] = &m;
  uint64_t h = 0;
  for (const auto& [name, m] : matrices) {
    h = Fnv1a(name.data(), name.size(), h);
    for (int64_t bi = 0; bi < m->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < m->grid().block_cols(); ++bj) {
        const uint64_t c = BlockChecksum(m->BlockAt(bi, bj));
        h = Fnv1a(&c, sizeof(c), h);
      }
    }
  }
  std::map<std::string, double> scalars(r.scalars.begin(), r.scalars.end());
  for (const auto& [name, v] : scalars) {
    h = Fnv1a(name.data(), name.size(), h);
    h = Fnv1a(&v, sizeof(v), h);
  }
  return h;
}

/// One RunProgram call, timed from the call to its result.
Result<RunOutcome> TimedRun(const Workload& w, double* wall_s) {
  Timer timer;
  Result<RunOutcome> outcome = RunProgram(w.program, w.bindings, w.config);
  *wall_s = timer.ElapsedSeconds();
  return outcome;
}

Status CheckOracle(const Workload& w, const ExecutionResult& r) {
  DMAC_ASSIGN_OR_RETURN(
      LocalRunResult local,
      InterpretLocally(w.program, w.bindings, w.config.block_size,
                       w.config.seed));
  if (local.matrices.size() != r.matrices.size()) {
    return Status::Internal("output count differs from the local oracle");
  }
  for (const auto& [name, m] : r.matrices) {
    auto it = local.matrices.find(name);
    if (it == local.matrices.end()) {
      return Status::Internal("output " + name + " missing from the oracle");
    }
    if (!m.ApproxEqual(it->second, kOracleTolerance)) {
      return Status::Internal("output " + name +
                              " differs from the local oracle by more than " +
                              Num(kOracleTolerance));
    }
  }
  return Status::Ok();
}

void WarmUp(State* s) {
  double wall = 0;
  ++s->attempted;
  Result<RunOutcome> o = TimedRun(*s->w, &wall);
  if (!o.ok()) {
    s->Fail("warm-up: " + o.status().ToString());
    return;
  }
  s->usable = true;
  s->digest = Digest(o->result);
  s->plan = o->plan;
  s->warm_stats = o->result.stats;
  Timer timer;
  Status oracle = CheckOracle(*s->w, o->result);
  s->oracle_s = timer.ElapsedSeconds();
  s->oracle = oracle.ok() ? "ok" : oracle.ToString();
  if (!oracle.ok()) s->Fail("oracle: " + oracle.ToString());
}

/// Makes the process keep the memory it frees: one malloc arena, no
/// mmap-backed chunks, no trimming. By default every run hands a few
/// hundred MB back to the kernel (per-thread arena heaps are unmapped once
/// empty) and faults it in again, zeroed, in the next run; on a 4-vCPU
/// shared VM those page faults cost 15% of a GNMF run's CPU time and made
/// wall time noisier (README.md, "Noise"). Timed runs then measure the
/// program's own work on pages the warm-up already touched, as in a
/// long-lived process that runs one program after another.
void RetainFreedMemory() {
#if defined(__GLIBC__)
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

/// Up to four CPUs of `mask`, evenly spread over it.
std::vector<int> SpreadCpus(const cpu_set_t& mask) {
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) allowed.push_back(c);
  }
  std::vector<int> out;
  const size_t n = std::min<size_t>(4, allowed.size());
  for (size_t i = 0; i < n; ++i) out.push_back(allowed[i * allowed.size() / n]);
  return out;
}

/// Median of `calls` timed PlanProgram calls on the current thread.
Result<double> PlanMedian(const Workload& w, int calls) {
  std::vector<double> times;
  for (int i = 0; i < calls; ++i) {
    Timer timer;
    Result<Plan> plan = PlanProgram(w.program, w.config);
    times.push_back(timer.ElapsedSeconds());
    DMAC_RETURN_NOT_OK(plan.status());
  }
  return Median(times);
}

/// One setup_s sample: PlanProgram timed on its own after every timed run,
/// so setup samples span the window like run samples do. Planning is
/// single-threaded, and on a shared host each CPU spends seconds to minutes
/// contended by other tenants, during which planning runs up to 55% slower.
/// So the calls run pinned to each of up to four CPUs in turn and the sample
/// is the fastest CPU's median: set-up time on an uncontended core.
void SetupBatch(State* s) {
  const Workload& w = *s->w;
  const int calls = w.config.plan_search != PlanSearchMode::kOff ? 1 : 5;
  cpu_set_t original;
  const bool pinnable = sched_getaffinity(0, sizeof(original), &original) == 0;
  double best = std::numeric_limits<double>::infinity();
  for (int cpu : pinnable ? SpreadCpus(original) : std::vector<int>{-1}) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      // Best effort: where pinning is refused the calls run unpinned.
      sched_setaffinity(0, sizeof(one), &one);
    }
    Result<double> t = PlanMedian(w, calls);
    if (!t.ok()) {
      s->Fail("PlanProgram: " + t.status().ToString());
      break;
    }
    best = std::min(best, *t);
  }
  if (pinnable && sched_setaffinity(0, sizeof(original), &original) != 0) {
    s->Fail("cannot restore the CPU affinity after timing setup");
  }
  if (std::isfinite(best)) s->setup_s.push_back(best);
}

void TimedRound(State* s) {
  double wall = 0;
  ++s->attempted;
  Result<RunOutcome> o = TimedRun(*s->w, &wall);
  if (!o.ok()) {
    s->Fail("timed run: " + o.status().ToString());
    return;
  }
  if (Digest(o->result) != s->digest) {
    s->Fail("timed run output differs from the warm-up run");
    return;
  }
  s->samples.push_back(SampleOf(*o, wall));
  SetupBatch(s);
}

/// PlannerOptions exactly as RunProgram derives them from a RunConfig.
PlannerOptions PlannerOptionsOf(const RunConfig& c) {
  PlannerOptions opts;
  opts.num_workers = c.num_workers;
  opts.exploit_dependencies = c.exploit_dependencies;
  opts.pull_up_broadcast = c.pull_up_broadcast;
  opts.reassignment = c.reassignment;
  opts.fuse_transposes = c.fuse_transposes;
  opts.verify_plan = c.verify_plan;
  opts.min_workers = c.min_workers;
  opts.resume = c.resume || !c.checkpoint_dir.empty();
  return opts;
}

/// Times the planning layers one by one for the per-layer metrics:
/// Decompose, GeneratePlan, and a beam SearchProgram; and prices the plan
/// that ran with the calibrated cost model.
void MeasurePlanning(State* s, const Options& opt) {
  const Workload& w = *s->w;
  const PlannerOptions popts = PlannerOptionsOf(w.config);
  for (int i = 0; i < (opt.quick ? 5 : 100); ++i) {
    Timer timer;
    Result<OperatorList> ops = Decompose(w.program);
    s->decompose_s.push_back(timer.ElapsedSeconds());
    if (!ops.ok()) {
      s->Fail("Decompose: " + ops.status().ToString());
      return;
    }
    timer.Reset();
    Result<Plan> plan = GeneratePlan(*ops, popts);
    s->generate_s.push_back(timer.ElapsedSeconds());
    if (!plan.ok()) {
      s->Fail("GeneratePlan: " + plan.status().ToString());
      return;
    }
  }
  RunConfig search_config = w.config;
  search_config.plan_search = PlanSearchMode::kBeam;
  search_config.calibration_path = opt.calibration;
  for (int i = 0; i < (opt.quick ? 2 : 5); ++i) {
    Timer timer;
    Result<SearchResult> sres = SearchProgram(w.program, search_config);
    s->search_s.push_back(timer.ElapsedSeconds());
    if (!sres.ok()) {
      s->Fail("SearchProgram: " + sres.status().ToString());
      return;
    }
    s->search_candidates = static_cast<int64_t>(sres->candidates.size());
  }

  // The calibrated estimate of the plan that actually ran.
  Result<CalibrationTable> table = CalibrationTable::Load(opt.calibration);
  if (table.ok()) {
    CostModelOptions mopts;
    mopts.num_workers = w.config.num_workers;
    mopts.threads_per_worker = w.config.threads_per_worker;
    mopts.block_size = w.config.block_size;
    s->est_s =
        CostModel(std::move(*table), mopts).EstimatePlan(s->plan).seconds();
  }
}

/// One run with tracing and metrics on; writes the Chrome trace and the
/// metric dump, validates the trace, and builds the ledger.
void TraceOnce(State* s, const Options& opt) {
  const Workload& w = *s->w;
  ++s->attempted;
  TraceRecorder& recorder = TraceRecorder::Global();
  EnableObservability();
  const int64_t start_ns = recorder.NowNs();
  Result<RunOutcome> o = RunProgram(w.program, w.bindings, w.config);
  const int64_t end_ns = recorder.NowNs();
  DisableObservability();
  if (!o.ok()) {
    s->Fail("traced run: " + o.status().ToString());
    return;
  }
  if (Digest(o->result) != s->digest) {
    s->Fail("traced run output differs from the warm-up run");
    return;
  }

  TracedRun& t = s->traced;
  const std::vector<TraceEvent> events = recorder.Snapshot();
  for (MetricValue& m : MetricRegistry::Global().Collect()) {
    t.metrics[m.name] = m;
  }
  t.ledger = BuildLedger(events, start_ns, end_ns);
  t.trace_file = opt.trace_dir + "/" + w.name + ".trace.json";
  t.metrics_file = opt.trace_dir + "/" + w.name + ".metrics.json";
  Status st = WriteChromeTraceFile(t.trace_file, events);
  if (st.ok()) st = WriteMetricsFile(t.metrics_file);
  if (!st.ok()) {
    s->Fail("writing trace: " + st.ToString());
    return;
  }
  Result<TraceCheckSummary> check = CheckChromeTraceFile(t.trace_file);
  if (!check.ok()) {
    s->Fail("trace check: " + check.status().ToString());
    return;
  }
  if (check->stage_spans == 0 || check->comm_spans == 0 ||
      check->task_spans == 0 || check->worker_attributed == 0) {
    s->Fail("trace check: missing stage/comm/task/worker spans: " +
            check->ToString());
    return;
  }
  t.check = check->ToString();
  t.ran = true;
}

// ---- metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::vector<double> Column(const State& s, double RunSample::*field) {
  std::vector<double> out;
  for (const RunSample& r : s.samples) out.push_back(r.*field);
  return out;
}

/// End-to-end metrics with their samples (setup_s samples are the
/// PlanProgram timings, the others the timed runs).
struct EndToEnd {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

std::vector<EndToEnd> EndToEndOf(const State& s) {
  return {
      {"wall_s", "s", Column(s, &RunSample::wall_s)},
      {"setup_s", "s", s.setup_s},
      {"sim_cluster_s", "s", Column(s, &RunSample::sim_cluster_s)},
      {"comm_mb", "MB", Column(s, &RunSample::comm_mb)},
      {"peak_mem_mb", "MB", Column(s, &RunSample::peak_mem_mb)},
  };
}

std::vector<Metric> PerLayerOf(const State& s) {
  const TracedRun& t = s.traced;
  auto value = [&](const char* name) {
    auto it = t.metrics.find(name);
    return it == t.metrics.end() ? 0.0 : it->second.value;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  std::vector<double> skew;
  for (const RunSample& r : s.samples) {
    skew.push_back(ratio(s.w->config.num_workers * r.compute_crit_s,
                         r.compute_total_s));
  }
  const double exec_s = Median(Column(s, &RunSample::exec_s));
  const double multiply_s = value(kMetricTaskSecondsMultiply);
  // Transpose and aggregate tasks do not occur in every workload; a time
  // metric that is zero on every run says nothing, so they count as other.
  const double other_s = value(kMetricTaskSecondsTranspose) +
                         value(kMetricTaskSecondsElementwise) +
                         value(kMetricTaskSecondsAggregate);
  const double gemm_flops = value(kMetricGemmFlops);
  auto queue_wait = t.metrics.find(kMetricQueueWaitSeconds);
  const Ledger& l = t.ledger;

  std::vector<Metric> m = {
      {"lang.decompose_s", "s", Median(s.decompose_s)},
      {"plan.generate_s", "s", Median(s.generate_s)},
      {"plan.search_s", "s", Median(s.search_s)},
      {"plan.search_candidates", "count",
       static_cast<double>(s.search_candidates)},
      {"plan.steps", "count", static_cast<double>(s.plan.steps.size())},
      {"plan.stages", "count", static_cast<double>(s.plan.num_stages)},
      {"plan.est_ratio", "ratio", ratio(s.est_s, exec_s)},
      {"plan.comm_drift", "ratio", s.warm_stats.estimate_drift},
      {"runtime.exec_s", "s", exec_s},
      {"runtime.compute_crit_s", "s",
       Median(Column(s, &RunSample::compute_crit_s))},
      {"runtime.compute_total_s", "s",
       Median(Column(s, &RunSample::compute_total_s))},
      {"runtime.skew", "ratio", Median(skew)},
      {"runtime.comm_rounds", "count",
       Median(Column(s, &RunSample::comm_rounds))},
      {"runtime.shuffle_mb", "MB", Median(Column(s, &RunSample::shuffle_mb))},
      {"runtime.broadcast_mb", "MB",
       Median(Column(s, &RunSample::broadcast_mb))},
      {"runtime.load_s", "s", l.row(LedgerRow::kLoad)},
      {"runtime.comm_span_s", "s", l.row(LedgerRow::kComm)},
      {"runtime.step_self_s", "s", l.row(LedgerRow::kExecutor)},
      {"engine.tasks", "count", value(kMetricEngineTasks)},
      {"engine.queue_wait_mean_s", "s",
       queue_wait == t.metrics.end() ? 0.0 : queue_wait->second.mean},
      {"engine.task_s.multiply", "s", multiply_s},
      {"engine.task_s.other", "s", other_s},
      {"engine.busy_frac", "ratio",
       ratio(multiply_s + other_s,
             s.w->config.threads_per_worker * l.worker_span_s)},
      {"matrix.gemm_gflop", "GFLOP", gemm_flops / 1e9},
      {"matrix.multiply_gflops", "GFLOP/s",
       ratio(gemm_flops / 1e9, multiply_s)},
      {"matrix.pack_frac", "ratio",
       ratio(value(kMetricGemmPackSeconds), multiply_s)},
      {"pool.acquires", "count", value(kMetricPoolAcquires)},
      {"pool.hit_ratio", "ratio",
       ratio(value(kMetricPoolReuses), value(kMetricPoolAcquires))},
  };
  for (size_t r = 0; r < kLedgerRows; ++r) {
    m.push_back({std::string("ledger.") +
                     LedgerRowName(static_cast<LedgerRow>(r)) + "_frac",
                 "ratio", ratio(l.row_s[r], l.wall_s)});
  }
  m.push_back({"obs.trace_overhead_frac", "ratio",
               ratio(l.wall_s, Median(Column(s, &RunSample::wall_s))) - 1});
  return m;
}

// ---- output --------------------------------------------------------------

std::string WorkloadJson(const State& s) {
  Fields e2e;
  for (const EndToEnd& m : EndToEndOf(s)) {
    const Summary sum = Summarize(m.samples);
    e2e.emplace_back(m.name, Obj({{"unit", Str(m.unit)},
                                  {"median", Num(sum.median)},
                                  {"q1", Num(sum.q1)},
                                  {"q3", Num(sum.q3)},
                                  {"n", Num(static_cast<double>(sum.n))},
                                  {"samples", NumArr(m.samples)}}));
  }
  const double fail_frac =
      s.attempted > 0 ? static_cast<double>(s.failed) / s.attempted : 1.0;
  e2e.emplace_back("fail_frac",
                   Obj({{"unit", Str("ratio")}, {"value", Num(fail_frac)}}));

  Fields w = {{"description", Str(s.w->description)},
              {"block_size", Num(static_cast<double>(s.w->config.block_size))},
              {"gen_s", Num(s.gen_s)},
              {"oracle", Obj({{"result", Str(s.oracle)},
                              {"tolerance", Num(kOracleTolerance)},
                              {"seconds", Num(s.oracle_s)}})},
              {"attempted", Num(static_cast<double>(s.attempted))},
              {"failed", Num(static_cast<double>(s.failed))},
              {"end_to_end", Obj(e2e)},
              {"plan_est_s", Num(s.est_s)},
              {"modeled_comm_s",
               Num(s.warm_stats.CommSeconds(NetworkModel{}))}};
  std::string errors = "[";
  for (size_t i = 0; i < s.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + Str(s.errors[i]);
  }
  w.emplace_back("errors", errors + "]");
  if (s.traced.ran) {
    Fields per_layer;
    for (const Metric& m : PerLayerOf(s)) {
      per_layer.emplace_back(
          m.name, Obj({{"unit", Str(m.unit)}, {"value", Num(m.value)}}));
    }
    Fields rows;
    for (size_t r = 0; r < kLedgerRows; ++r) {
      rows.emplace_back(LedgerRowName(static_cast<LedgerRow>(r)),
                        Num(s.traced.ledger.row_s[r]));
    }
    w.emplace_back("per_layer", Obj(per_layer));
    w.emplace_back("ledger", Obj({{"wall_s", Num(s.traced.ledger.wall_s)},
                                  {"rows_s", Obj(rows)}}));
    w.emplace_back("trace", Obj({{"file", Str(s.traced.trace_file)},
                                 {"metrics_file", Str(s.traced.metrics_file)},
                                 {"check", Str(s.traced.check)}}));
  }
  return Obj(w);
}

void PrintTable(const std::vector<State>& states) {
  for (const State& s : states) {
    std::fprintf(stderr, "\n== %s (%s; block %lld; oracle %s, %.2fs)\n",
                 s.w->name.c_str(), s.w->description.c_str(),
                 static_cast<long long>(s.w->config.block_size),
                 s.oracle.c_str(), s.oracle_s);
    for (const EndToEnd& m : EndToEndOf(s)) {
      const Summary sum = Summarize(m.samples);
      std::fprintf(stderr, "  %-16s %12.6g %-3s  [q1 %.6g, q3 %.6g] n=%zu\n",
                   m.name.c_str(), sum.median, m.unit.c_str(), sum.q1, sum.q3,
                   sum.n);
    }
    if (!s.traced.ran) continue;
    const Ledger& l = s.traced.ledger;
    std::fprintf(stderr, "  ledger of the traced run (%.4f s):", l.wall_s);
    for (size_t r = 0; r < kLedgerRows; ++r) {
      std::fprintf(stderr, " %s %.1f%%",
                   LedgerRowName(static_cast<LedgerRow>(r)),
                   100 * l.row_s[r] / l.wall_s);
    }
    std::fprintf(stderr, "\n");
  }
}

// ---- command line --------------------------------------------------------

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME[,NAME...]] [--seed S] "
               "[--seconds T] [--trace 0|1] [--quick] "
               "[--out FILE] [--trace-dir DIR] [--calibration FILE]\n"
               "workloads: gnmf-search, pagerank, cf\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      opt->quick = true;
      opt->runs = 3;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    auto number = [&] {
      const double v = std::strtod(value.c_str(), &end);
      return end != value.c_str() && *end == '\0' && v >= 0 ? v : -1;
    };
    if (arg == "--workload") {
      opt->workloads.clear();
      for (size_t pos = 0; pos <= value.size();) {
        const size_t comma = std::min(value.find(',', pos), value.size());
        const std::string name = value.substr(pos, comma - pos);
        const auto& all = WorkloadNames();
        if (std::find(all.begin(), all.end(), name) == all.end()) return false;
        opt->workloads.push_back(name);
        pos = comma + 1;
      }
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = number();
      if (opt->seconds < 0) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--out") {
      opt->out = value;
    } else if (arg == "--trace-dir") {
      opt->trace_dir = value;
    } else if (arg == "--calibration") {
      opt->calibration = value;
    } else {
      return false;
    }
  }
  return !opt->workloads.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RetainFreedMemory();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage(argv[0]);
  // An unreadable calibration file would silently change the searched plan.
  if (!std::filesystem::is_regular_file(opt.calibration)) {
    std::fprintf(stderr, "calibration file %s not found\n",
                 opt.calibration.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.trace_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Timer total;
  WorkloadOptions wopts;
  wopts.seed = opt.seed;
  wopts.size_divisor = opt.quick ? 4 : 1;
  wopts.calibration_path = opt.calibration;
  std::vector<State> states;
  for (const std::string& name : opt.workloads) {
    Timer timer;
    Result<std::unique_ptr<Workload>> w = MakeWorkload(name, wopts);
    if (!w.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   w.status().ToString().c_str());
      return 1;
    }
    State s;
    s.w = std::move(*w);
    s.gen_s = timer.ElapsedSeconds();
    std::fprintf(stderr, "[%s] inputs %s, block %lld (%.2fs)\n", name.c_str(),
                 s.w->description.c_str(),
                 static_cast<long long>(s.w->config.block_size), s.gen_s);
    states.push_back(std::move(s));
  }

  for (State& s : states) WarmUp(&s);

  Timer window;
  int rounds = 0;
  while (opt.seconds > 0 ? rounds < 3 || window.ElapsedSeconds() < opt.seconds
                         : rounds < opt.runs) {
    for (size_t i = 0; i < states.size(); ++i) {
      State& s = states[(static_cast<size_t>(rounds) + i) % states.size()];
      if (s.usable) TimedRound(&s);
    }
    ++rounds;
  }
  const double window_s = window.ElapsedSeconds();

  if (opt.trace) {
    for (State& s : states) {
      if (!s.usable) continue;
      MeasurePlanning(&s, opt);
      TraceOnce(&s, opt);
    }
  }

  int64_t attempted = 0, failed = 0;
  for (const State& s : states) {
    attempted += s.attempted;
    failed += s.failed;
  }
  const bool correct = failed == 0;
  PrintTable(states);
  std::fprintf(stderr, "\n%d rounds in %.1f s, %.1f s total\n", rounds,
               window_s, total.ElapsedSeconds());

  if (!opt.out.empty()) {
    Fields env = {
        {"nproc", Num(std::thread::hardware_concurrency())},
        {"workers", Num(RunConfig{}.num_workers)},
        {"threads_per_worker", Num(RunConfig{}.threads_per_worker)},
        {"build_type", Str(DMAC_E2E_BUILD_TYPE)},
        {"seed", Num(static_cast<double>(opt.seed))},
        {"quick", opt.quick ? "true" : "false"},
        {"seconds", Num(opt.seconds)},
        {"rounds", Num(rounds)},
        {"window_s", Num(window_s)},
        {"total_s", Num(total.ElapsedSeconds())}};
    Fields workloads;
    for (const State& s : states) {
      workloads.emplace_back(s.w->name, WorkloadJson(s));
    }
    std::ofstream out(opt.out, std::ios::trunc);
    out << Obj({{"schema", Str("dmac-e2e-v1")},
                {"env", Obj(env)},
                {"correct", correct ? "true" : "false"},
                {"attempted", Num(static_cast<double>(attempted))},
                {"failed", Num(static_cast<double>(failed))},
                {"workloads", Obj(workloads)}})
        << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }

  Fields metrics;
  for (const State& s : states) {
    const std::string prefix = states.size() > 1 ? s.w->name + "." : "";
    auto add = [&](const std::string& name, const std::string& unit,
                   double v) {
      metrics.emplace_back(prefix + name,
                           Obj({{"value", Num(v)}, {"unit", Str(unit)}}));
    };
    if (!opt.trace) {
      for (const EndToEnd& m : EndToEndOf(s)) {
        add(m.name, m.unit, Median(m.samples));
      }
    } else if (s.traced.ran) {
      for (const Metric& m : PerLayerOf(s)) add(m.name, m.unit, m.value);
    }
  }
  std::printf("%s\n", Obj({{"correct", correct ? "true" : "false"},
                           {"attempted", Num(static_cast<double>(attempted))},
                           {"failed", Num(static_cast<double>(failed))},
                           {"metrics", Obj(metrics)}})
                          .c_str());
  return correct ? 0 : 1;
}
