// End-to-end observability: run a real program (GNMF) on the simulated
// cluster with tracing + metrics on and check the resulting trace and
// metric dump deliver what docs/observability.md promises — and that a
// disabled run records nothing at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "apps/gnmf.h"
#include "apps/runner.h"
#include "common/json.h"
#include "data/synthetic.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "obs/trace_check.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 16;
constexpr int kWorkers = 3;

Result<RunOutcome> RunSmallGnmf() {
  GnmfConfig config{64, 48, 0.2, 6, 2};
  Program program = BuildGnmfProgram(config);
  LocalMatrix v = SyntheticSparse(64, 48, 0.2, kBs, 31);
  Bindings bindings;
  bindings.emplace("V", &v);
  RunConfig run;
  run.num_workers = kWorkers;
  run.block_size = kBs;
  return RunProgram(program, bindings, run);
}

TEST(ObsExecTest, EnabledRunProducesAllSpanCategoriesAndMetrics) {
  EnableObservability();
  auto outcome = RunSmallGnmf();
  DisableObservability();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  const auto events = TraceRecorder::Global().Snapshot();
  ASSERT_FALSE(events.empty());
  std::set<std::string> categories;
  int worker_attributed = 0;
  int max_worker = -1;
  for (const TraceEvent& e : events) {
    categories.insert(e.category);
    if (e.worker >= 0) {
      ++worker_attributed;
      max_worker = std::max(max_worker, e.worker);
    }
  }
  // The full span model: plan passes, stages, steps, comm events, worker
  // compute, and block tasks must all appear in one executed program.
  for (const char* cat : {kTracePlan, kTraceStage, kTraceStep, kTraceComm,
                          kTraceWorker, kTraceTask}) {
    EXPECT_TRUE(categories.count(cat)) << "no " << cat << " spans";
  }
  EXPECT_GT(worker_attributed, 0);
  // Worker ids stay within the simulated cluster.
  EXPECT_LT(max_worker, kWorkers);
  EXPECT_EQ(TraceRecorder::Global().dropped_events(), 0);

  // The Chrome export of this run passes the independent validator.
  auto summary = CheckChromeTrace(ChromeTraceJson(events));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->stage_spans, 0);
  EXPECT_GT(summary->comm_spans, 0);
  EXPECT_GT(summary->task_spans, 0);
  EXPECT_GT(summary->worker_attributed, 0);
  EXPECT_EQ(summary->max_pid, kWorkers);  // pid w+1, all workers busy

  // Metrics: the executed-plan instruments and the engine instruments all
  // saw traffic, and the dump carries them.
  auto& reg = MetricRegistry::Global();
  EXPECT_GT(reg.counter("exec.steps")->value(), 0);
  EXPECT_GT(reg.counter("exec.shuffle.bytes")->value() +
                reg.counter("exec.broadcast.bytes")->value(),
            0);
  EXPECT_GT(reg.counter(kMetricEngineTasks)->value(), 0);
  EXPECT_GT(reg.gauge("exec.stages")->value(), 0);
  EXPECT_GT(reg.gauge(kMetricPlanGenerateSeconds)->value(), 0);
  EXPECT_GT(reg.histogram(kMetricTaskSecondsMultiply)->count(), 0);
  // Kernel accounting (docs/kernels.md): every multiply task contributes
  // flops, and each observes its packing time (possibly zero).
  EXPECT_GT(reg.counter(kMetricGemmFlops)->value(), 0);
  EXPECT_GT(reg.histogram(kMetricGemmPackSeconds)->count(), 0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find(kMetricEngineTasks), std::string::npos);

  // Engine task counter matches the number of task spans exactly — every
  // dispatched block task got one span and one count.
  EXPECT_DOUBLE_EQ(reg.counter(kMetricEngineTasks)->value(),
                   static_cast<double>(summary->task_spans));

  // Trace comm spans match the metric round counters (one span per round).
  EXPECT_DOUBLE_EQ(static_cast<double>(summary->comm_spans),
                   reg.counter("exec.shuffle.rounds")->value() +
                       reg.counter("exec.broadcast.rounds")->value());

  // The comm spans' `bytes` args add up to the run's measured traffic.
  double span_bytes = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.category) != kTraceComm) continue;
    auto args = ParseJson("{" + e.args + "}");
    ASSERT_TRUE(args.ok()) << e.name << ": " << e.args;
    const JsonValue* bytes = args->Find("bytes");
    ASSERT_NE(bytes, nullptr) << e.name << " has no bytes arg";
    span_bytes += bytes->number;
  }
  EXPECT_DOUBLE_EQ(span_bytes, outcome->result.stats.comm_bytes());

  TraceRecorder::Global().Clear();
  reg.Reset();
}

TEST(ObsExecTest, DisabledRunRecordsNothing) {
  TraceRecorder::Global().Clear();
  MetricRegistry::Global().Reset();
  ASSERT_FALSE(TraceRecorder::Global().enabled());
  ASSERT_FALSE(MetricRegistry::Global().enabled());

  auto outcome = RunSmallGnmf();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
  EXPECT_TRUE(MetricRegistry::Global().Collect().empty());
}

TEST(ObsExecTest, EnabledAndDisabledRunsComputeTheSameResult) {
  // Observability must be read-only: identical seeds give identical
  // numerical results and identical comm accounting with obs on or off.
  auto plain = RunSmallGnmf();
  ASSERT_TRUE(plain.ok());
  EnableObservability();
  auto observed = RunSmallGnmf();
  DisableObservability();
  TraceRecorder::Global().Clear();
  MetricRegistry::Global().Reset();
  ASSERT_TRUE(observed.ok());

  const LocalMatrix& w1 = plain->result.matrices.at("W");
  const LocalMatrix& w2 = observed->result.matrices.at("W");
  EXPECT_DOUBLE_EQ(w1.Sum(), w2.Sum());
  EXPECT_EQ(w1.Nnz(), w2.Nnz());
  EXPECT_DOUBLE_EQ(plain->result.stats.comm_bytes(),
                   observed->result.stats.comm_bytes());
  EXPECT_EQ(plain->result.stats.comm_events(),
            observed->result.stats.comm_events());
}

}  // namespace
}  // namespace dmac
