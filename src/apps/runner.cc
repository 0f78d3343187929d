#include "apps/runner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/timer.h"
#include "lang/decompose.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/size_estimator.h"
#include "runtime/block_size.h"

namespace dmac {

namespace {

PlannerOptions ToPlannerOptions(const RunConfig& config) {
  PlannerOptions opts;
  opts.num_workers = config.num_workers;
  opts.exploit_dependencies = config.exploit_dependencies;
  opts.pull_up_broadcast = config.pull_up_broadcast;
  opts.reassignment = config.reassignment;
  opts.fuse_transposes = config.fuse_transposes;
  opts.verify_plan = config.verify_plan;
  opts.min_workers = config.min_workers;
  opts.resume = config.resume || !config.checkpoint_dir.empty();
  return opts;
}

/// Decompose() with a plan-phase trace span and a planning-time gauge.
Result<OperatorList> TimedDecompose(const Program& program) {
  TraceSpan span(kTracePlan, "decompose");
  Timer timer;
  Result<OperatorList> ops = Decompose(program);
  static Gauge* decompose_seconds =
      MetricRegistry::Global().gauge(kMetricPlanDecomposeSeconds);
  decompose_seconds->Set(timer.ElapsedSeconds());
  return ops;
}

/// GeneratePlan() with a plan-phase trace span and a planning-time gauge.
Result<Plan> TimedGeneratePlan(const OperatorList& ops,
                               const PlannerOptions& opts) {
  TraceSpan span(kTracePlan, "generate-plan");
  Timer timer;
  Result<Plan> plan = GeneratePlan(ops, opts);
  static Gauge* generate_seconds =
      MetricRegistry::Global().gauge(kMetricPlanGenerateSeconds);
  generate_seconds->Set(timer.ElapsedSeconds());
  return plan;
}

/// Cost model for the search: calibrated from `calibration_path` when
/// given (unreadable files degrade to byte costs inside Load), built-in
/// rates otherwise.
Result<CostModel> BuildCostModel(const RunConfig& config) {
  CalibrationTable table = CalibrationTable::Builtin();
  if (!config.calibration_path.empty()) {
    DMAC_ASSIGN_OR_RETURN(table,
                          CalibrationTable::Load(config.calibration_path));
  }
  CostModelOptions mopts;
  mopts.num_workers = config.num_workers;
  mopts.threads_per_worker = config.threads_per_worker;
  mopts.block_size = config.block_size;
  return CostModel(std::move(table), mopts);
}

Result<SearchResult> RunSearch(const OperatorList& ops,
                               const RunConfig& config) {
  DMAC_ASSIGN_OR_RETURN(CostModel model, BuildCostModel(config));
  SearchOptions sopts;
  sopts.mode = config.plan_search;
  sopts.beam_width = config.beam_width;
  PlannerOptions popts = ToPlannerOptions(config);
  return SearchPlans(ops, popts, sopts, model);
}

/// Runs the search; fills `info` and returns the winning plan.
Result<Plan> SearchedPlan(const OperatorList& ops, const RunConfig& config,
                          RunSearchInfo* info) {
  DMAC_ASSIGN_OR_RETURN(SearchResult sres, RunSearch(ops, config));
  info->ran = true;
  info->candidates = static_cast<int64_t>(sres.candidates.size());
  info->rejected = sres.stats.rejected;
  info->seconds = sres.stats.seconds;
  for (const PlanCandidate& cand : sres.candidates) {
    if (cand.greedy) {
      info->greedy_seconds = cand.cost.seconds();
      info->greedy_comm_bytes = cand.cost.comm_bytes;
      break;
    }
  }
  PlanCandidate& best = sres.candidates[0];
  info->best_seconds = best.cost.seconds();
  info->best_comm_bytes = best.cost.comm_bytes;
  info->best_decisions = best.decisions;
  return std::move(best.plan);
}

}  // namespace

Result<Plan> PlanProgram(const Program& program, const RunConfig& config) {
  DMAC_ASSIGN_OR_RETURN(OperatorList ops, TimedDecompose(program));
  if (config.plan_search != PlanSearchMode::kOff) {
    DMAC_ASSIGN_OR_RETURN(SearchResult sres, RunSearch(ops, config));
    return std::move(sres.candidates[0].plan);
  }
  return TimedGeneratePlan(ops, ToPlannerOptions(config));
}

Result<SearchResult> SearchProgram(const Program& program,
                                   const RunConfig& config) {
  DMAC_ASSIGN_OR_RETURN(OperatorList ops, TimedDecompose(program));
  return RunSearch(ops, config);
}

Result<int64_t> ChooseProgramBlockSize(const Program& program, int workers,
                                       int threads_per_worker) {
  DMAC_ASSIGN_OR_RETURN(OperatorList ops, Decompose(program));
  DMAC_ASSIGN_OR_RETURN(StatsMap stats, EstimateSizes(ops));

  int64_t largest_extent = 1;
  int64_t largest_elements = 1;
  for (const auto& [name, s] : stats) {
    largest_extent = std::max({largest_extent, s.shape.rows, s.shape.cols});
    largest_elements = std::max(largest_elements, s.shape.NumElements());
  }

  int64_t bound = std::numeric_limits<int64_t>::max();
  for (const auto& [name, s] : stats) {
    if (s.shape.rows <= 1 || s.shape.cols <= 1) continue;  // vectors exempt
    // Matrices far smaller than the dominant one compute trivially; letting
    // a k×k factor dictate the block side would shred the big operands.
    if (s.shape.NumElements() * 1000 < largest_elements) continue;
    bound = std::min(bound,
                     BlockSizeUpperBound(s.shape, workers,
                                         threads_per_worker));
  }
  if (bound == std::numeric_limits<int64_t>::max()) bound = largest_extent;
  return std::clamp<int64_t>(bound, std::min<int64_t>(32, largest_extent),
                             largest_extent);
}

Result<RunOutcome> RunProgram(const Program& program, const Bindings& bindings,
                              const RunConfig& config) {
  Timer plan_timer;
  DMAC_ASSIGN_OR_RETURN(OperatorList ops, TimedDecompose(program));
  RunSearchInfo search_info;
  Plan plan;
  if (config.plan_search != PlanSearchMode::kOff) {
    DMAC_ASSIGN_OR_RETURN(plan, SearchedPlan(ops, config, &search_info));
  } else {
    DMAC_ASSIGN_OR_RETURN(plan,
                          TimedGeneratePlan(ops, ToPlannerOptions(config)));
  }
  const double plan_seconds = plan_timer.ElapsedSeconds();

  Executor executor(config);

  Timer exec_timer;
  DMAC_ASSIGN_OR_RETURN(ExecutionResult result,
                        executor.Execute(plan, bindings));
  RunOutcome outcome;
  outcome.execute_seconds = exec_timer.ElapsedSeconds();
  outcome.plan = std::move(plan);
  outcome.result = std::move(result);
  outcome.plan_seconds = plan_seconds;
  outcome.search = std::move(search_info);
  return outcome;
}

}  // namespace dmac
