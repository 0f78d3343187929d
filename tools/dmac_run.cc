// dmac_run — run a matrix-language script on the simulated cluster.
//
//   dmac_run SCRIPT.dmac [options]
//
// Options:
//   --workers N       simulated workers (default 4)
//   --threads L       local threads per worker (default 2)
//   --block B         block side (default: Eq. 3 choice for the largest load)
//   --baseline        plan with the SystemML-S (dependency-oblivious) planner
//   --bind NAME=FILE  bind a load to a MatrixMarket file
//   --plan-only       print the plan and exit
//   --dot             with --plan-only: emit Graphviz instead of text
//   --stats           print a per-stage compute breakdown after execution
//   --compare         run both planners and print a side-by-side summary
//   --verify-plan     run the static plan verifier (src/analysis) after
//                     planning; abort on any error diagnostic
//   --trace-out F     enable tracing; write a Chrome-trace JSON file to F
//                     after the run (open in Perfetto / chrome://tracing)
//   --metrics-out F   enable metrics; write the metric dump to F after the
//                     run (.csv suffix selects CSV, anything else JSON)
//   --seed S          RNG seed (default 42)
//   --fault-spec F    enable fault injection from a key=value spec file
//                     (docs/fault_tolerance.md); recovery statistics are
//                     printed on a [fault] summary line, permanent-death
//                     and network-fault accounting on [membership] and
//                     [fault.net] lines
//   --min-workers N   quorum for degraded mode (default 1): permanent
//                     worker deaths that would leave fewer than N live
//                     workers fail the run with kUnavailable instead of
//                     rebalancing
//   --checkpoint-every K
//                     checkpoint hinted matrices every K producing steps
//   --checkpoint-dir DIR
//                     durable checkpoints: commit every in-memory checkpoint
//                     to DIR as a crash-consistent epoch (write-temp, fsync,
//                     atomic rename); --checkpoint-every 0 then defaults to 1
//   --resume          restore the last committed epoch from --checkpoint-dir
//                     before executing; the resumed run is bit-identical to
//                     an uninterrupted one. A fresh/empty directory is a
//                     plain full run, so a crash-restart loop can always
//                     pass --resume
//   --crash-at N      simulate a crash at the N-th durable write point
//                     (1-based, counted across the run); the process exits
//                     with code 42 unless the spec sets crash_soft
//   --deadline-ms MS  wall-clock deadline (docs/governance.md); 0 is already
//                     expired, so the run fails with kDeadlineExceeded
//                     before any work happens
//   --mem-budget-mb MB
//                     per-query memory budget; cold partitions spill to disk
//                     past it, kResourceExhausted when spilling cannot help
//   --concurrency N   run the script as N concurrent queries through the
//                     admission-controlled QuerySession (all must succeed)
//   --help            print usage plus the exit-code table and exit 0
//
// Loads without a --bind are synthesized from their declared shape and
// sparsity, so any script runs out of the box:
//
//   dmac_run scripts/gnmf.dmac
//   dmac_run scripts/gnmf.dmac --bind V=ratings.mtx --workers 8
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/runner.h"
#include "common/parse.h"
#include "data/matrix_market.h"
#include "data/synthetic.h"
#include "governor/query_session.h"
#include "lang/parser.h"
#include "obs/session.h"
#include "plan/plan_dot.h"
#include "runtime/block_size.h"

using namespace dmac;

namespace {

/// Collects every load declaration (name → shape, sparsity) in the program.
void CollectLoads(const MatrixExprPtr& e,
                  std::map<std::string, std::pair<Shape, double>>* loads);

void CollectLoadsScalar(const ScalarExprPtr& e,
                        std::map<std::string, std::pair<Shape, double>>* l) {
  if (e == nullptr) return;
  CollectLoads(e->matrix, l);
  CollectLoadsScalar(e->lhs, l);
  CollectLoadsScalar(e->rhs, l);
}

void CollectLoads(const MatrixExprPtr& e,
                  std::map<std::string, std::pair<Shape, double>>* loads) {
  if (e == nullptr) return;
  if (e->kind == MatrixExpr::Kind::kLoad) {
    (*loads)[e->name] = {e->shape, e->sparsity};
  }
  CollectLoads(e->lhs, loads);
  CollectLoads(e->rhs, loads);
  CollectLoadsScalar(e->scalar, loads);
}

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s SCRIPT.dmac [--workers N] [--threads L] "
               "[--block B] [--baseline] [--bind NAME=FILE] [--plan-only] "
               "[--dot] [--trace-out FILE] [--metrics-out FILE] [--seed S] "
               "[--fault-spec FILE] [--min-workers N] "
               "[--checkpoint-every K] [--checkpoint-dir DIR] [--resume] "
               "[--crash-at N] "
               "[--deadline-ms MS] [--mem-budget-mb MB] [--concurrency N] "
               "[--plan-search MODE] [--beam-width W] [--calibration FILE] "
               "[--help]\n"
               "\n"
               "plan search (docs/planner.md):\n"
               "  --plan-search off|beam|exhaustive  cost-based candidate\n"
               "      plan search; beam keeps --beam-width partial\n"
               "      assignments (default 8)\n"
               "  --calibration FILE   kernel rates (CALIBRATION.json or\n"
               "      BENCH_kernels.json); default: built-in rates\n"
               "\n"
               "exit codes (docs/governance.md):\n"
               "  0  success\n"
               "  1  error (parse, I/O, planning, execution)\n"
               "  2  bad usage\n"
               "  3  cancelled            (kCancelled)\n"
               "  4  deadline exceeded    (kDeadlineExceeded)\n"
               "  5  resource exhausted   (kResourceExhausted: admission "
               "rejected, or spilling cannot fit the budget)\n"
               "  6  unavailable          (kUnavailable: unrecovered fault, "
               "or permanent deaths broke the --min-workers quorum)\n"
               "  7  data loss            (kDataLoss: corruption detected)\n"
               "  42 simulated crash      (--crash-at / crash_at write point "
               "reached; restart with --resume)\n",
               argv0);
}

/// Reports a flag-value parse failure; true when `st` is OK.
bool Parsed(const Status& st) {
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok();
}

int Usage(const char* argv0) {
  PrintUsage(stderr, argv0);
  return 2;
}

/// Maps a terminal Status to the documented process exit code.
int ExitCodeFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kCancelled:
      return 3;
    case StatusCode::kDeadlineExceeded:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    case StatusCode::kUnavailable:
      return 6;
    case StatusCode::kDataLoss:
      return 7;
    default:
      return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--help") == 0) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  if (argc < 2) return Usage(argv[0]);
  const std::string script_path = argv[1];

  RunConfig config;
  bool plan_only = false, dot = false, stats_flag = false, compare = false;
  double deadline_ms = -1;  // < 0 = no deadline (0 is already expired)
  int64_t mem_budget_mb = 0;
  int64_t mem_budget_bytes = 0;
  int concurrency = 1;
  // Applied after --fault-spec so the flag wins over a spec-file crash_at.
  int crash_at = 0;
  std::string trace_out, metrics_out, fault_spec_path;
  std::map<std::string, std::string> file_bindings;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Accepts both "--flag VALUE" and "--flag=VALUE" for the output paths.
    auto path_flag = [&](const char* flag, std::string* out) -> bool {
      if (arg == flag) {
        const char* v = next_value();
        if (v) *out = v;
        return true;
      }
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    // Numeric flags parse with the fault-spec rule (common/parse.h): a
    // malformed, out-of-range, or below-`min` value is bad usage.
    auto int_flag = [&](auto* out, int64_t min) -> bool {
      const char* v = next_value();
      if (v == nullptr || !Parsed(ParseInt(arg, v, out))) return false;
      if (std::cmp_less(*out, min)) {
        std::fprintf(stderr, "%s must be >= %lld\n", arg.c_str(),
                     static_cast<long long>(min));
        return false;
      }
      return true;
    };
    if (path_flag("--trace-out", &trace_out)) {
      if (trace_out.empty()) return Usage(argv[0]);
    } else if (path_flag("--metrics-out", &metrics_out)) {
      if (metrics_out.empty()) return Usage(argv[0]);
    } else if (path_flag("--fault-spec", &fault_spec_path)) {
      if (fault_spec_path.empty()) return Usage(argv[0]);
    } else if (arg == "--min-workers") {
      if (!int_flag(&config.min_workers, 1)) return Usage(argv[0]);
    } else if (arg == "--checkpoint-every") {
      if (!int_flag(&config.checkpoint_every, 0)) return Usage(argv[0]);
    } else if (path_flag("--checkpoint-dir", &config.checkpoint_dir)) {
      if (config.checkpoint_dir.empty()) return Usage(argv[0]);
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg == "--crash-at") {
      if (!int_flag(&crash_at, 1)) return Usage(argv[0]);
    } else if (arg == "--deadline-ms") {
      const char* v = next_value();
      if (!v || !Parsed(ParseDouble(arg, v, &deadline_ms)) ||
          deadline_ms < 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--mem-budget-mb") {
      if (!int_flag(&mem_budget_mb, 1) ||
          !Parsed(MegabytesToBytes(arg, mem_budget_mb, &mem_budget_bytes))) {
        return Usage(argv[0]);
      }
    } else if (arg == "--concurrency") {
      if (!int_flag(&concurrency, 1)) return Usage(argv[0]);
    } else if (arg == "--help") {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else if (arg == "--workers") {
      if (!int_flag(&config.num_workers, 1)) return Usage(argv[0]);
    } else if (arg == "--threads") {
      if (!int_flag(&config.threads_per_worker, 1)) return Usage(argv[0]);
    } else if (arg == "--block") {
      if (!int_flag(&config.block_size, 0)) return Usage(argv[0]);
    } else if (arg == "--seed") {
      if (!int_flag(&config.seed, 0)) return Usage(argv[0]);
    } else if (path_flag("--calibration", &config.calibration_path)) {
      if (config.calibration_path.empty()) return Usage(argv[0]);
    } else if (arg == "--plan-search" ||
               arg.rfind("--plan-search=", 0) == 0) {
      std::string mode;
      if (arg == "--plan-search") {
        const char* v = next_value();
        if (!v) return Usage(argv[0]);
        mode = v;
      } else {
        mode = arg.substr(std::string("--plan-search=").size());
      }
      auto parsed = ParsePlanSearchMode(mode);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return Usage(argv[0]);
      }
      config.plan_search = *parsed;
    } else if (arg == "--beam-width") {
      if (!int_flag(&config.beam_width, 1)) return Usage(argv[0]);
    } else if (arg == "--baseline") {
      config.exploit_dependencies = false;
    } else if (arg == "--verify-plan") {
      config.verify_plan = true;
    } else if (arg == "--plan-only") {
      plan_only = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--bind") {
      const char* v = next_value();
      if (!v) return Usage(argv[0]);
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage(argv[0]);
      file_bindings[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else {
      return Usage(argv[0]);
    }
  }

  std::ifstream file(script_path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto program = ParseProgram(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  if (!fault_spec_path.empty()) {
    auto spec = LoadFaultSpecFile(fault_spec_path);
    if (!spec.ok()) {
      std::fprintf(stderr, "--fault-spec: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    config.fault = *spec;
  }
  if (crash_at > 0) config.fault.disk.crash_at = crash_at;
  if ((config.resume || crash_at > 0) && config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume / --crash-at require --checkpoint-dir\n");
    return 2;
  }

  const bool obs = !trace_out.empty() || !metrics_out.empty();
  if (obs) EnableObservability();
  // Writes the requested trace / metrics files. Every successful path
  // returns this, so a failed write turns into a nonzero exit code.
  auto finish_obs = [&]() -> int {
    if (!trace_out.empty()) {
      Status st = WriteTraceFile(trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "--trace-out: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (!metrics_out.empty()) {
      Status st = WriteMetricsFile(metrics_out);
      if (!st.ok()) {
        std::fprintf(stderr, "--metrics-out: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    return 0;
  };

  if (plan_only) {
    auto plan = PlanProgram(*program, config);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan error: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", dot ? PlanToDot(*plan).c_str()
                          : plan->ToString().c_str());
    return finish_obs();
  }

  // Assemble the input data: --bind files, synthetic for the rest.
  std::map<std::string, std::pair<Shape, double>> loads;
  for (const Statement& st : program->statements) {
    CollectLoads(st.matrix, &loads);
    CollectLoadsScalar(st.scalar, &loads);
  }
  int64_t block_size = config.block_size;
  if (block_size == 0) {
    auto chosen = ChooseProgramBlockSize(*program, config.num_workers,
                                         config.threads_per_worker);
    if (!chosen.ok()) {
      std::fprintf(stderr, "block-size inference: %s\n",
                   chosen.status().ToString().c_str());
      return 1;
    }
    block_size = *chosen;
    config.block_size = block_size;
  }

  std::vector<std::pair<std::string, LocalMatrix>> data;
  for (const auto& [name, decl] : loads) {
    auto it = file_bindings.find(name);
    if (it != file_bindings.end()) {
      auto m = ReadMatrixMarket(it->second, block_size);
      if (!m.ok()) {
        std::fprintf(stderr, "loading %s: %s\n", it->second.c_str(),
                     m.status().ToString().c_str());
        return 1;
      }
      data.emplace_back(name, std::move(*m));
    } else {
      std::fprintf(stderr, "note: synthesizing %s (%s, sparsity %g)\n",
                   name.c_str(), decl.first.ToString().c_str(), decl.second);
      data.emplace_back(name,
                        decl.second < 1.0
                            ? SyntheticSparse(decl.first.rows,
                                              decl.first.cols, decl.second,
                                              block_size, config.seed + 1)
                            : SyntheticDense(decl.first.rows, decl.first.cols,
                                             block_size, config.seed + 1));
    }
  }
  Bindings bindings;
  for (auto& [name, m] : data) bindings.emplace(name, &m);

  // ---- governance (docs/governance.md) ----
  if (concurrency > 1) {
    // Run the script as N concurrent queries through the admission-
    // controlled session; every query gets its own token/budget/spill.
    AdmissionQuota quota;
    quota.max_concurrent = concurrency;
    quota.max_queued = concurrency;
    QuerySession session(quota, config);
    QueryOptions qopts;
    // The session treats 0 as "no deadline": an explicit 0 ms deadline
    // becomes a tiny positive one, which is already expired.
    if (deadline_ms >= 0) qopts.deadline_seconds =
        std::max(deadline_ms / 1e3, 1e-9);
    qopts.memory_budget_bytes = mem_budget_bytes;
    std::vector<int64_t> ids;
    for (int i = 0; i < concurrency; ++i) {
      ids.push_back(session.Submit(*program, bindings, qopts));
    }
    int exit_code = 0;
    for (int64_t id : ids) {
      QueryOutcome q = session.Wait(id);
      std::printf("[query %lld] %s\n", static_cast<long long>(id),
                  q.status.ToString().c_str());
      if (!q.status.ok() && exit_code == 0) {
        exit_code = ExitCodeFor(q.status);
      }
    }
    const int obs_code = finish_obs();
    return exit_code != 0 ? exit_code : obs_code;
  }
  if (deadline_ms >= 0) {
    config.governor.token = CancelToken::WithDeadline(deadline_ms / 1e3);
  }
  if (mem_budget_bytes > 0) {
    config.governor.budget = std::make_shared<MemoryBudget>(mem_budget_bytes);
    auto spill = SpillStore::Create();
    if (!spill.ok()) {
      std::fprintf(stderr, "spill store: %s\n",
                   spill.status().ToString().c_str());
      return 1;
    }
    config.governor.spill = *spill;
  }

  if (compare) {
    std::printf("%-11s | %7s | %12s | %7s | %10s | %12s\n", "planner",
                "stages", "comm", "events", "compute(s)", "cluster-eq(s)");
    std::printf("------------+---------+--------------+---------+------------+-------------\n");
    for (bool exploit : {true, false}) {
      RunConfig c2 = config;
      c2.exploit_dependencies = exploit;
      auto run = RunProgram(*program, bindings, c2);
      if (!run.ok()) {
        std::fprintf(stderr, "execution error: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      const ExecStats& s = run->result.stats;
      std::printf("%-11s | %7d | %9.2f MB | %7lld | %10.3f | %12.3f\n",
                  exploit ? "DMac" : "SystemML-S", run->plan.num_stages,
                  s.comm_bytes() / 1e6,
                  static_cast<long long>(s.comm_events()),
                  s.ComputeWallSeconds(),
                  s.SimulatedSeconds(NetworkModel{}));
    }
    return finish_obs();
  }

  auto outcome = RunProgram(*program, bindings, config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 outcome.status().ToString().c_str());
    finish_obs();  // governance failures still flush traces/metrics
    return ExitCodeFor(outcome.status());
  }

  for (const auto& [name, m] : outcome->result.matrices) {
    std::printf("%s: %lld x %lld, nnz %lld, sum %.6g\n", name.c_str(),
                static_cast<long long>(m.rows()),
                static_cast<long long>(m.cols()),
                static_cast<long long>(m.Nnz()), m.Sum());
  }
  for (const auto& [name, v] : outcome->result.scalars) {
    std::printf("%s = %.10g\n", name.c_str(), v);
  }
  const ExecStats& stats = outcome->result.stats;
  std::printf(
      "[%s] %d stages, comm %.2f MB (%lld events), compute %.3fs, "
      "cluster-equivalent %.3fs, plan %.1fms\n",
      config.exploit_dependencies ? "DMac" : "SystemML-S",
      outcome->plan.num_stages, stats.comm_bytes() / 1e6,
      static_cast<long long>(stats.comm_events()),
      stats.ComputeWallSeconds(), stats.SimulatedSeconds(NetworkModel{}),
      outcome->plan_seconds * 1e3);
  if (outcome->search.ran) {
    const RunSearchInfo& s = outcome->search;
    std::printf(
        "[search] mode=%s candidates=%lld rejected=%lld est %.3fs "
        "(greedy %.3fs), comm %.2f MB (greedy %.2f MB), search %.1fms, "
        "plan: %s\n",
        PlanSearchModeName(config.plan_search),
        static_cast<long long>(s.candidates),
        static_cast<long long>(s.rejected), s.best_seconds,
        s.greedy_seconds, s.best_comm_bytes / 1e6,
        s.greedy_comm_bytes / 1e6, s.seconds * 1e3,
        s.best_decisions.c_str());
  }
  if (config.fault.enabled || config.checkpoint_every > 0) {
    std::printf(
        "[fault] %lld injected, %lld retries, %lld recomputed / %lld "
        "restored blocks, checkpoint %.2f MB, "
        "recovery %.3fs (+%.2f MB moved)\n",
        static_cast<long long>(stats.faults_injected),
        static_cast<long long>(stats.retries),
        static_cast<long long>(stats.recomputed_blocks),
        static_cast<long long>(stats.restored_blocks),
        static_cast<double>(stats.checkpoint_bytes) / 1e6,
        stats.recovery_seconds, stats.recovery_bytes / 1e6);
  }
  if (!config.checkpoint_dir.empty()) {
    std::string resumed;
    if (stats.resumed) {
      resumed = "; resumed after step " + std::to_string(stats.resume_step) +
                " (" + std::to_string(stats.resume_restored_blocks) +
                " blocks restored)";
    }
    std::printf(
        "[checkpoint] %lld epochs committed (%.2f MB durable), %lld commit "
        "failures, %lld disk faults%s\n",
        static_cast<long long>(stats.durable_epochs),
        static_cast<double>(stats.durable_checkpoint_bytes) / 1e6,
        static_cast<long long>(stats.checkpoint_failures),
        static_cast<long long>(stats.disk_faults_injected), resumed.c_str());
  }
  if (stats.workers_dead > 0) {
    std::printf(
        "[membership] %lld permanent deaths, epoch %lld, detection %.3fs, "
        "%d/%d workers live (quorum %d)\n",
        static_cast<long long>(stats.workers_dead),
        static_cast<long long>(stats.membership_epoch),
        stats.detection_seconds,
        config.num_workers - static_cast<int>(stats.workers_dead),
        config.num_workers, config.min_workers);
  }
  if (stats.net.messages > 0) {
    std::printf(
        "[fault.net] %lld messages, %lld retransmits (%.2f MB), %lld dups, "
        "%lld reordered, %lld partitions, delay %.3fs, stale fenced %lld / "
        "applied %lld\n",
        static_cast<long long>(stats.net.messages),
        static_cast<long long>(stats.net.retransmits),
        stats.net.retrans_bytes / 1e6,
        static_cast<long long>(stats.net.duplicates),
        static_cast<long long>(stats.net.reordered),
        static_cast<long long>(stats.net.partitions),
        stats.net.delay_seconds,
        static_cast<long long>(stats.net.stale_fenced),
        static_cast<long long>(stats.net.stale_applied));
  }
  if (config.governor.budget != nullptr) {
    std::printf(
        "[governor] budget %lld MB, peak %.2f MB, spilled %.2f MB, "
        "restored %.2f MB\n",
        static_cast<long long>(mem_budget_mb),
        config.governor.budget->peak_bytes() / 1e6,
        config.governor.spill->spilled_bytes() / 1e6,
        config.governor.spill->restored_bytes() / 1e6);
  }

  if (stats_flag) {
    std::printf("\nper-stage compute (seconds per worker):\n");
    std::printf("%6s | %10s | %10s | per-worker\n", "stage", "max", "total");
    for (size_t s = 0; s < stats.stage_worker_seconds.size(); ++s) {
      const auto& workers = stats.stage_worker_seconds[s];
      double mx = 0, total = 0;
      for (double v : workers) {
        mx = std::max(mx, v);
        total += v;
      }
      std::printf("%6zu | %10.4f | %10.4f |", s + 1, mx, total);
      for (double v : workers) std::printf(" %.4f", v);
      std::printf("\n");
    }
  }
  return finish_obs();
}
