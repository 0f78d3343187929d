// dmac_soak — chaos soak harness for resource governance
// (docs/governance.md).
//
//   dmac_soak [--queries N] [--seed S] [--mem-budget-mb MB]
//             [--concurrency C] [--fault-spec FILE]
//
// Runs N randomized queries concurrently through the admission-controlled
// QuerySession while fault injection and memory pressure are active, and
// asserts the whole governance contract:
//
//   1. every query terminates with exactly one status from
//      {OK, kCancelled, kDeadlineExceeded, kResourceExhausted,
//       kUnavailable, kDataLoss};
//   2. every *successful* query's outputs are bit-identical to a clean
//      (fault-free, ungoverned) run of the same workload;
//   3. once the session and every query result are gone, the live block
//      bytes (MemTracker) are back where they were before the first query;
//   4. zero spill files are left on disk.
//
// The randomization is fully determined by --seed: workload choice,
// per-query deadlines, budgets, mid-flight cancels, and fault schedules
// all derive from it, so a failing soak replays exactly.
//
// On top of any --fault-spec schedule, a slice of the queries carries its
// own fault override: permanent worker deaths (rebalanced in degraded
// mode under a min-workers quorum), message-level network faults
// (drops, dups, reorders, delays, transient partitions), or a
// crash-restart scenario — a solo prologue run soft-crashes at a
// pre-drawn durable write point, then the submitted query resumes from
// the surviving checkpoint epoch. Successful queries must stay
// bit-identical under all of them.
//
// Exit code: 0 when every assertion holds, 1 otherwise.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "common/parse.h"
#include "data/graph_gen.h"
#include "data/synthetic.h"
#include "fault/checksum.h"
#include "governor/query_session.h"
#include "matrix/mem_tracker.h"

using namespace dmac;

namespace {

constexpr int64_t kBlockSize = 16;

/// A workload with owned input data, small enough that a soak of dozens of
/// queries finishes in seconds.
struct Workload {
  std::string name;
  Program program;
  std::vector<std::pair<std::string, LocalMatrix>> inputs;
  /// Oracle: the clean run's outputs (fault-free, ungoverned).
  ExecutionResult reference;

  Bindings MakeBindings() const {
    Bindings b;
    for (const auto& [n, m] : inputs) b.emplace(n, &m);
    return b;
  }
};

Workload MakeSmallGnmf() {
  GnmfConfig config{48, 32, 0.25, 4, 3};
  Workload w{"gnmf", BuildGnmfProgram(config), {}, {}};
  w.inputs.emplace_back("V", SyntheticSparse(48, 32, 0.25, kBlockSize, 31));
  return w;
}

Workload MakeSmallPageRank() {
  const GraphSpec spec = SocPokec().Scaled(30000);
  PageRankConfig config{spec.nodes, 0.02, 3, 0.85};
  Workload w{"pagerank", BuildPageRankProgram(config), {}, {}};
  w.inputs.emplace_back("link", RowNormalizedLink(spec, kBlockSize, 3));
  w.inputs.emplace_back(
      "D", ConstantMatrix({1, spec.nodes}, kBlockSize,
                          1.0f / static_cast<Scalar>(spec.nodes)));
  return w;
}

/// Bit identity, the same oracle tests/fault uses: every output block must
/// hash to the clean run's checksum, every scalar must compare exactly.
bool BitIdentical(const ExecutionResult& want, const ExecutionResult& got,
                  std::string* why) {
  if (want.matrices.size() != got.matrices.size()) {
    *why = "matrix count differs";
    return false;
  }
  for (const auto& [name, w] : want.matrices) {
    auto it = got.matrices.find(name);
    if (it == got.matrices.end()) {
      *why = "missing output " + name;
      return false;
    }
    const LocalMatrix& g = it->second;
    if (w.rows() != g.rows() || w.cols() != g.cols() ||
        w.block_size() != g.block_size()) {
      *why = "shape of " + name + " differs";
      return false;
    }
    for (int64_t bi = 0; bi < w.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < w.grid().block_cols(); ++bj) {
        if (BlockChecksum(w.BlockAt(bi, bj)) !=
            BlockChecksum(g.BlockAt(bi, bj))) {
          *why = name + " block (" + std::to_string(bi) + "," +
                 std::to_string(bj) + ") diverged";
          return false;
        }
      }
    }
  }
  if (want.scalars.size() != got.scalars.size()) {
    *why = "scalar count differs";
    return false;
  }
  for (const auto& [name, v] : want.scalars) {
    auto it = got.scalars.find(name);
    if (it == got.scalars.end() || it->second != v) {
      *why = "scalar " + name + " diverged";
      return false;
    }
  }
  return true;
}

int64_t CountFilesUnder(const std::filesystem::path& root) {
  std::error_code ec;
  if (!std::filesystem::exists(root, ec)) return 0;
  int64_t n = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file(ec)) ++n;
  }
  return n;
}

bool Parsed(const Status& st) {
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--queries N] [--seed S] [--mem-budget-mb MB] "
               "[--concurrency C] [--fault-spec FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int queries = 16;
  uint64_t seed = 1;
  int64_t mem_budget_mb = 64;
  int concurrency = 4;
  std::string fault_spec_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric flags parse with dmac_run's rule (common/parse.h): a
    // malformed or out-of-range value is bad usage.
    auto int_flag = [&](auto* out) {
      const char* v = next_value();
      return v != nullptr && Parsed(ParseInt(arg, v, out));
    };
    const char* v = nullptr;
    if (arg == "--queries") {
      if (!int_flag(&queries)) return Usage(argv[0]);
    } else if (arg == "--seed") {
      if (!int_flag(&seed)) return Usage(argv[0]);
    } else if (arg == "--mem-budget-mb") {
      if (!int_flag(&mem_budget_mb)) return Usage(argv[0]);
    } else if (arg == "--concurrency") {
      if (!int_flag(&concurrency)) return Usage(argv[0]);
    } else if (arg == "--fault-spec" && (v = next_value())) {
      fault_spec_path = v;
    } else {
      return Usage(argv[0]);
    }
  }
  int64_t mem_budget_bytes = 0;
  if (queries < 1 || concurrency < 1 || mem_budget_mb < 1 ||
      !Parsed(MegabytesToBytes("--mem-budget-mb", mem_budget_mb,
                               &mem_budget_bytes))) {
    return Usage(argv[0]);
  }

  FaultSpec fault;
  if (!fault_spec_path.empty()) {
    auto spec = LoadFaultSpecFile(fault_spec_path);
    if (!spec.ok()) {
      std::fprintf(stderr, "--fault-spec: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    fault = *spec;
  }

  RunConfig base;
  base.num_workers = 3;
  base.threads_per_worker = kDefaultThreadsPerWorker;
  base.block_size = kBlockSize;
  base.seed = seed;

  // Clean oracle runs: fault-free, ungoverned, solo.
  std::vector<Workload> workloads;
  workloads.push_back(MakeSmallGnmf());
  workloads.push_back(MakeSmallPageRank());
  for (Workload& w : workloads) {
    auto clean = RunProgram(w.program, w.MakeBindings(), base);
    if (!clean.ok()) {
      std::fprintf(stderr, "oracle run of %s failed: %s\n", w.name.c_str(),
                   clean.status().ToString().c_str());
      return 1;
    }
    w.reference = std::move(clean->result);
  }

  const std::filesystem::path spill_root =
      std::filesystem::temp_directory_path() /
      ("dmac_soak_" + std::to_string(seed));
  std::filesystem::create_directories(spill_root);
  // Checkpoint dirs live under their own root: committed epochs
  // legitimately persist after a successful run, so the zero-files
  // assertion on spill_root must not see them.
  const std::filesystem::path ckpt_root =
      std::filesystem::temp_directory_path() /
      ("dmac_soak_ckpt_" + std::to_string(seed));
  std::filesystem::create_directories(ckpt_root);

  int failures = 0;
  std::map<std::string, int> tally;
  const int64_t live_bytes_before = MemTracker::Global().current_bytes();
  {
    AdmissionQuota quota;
    quota.max_concurrent = concurrency;
    quota.max_queued = queries;  // queue everything; reject only over-quota
    quota.total_memory_bytes = mem_budget_bytes;
    RunConfig governed = base;
    governed.fault = fault;
    // One death fits the quorum: degraded runs rebalance instead of failing.
    governed.min_workers = base.num_workers - 1;
    QuerySession session(quota, governed);

    // Derive every per-query decision from one master RNG up front so the
    // schedule does not depend on execution timing.
    std::mt19937_64 rng(seed);
    struct Planned {
      int workload;
      QueryOptions opts;
      bool cancel_midflight;
      int cancel_after_ms;
      /// Crash-restart scenario: a solo prologue run soft-crashes at
      /// `crash_point`; the submitted query then resumes from the epoch
      /// that survived.
      bool restart = false;
      int crash_point = 0;
    };
    std::vector<Planned> planned;
    for (int i = 0; i < queries; ++i) {
      Planned p{};
      p.workload = static_cast<int>(rng() % workloads.size());
      // Memory pressure: half the queries get a budget of a few blocks —
      // forced to spill or be refused — the rest draw from the full range.
      p.opts.memory_budget_bytes =
          rng() % 2 == 0
              ? static_cast<int64_t>(2 * 1024 + rng() % (16 * 1024))
              : static_cast<int64_t>(
                    8 * 1024 +
                    rng() % static_cast<uint64_t>(mem_budget_bytes));
      p.opts.spill_dir = (spill_root / ("q" + std::to_string(i))).string();
      // A quarter of the queries race a tight deadline; one in eight gets
      // cancelled mid-flight from the outside.
      if (rng() % 4 == 0) {
        p.opts.deadline_seconds = 1e-4 * static_cast<double>(1 + rng() % 500);
      }
      p.cancel_midflight = rng() % 8 == 0;
      p.cancel_after_ms = static_cast<int>(rng() % 20);
      // A slice of the mix exercises the robustness layer: every third
      // query carries its own fault override — permanent worker death
      // (quorum-budgeted, rebalanced) or message-level network chaos.
      switch (rng() % 6) {
        case 0: {
          FaultSpec death;
          death.enabled = true;
          death.seed = rng();
          death.death_prob = 0.05;
          p.opts.fault = death;
          break;
        }
        case 1: {
          FaultSpec net;
          net.enabled = true;
          net.seed = rng();
          net.net.drop_prob = 0.1;
          net.net.dup_prob = 0.1;
          net.net.reorder_prob = 0.1;
          net.net.delay_prob = 0.05;
          net.net.delay_seconds = 0.005;
          net.net.partition_prob = 0.01;
          p.opts.fault = net;
          break;
        }
        case 2: {
          p.restart = true;
          p.crash_point = static_cast<int>(1 + rng() % 40);
          p.opts.checkpoint_dir =
              (ckpt_root / ("q" + std::to_string(i))).string();
          p.opts.resume = true;
          break;
        }
        default:
          break;
      }
      if (std::getenv("DMAC_SOAK_VERBOSE") != nullptr) {
        std::fprintf(stderr,
                     "plan: query %d workload=%s budget=%lld deadline=%g "
                     "cancel=%d fault=%s\n",
                     i, workloads[p.workload].name.c_str(),
                     static_cast<long long>(p.opts.memory_budget_bytes),
                     p.opts.deadline_seconds, p.cancel_midflight ? 1 : 0,
                     p.restart                      ? "restart"
                     : !p.opts.fault.has_value()    ? "base"
                     : p.opts.fault->death_prob > 0 ? "death"
                                                    : "net");
      }
      planned.push_back(p);
    }

    // Crash prologues run solo (serially, ungoverned) before the storm:
    // each soft-crashes mid-run at its pre-drawn durable write point,
    // leaving a checkpoint dir the submitted query must resume from. A
    // crash point past the run's last write just completes the prologue —
    // the resume then re-serves the committed outputs.
    for (const Planned& p : planned) {
      if (!p.restart) continue;
      RunConfig crash = base;
      crash.checkpoint_dir = p.opts.checkpoint_dir;
      crash.fault.disk.crash_at = p.crash_point;
      crash.fault.disk.crash_soft = true;
      auto prologue = RunProgram(workloads[p.workload].program,
                                 workloads[p.workload].MakeBindings(), crash);
      if (!prologue.ok() &&
          prologue.status().code() != StatusCode::kInternal) {
        std::fprintf(stderr, "FAIL: crash prologue (%s) died abnormally: %s\n",
                     workloads[p.workload].name.c_str(),
                     prologue.status().ToString().c_str());
        ++failures;
      }
    }

    std::vector<int64_t> ids;
    for (const Planned& p : planned) {
      ids.push_back(session.Submit(workloads[p.workload].program,
                                   workloads[p.workload].MakeBindings(),
                                   p.opts));
    }
    std::vector<std::thread> cancellers;
    for (int i = 0; i < queries; ++i) {
      if (!planned[i].cancel_midflight) continue;
      cancellers.emplace_back([&session, id = ids[i],
                               ms = planned[i].cancel_after_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        session.Cancel(id);
      });
    }

    for (int i = 0; i < queries; ++i) {
      QueryOutcome out = session.Wait(ids[i]);
      const StatusCode code = out.status.code();
      tally[StatusCodeName(code)]++;
      const bool allowed =
          code == StatusCode::kOk || code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kResourceExhausted ||
          code == StatusCode::kUnavailable || code == StatusCode::kDataLoss;
      if (!allowed) {
        std::fprintf(stderr,
                     "FAIL: query %d (%s) ended outside the governance "
                     "status set: %s\n",
                     i, workloads[planned[i].workload].name.c_str(),
                     out.status.ToString().c_str());
        ++failures;
        continue;
      }
      if (code == StatusCode::kOk) {
        std::string why;
        if (!BitIdentical(workloads[planned[i].workload].reference,
                          out.run.result, &why)) {
          std::fprintf(stderr,
                       "FAIL: query %d (%s) succeeded but diverged from "
                       "the clean run: %s\n",
                       i, workloads[planned[i].workload].name.c_str(),
                       why.c_str());
          ++failures;
        }
      }
    }
    for (std::thread& t : cancellers) t.join();
  }  // session destroyed: every query joined, every spill store gone

  const int64_t leaked_bytes =
      MemTracker::Global().current_bytes() - live_bytes_before;
  if (leaked_bytes != 0) {
    std::fprintf(stderr, "FAIL: %lld block bytes leaked\n",
                 static_cast<long long>(leaked_bytes));
    ++failures;
  }
  const int64_t leaked_spill = CountFilesUnder(spill_root);
  if (leaked_spill != 0) {
    std::fprintf(stderr, "FAIL: %lld spill files leaked under %s\n",
                 static_cast<long long>(leaked_spill), spill_root.c_str());
    ++failures;
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);
  std::filesystem::remove_all(ckpt_root, ec);

  std::printf("[soak] %d queries, concurrency %d, seed %llu:", queries,
              concurrency, static_cast<unsigned long long>(seed));
  for (const auto& [name, count] : tally) {
    std::printf(" %s=%d", name.c_str(), count);
  }
  std::printf("%s\n", failures == 0 ? " -- OK" : " -- FAILED");
  return failures == 0 ? 0 : 1;
}
