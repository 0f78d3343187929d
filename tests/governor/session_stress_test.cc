// TSan-targeted governance stress (docs/static_analysis.md): a storm of
// concurrent queries against one QuerySession — plain runs, immediate
// deadlines, tight memory budgets that force spilling, and asynchronous
// cancels — with waiters racing the submitters. The sanitizer CI job runs
// this under ThreadSanitizer, which is the real assertion: the admission
// controller, per-query budgets, spill store, the engine's task queue and
// the session's own bookkeeping are exercised from many threads at once, so
// any unguarded shared state surfaces as a TSan report. Functionally the
// test checks the governance contract: every query terminates with exactly
// one status from the terminal set, and nothing leaks once the session
// dies.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "../fault/fault_test_util.h"
#include "common/status.h"
#include "governor/query_session.h"
#include "matrix/mem_tracker.h"

namespace dmac {
namespace {

/// Statuses a governed query may legally terminate with (query_session.h).
bool IsTerminalGovernanceStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

TEST(SessionStressTest, ConcurrentAdmitCancelDeadlineUnderTightBudget) {
  const FaultAppCase app = MakeSmallGnmf();
  const int64_t blocks_before = MemTracker::Global().current_bytes();

  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.seed = 42;

  // The flavor schedule is drawn once from a fixed seed so every run (and
  // every TSan interleaving) stresses the same mix of exit paths.
  constexpr int kQueries = 24;
  std::mt19937 rng(42);
  std::vector<int> flavors;
  flavors.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    flavors.push_back(static_cast<int>(rng() % 4));
  }

  int ok = 0, cancelled = 0, deadline = 0, exhausted = 0;
  {
    QuerySession session({/*max_concurrent=*/2, /*max_queued=*/4, 0},
                         config);
    std::vector<int64_t> ids;
    std::vector<std::thread> cancellers;
    for (int i = 0; i < kQueries; ++i) {
      QueryOptions opts;
      switch (flavors[i]) {
        case 0:  // plain run
          break;
        case 1:  // expires before it can do any work
          opts.deadline_seconds = 1e-9;
          break;
        case 2:  // tight budget: must spill to finish, or fail cleanly
          opts.memory_budget_bytes = 32 << 10;
          break;
        case 3:  // cancelled asynchronously while queued or running
          break;
      }
      const int64_t id = session.Submit(app.program, app.MakeBindings(),
                                        opts);
      ids.push_back(id);
      if (flavors[i] == 3) {
        cancellers.emplace_back([&session, id] { session.Cancel(id); });
      }
    }

    // Waiters race the submissions and each other (Wait is idempotent and
    // any caller may reap the query thread).
    for (int64_t id : ids) {
      QueryOutcome out = session.Wait(id);
      EXPECT_TRUE(IsTerminalGovernanceStatus(out.status))
          << "query " << id << ": " << out.status;
      switch (out.status.code()) {
        case StatusCode::kOk:
          ok++;
          break;
        case StatusCode::kCancelled:
          cancelled++;
          break;
        case StatusCode::kDeadlineExceeded:
          deadline++;
          EXPECT_TRUE(out.run.result.matrices.empty());
          break;
        case StatusCode::kResourceExhausted:
          exhausted++;
          break;
        default:
          break;
      }
    }
    for (auto& t : cancellers) t.join();

    // Second Wait pass: outcomes are stable and re-waitable.
    for (int64_t id : ids) {
      EXPECT_TRUE(IsTerminalGovernanceStatus(session.Wait(id).status));
    }
  }

  // Whatever mix of exits the interleaving produced, at least the plain
  // queries (which nothing kills except queue overflow) account for some
  // terminal outcome, and no block leaked from any exit path.
  EXPECT_EQ(ok + cancelled + deadline + exhausted, kQueries);
  EXPECT_GT(ok + exhausted, 0);
  EXPECT_EQ(MemTracker::Global().current_bytes(), blocks_before);
}

}  // namespace
}  // namespace dmac
