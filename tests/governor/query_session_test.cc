// QuerySession: the admission-controlled multi-query front end. Covers
// success (bit-identical to a direct run), deadline expiry, mid-flight and
// while-queued cancellation, estimate-based rejection, and resource
// cleanup (no leaked pool buffers).
#include "governor/query_session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "../fault/fault_test_util.h"
#include "apps/gnmf.h"
#include "common/status.h"
#include "matrix/mem_tracker.h"

namespace dmac {
namespace {

RunConfig BaseConfig() {
  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.seed = 42;
  return config;
}

/// A GNMF case big enough to hold an admission slot for a while.
FaultAppCase MakeLongGnmf() {
  GnmfConfig config{48, 32, 0.25, 4, 40};
  FaultAppCase c{"gnmf-long", BuildGnmfProgram(config), {}};
  c.inputs.emplace_back("V", SyntheticSparse(48, 32, 0.25, kFaultBs, 31));
  return c;
}

TEST(QuerySessionTest, SuccessMatchesADirectRunBitForBit) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto direct = RunProgram(app.program, app.MakeBindings(),
                                 BaseConfig());
  ASSERT_TRUE(direct.ok()) << direct.status();

  QuerySession session({/*max_concurrent=*/2, /*max_queued=*/4, 0},
                       BaseConfig());
  const int64_t id = session.Submit(app.program, app.MakeBindings(), {});
  QueryOutcome outcome = session.Wait(id);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_GT(outcome.footprint_estimate_bytes, 0);
  EXPECT_LT(outcome.cancel_latency_seconds, 0);  // token never fired
  ExpectBitIdentical(direct->result, outcome.run.result, "session gnmf");
}

TEST(QuerySessionTest, WaitIsIdempotentAndUnknownIdsAreInvalid) {
  const FaultAppCase app = MakeSmallGnmf();
  QuerySession session({2, 4, 0}, BaseConfig());
  const int64_t id = session.Submit(app.program, app.MakeBindings(), {});
  EXPECT_TRUE(session.Wait(id).status.ok());
  EXPECT_TRUE(session.Wait(id).status.ok());
  EXPECT_EQ(session.Wait(id + 100).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QuerySessionTest, TinyDeadlineExpiresWithNoPartialResult) {
  const FaultAppCase app = MakeSmallGnmf();
  QuerySession session({2, 4, 0}, BaseConfig());
  QueryOptions opts;
  opts.deadline_seconds = 1e-9;
  const int64_t id = session.Submit(app.program, app.MakeBindings(), opts);
  QueryOutcome outcome = session.Wait(id);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
      << outcome.status;
  EXPECT_TRUE(outcome.run.result.matrices.empty());
  EXPECT_GE(outcome.cancel_latency_seconds, 0);
}

TEST(QuerySessionTest, EstimateOverSessionQuotaIsRejected) {
  const FaultAppCase app = MakeSmallGnmf();
  QuerySession session({2, 4, /*total_memory_bytes=*/1}, BaseConfig());
  const int64_t id = session.Submit(app.program, app.MakeBindings(), {});
  QueryOutcome outcome = session.Wait(id);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
      << outcome.status;
  EXPECT_GT(outcome.footprint_estimate_bytes, 1);
}

TEST(QuerySessionTest, BudgetTooSmallForAnyStepIsResourceExhausted) {
  const FaultAppCase app = MakeSmallGnmf();
  QuerySession session({2, 4, 0}, BaseConfig());
  QueryOptions opts;
  opts.memory_budget_bytes = 64;  // smaller than a single block
  const int64_t id = session.Submit(app.program, app.MakeBindings(), opts);
  QueryOutcome outcome = session.Wait(id);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
      << outcome.status;
}

TEST(QuerySessionTest, CancelWhileQueuedIsPrompt) {
  const FaultAppCase longapp = MakeLongGnmf();
  const FaultAppCase shortapp = MakeSmallGnmf();
  QuerySession session({/*max_concurrent=*/1, /*max_queued=*/4, 0},
                       BaseConfig());

  const int64_t slow = session.Submit(longapp.program,
                                      longapp.MakeBindings(), {});
  // Wait for the slow query to own the only slot, then queue the victim.
  while (session.running() == 0) std::this_thread::yield();
  const int64_t victim = session.Submit(shortapp.program,
                                        shortapp.MakeBindings(), {});
  while (session.queue_depth() == 0 && session.running() == 1) {
    std::this_thread::yield();
  }
  session.Cancel(victim);

  QueryOutcome vo = session.Wait(victim);
  // The victim was cancelled while queued (or, if the slow query finished
  // first, just after admission) — either way it must surface kCancelled
  // and nothing else, unless it managed to finish entirely first.
  EXPECT_TRUE(vo.status.code() == StatusCode::kCancelled || vo.status.ok())
      << vo.status;
  if (!vo.status.ok()) {
    EXPECT_TRUE(vo.run.result.matrices.empty());
    EXPECT_GE(vo.cancel_latency_seconds, 0);
  }
  EXPECT_TRUE(session.Wait(slow).status.ok());
}

TEST(QuerySessionTest, DestructorCancelsInFlightQueries) {
  const FaultAppCase app = MakeLongGnmf();
  const int64_t before = MemTracker::Global().current_bytes();
  {
    QuerySession session({2, 4, 0}, BaseConfig());
    session.Submit(app.program, app.MakeBindings(), {});
    session.Submit(app.program, app.MakeBindings(), {});
    // Drop the session without waiting: it must cancel and join cleanly.
  }
  // Nothing may leak from torn-down queries: every block they allocated
  // is gone.
  EXPECT_EQ(MemTracker::Global().current_bytes(), before);
}

TEST(QuerySessionTest, SubmitRacesSafelyWithImmediateWait) {
  // Regression: Submit used to start the query thread after dropping the
  // session lock, i.e. after the query was already visible in queries_. A
  // waiter that guessed the (dense, monotonically assigned) id could then
  // reach q->thread.joinable()/join() while the std::thread assignment was
  // still in flight — a race TSan flags on the thread object. The thread
  // now starts inside the lock; hammering Wait on the next id while
  // Submit publishes it must be clean and every query must complete.
  const FaultAppCase app = MakeSmallGnmf();
  QuerySession session({/*max_concurrent=*/3, /*max_queued=*/16, 0},
                       BaseConfig());
  constexpr int64_t kQueries = 6;
  std::thread waiter([&session] {
    for (int64_t id = 0; id < kQueries; ++id) {
      QueryOutcome out;
      do {
        out = session.Wait(id);  // spins until Submit publishes the id
      } while (out.status.code() == StatusCode::kInvalidArgument);
      EXPECT_TRUE(out.status.ok()) << out.status;
    }
  });
  for (int64_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(session.Submit(app.program, app.MakeBindings(), {}), i);
  }
  waiter.join();
}

TEST(QuerySessionTest, ConcurrentQueriesAllSucceedIdentically) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto direct = RunProgram(app.program, app.MakeBindings(),
                                 BaseConfig());
  ASSERT_TRUE(direct.ok()) << direct.status();

  QuerySession session({/*max_concurrent=*/3, /*max_queued=*/8, 0},
                       BaseConfig());
  std::vector<int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(session.Submit(app.program, app.MakeBindings(), {}));
  }
  for (int64_t id : ids) {
    QueryOutcome outcome = session.Wait(id);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    ExpectBitIdentical(direct->result, outcome.run.result,
                       "concurrent gnmf");
  }
}

}  // namespace
}  // namespace dmac
