// Fixed-size thread pool used by the worker-local block engine (paper §5.3,
// Fig. 4: multiple threads draining a task queue).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dmac {

/// Default local parallelism L: threads in each simulated worker's pool.
inline constexpr int kDefaultThreadsPerWorker = 2;

/// Threads of the one compute pool that `num_workers` simulated workers of
/// `threads_per_worker` threads each share: their total, capped by the CPUs
/// this process may run on (its affinity mask), and at least 1. The cap
/// changes only how many real threads drain the queue; the planner, the
/// cost model and the block size keep reading `threads_per_worker`.
size_t ComputePoolThreads(int num_workers, int threads_per_worker);

/// The completion count of one batch of tasks, so a submitter waits for its
/// own tasks rather than for the whole pool (WaitIdle). A task counts as
/// done once it ran or was skipped as abandoned. Outlive every task
/// submitted under it, which Wait() guarantees.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task submitted under this group is done.
  void Wait() DMAC_EXCLUDES(mu_);

 private:
  friend class ThreadPool;
  void Add() DMAC_EXCLUDES(mu_);
  void Done() DMAC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar done_cv_;
  size_t pending_ DMAC_GUARDED_BY(mu_) = 0;
};

/// A fixed pool of worker threads draining a FIFO task queue.
///
/// Semantics match the paper's worker model: tasks are independent (each
/// produces one result block), so there is no inter-task ordering beyond
/// FIFO dispatch. `WaitIdle()` blocks until every submitted task completed;
/// `TaskGroup::Wait()` until the tasks of one batch did.
///
/// Cooperative cancellation (docs/governance.md): a task submitted with an
/// abandon flag is *skipped* — popped and discarded without running — when
/// the flag is set by the time a thread picks it up. The same rule applies
/// to the destructor's drain, so after a query's CancelToken fires none of
/// its still-queued tasks ever runs, deterministically. A task already
/// running is cooperative and finishes on its own.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task) DMAC_EXCLUDES(mu_);

  /// Enqueues a task that is skipped (never run) if `*abandon_if` is true
  /// when a thread would start it, and that counts toward `group` (ran or
  /// skipped). `abandon_if` and `group` may be null and must outlive the
  /// task.
  void Submit(const std::atomic<bool>* abandon_if, std::function<void()> task,
              TaskGroup* group = nullptr) DMAC_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running (skipped tasks
  /// count as completed).
  void WaitIdle() DMAC_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    const std::atomic<bool>* abandon_if = nullptr;
    TaskGroup* group = nullptr;
  };

  void WorkerLoop() DMAC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<Task> queue_ DMAC_GUARDED_BY(mu_);
  size_t in_flight_ DMAC_GUARDED_BY(mu_) = 0;
  bool shutdown_ DMAC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace dmac
