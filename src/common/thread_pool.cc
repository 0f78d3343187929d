#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>

namespace dmac {

size_t ComputePoolThreads(int num_workers, int threads_per_worker) {
  const size_t wanted = static_cast<size_t>(std::max(num_workers, 1)) *
                        static_cast<size_t>(std::max(threads_per_worker, 1));
  cpu_set_t mask;
  size_t cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&mask));
  }
  return std::min(wanted, std::max<size_t>(cpus, 1));
}

void TaskGroup::Wait() {
  MutexLock lock(&mu_);
  while (pending_ > 0) done_cv_.Wait(mu_);
}

void TaskGroup::Add() {
  MutexLock lock(&mu_);
  ++pending_;
}

void TaskGroup::Done() {
  // Notify under the lock: once Wait() can reacquire it, this thread no
  // longer touches the group, so the waiter may destroy it.
  MutexLock lock(&mu_);
  if (--pending_ == 0) done_cv_.NotifyAll();
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(nullptr, std::move(task));
}

void ThreadPool::Submit(const std::atomic<bool>* abandon_if,
                        std::function<void()> task, TaskGroup* group) {
  if (group != nullptr) group->Add();
  {
    MutexLock lock(&mu_);
    queue_.push_back({std::move(task), abandon_if, group});
  }
  work_cv_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(&mu_);
  while (!(queue_.empty() && in_flight_ == 0)) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown_ with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    // Abandoned task: once its flag fires it must never run — the check
    // happens after the pop so the decision is made exactly once per task.
    if (task.abandon_if == nullptr ||
        !task.abandon_if->load(std::memory_order_acquire)) {
      task.fn();
    }
    task.fn = nullptr;  // release captures before the group can complete
    if (task.group != nullptr) task.group->Done();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace dmac
