// lazyhb/campaign/work_stealing_pool.hpp
//
// The shared executor behind both parallel layers: the campaign runner's
// (program × explorer) matrix and, since PR 6, the parallel explorer's
// intra-scenario frontier (explore/parallel_explorer.hpp). A fixed set of
// OS threads, one task deque per worker, with work stealing. Tasks vary
// wildly in cost (a complete DFS of a 2-thread program vs. 100,000
// schedules of a contended one), so a single shared queue serves long tasks
// tail-heavy: the last big cell lands on one worker while the rest idle.
// Dealing round-robin and letting idle workers steal from the *back* of a
// victim's deque keeps every hardware thread busy until the frontier drains.
//
// The frontier use case added dynamic submission: a running task may call
// submit() to enqueue more work into the same batch (new frontier nodes
// discovered mid-subtree). Worker-submitted tasks go to the submitter's own
// deque front (LIFO, so the frontier explores depth-first and stays small);
// run() returns only when every task, including all transitively submitted
// ones, has finished. Idle workers therefore park on a condition variable
// instead of exiting when the deques look empty but tasks are still in
// flight.
//
// Threads outlive batches: between run() calls every worker waits parked on
// a condition variable, so a pool that is kept (the parallel explorer leases
// parked pools from a process-wide idle list) starts each batch with a
// wake-up, not a thread start. Each worker breaks steal-victim ties with its
// own RNG; which worker steals what follows thread timing, so nothing about
// the steal pattern is reproducible, and no result depends on it.
//
// Tasks are independent and must not throw: an experiment harness has no
// meaningful recovery from a lost result, so an escaping exception
// terminates the process via noexcept.
//
// This pool is deliberately simple — one mutex over the deques, not a
// lock-free Chase–Lev deque. Tasks run for milliseconds to minutes, so
// queue operations are nowhere near the contention regime that justifies
// lock-free structures; what matters is the *stealing policy*, which is
// what balances the load.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace lazyhb::campaign {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// Create `workers` OS threads (values < 1 clamp to 1). Threads persist
  /// across run() batches and park on a condition variable between them.
  explicit WorkStealingPool(int workers);

  /// Joins all workers. Must not be called while run() is in flight.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Execute every task in `tasks` — plus everything submit()ted while the
  /// batch runs — blocking until all have finished. Initial tasks are dealt
  /// round-robin across the worker deques; idle workers steal from the back
  /// of the longest victim deque. Not reentrant.
  void run(std::vector<Task> tasks);

  /// Enqueue one more task into the batch currently in flight. Legal only
  /// while a batch is running (i.e. from inside a task, or from another
  /// thread racing run() — the caller must know a batch is active). When
  /// called on a worker thread the task lands at the *front* of that
  /// worker's own deque (depth-first); otherwise at the back of the
  /// shortest deque.
  void submit(Task task);

  /// Index of the calling pool worker in [0, workerCount()), or -1 when the
  /// calling thread is not one of this pool's workers. Lets tasks address
  /// per-worker state (accumulators, recorders) without locking.
  [[nodiscard]] int currentWorkerIndex() const noexcept;

  /// True when fewer tasks are queued than workers are parked waiting for
  /// one — the "someone is idle" signal long tasks poll to decide whether
  /// splitting off a subtask would feed a starving worker. A worker busy
  /// with a task it popped is not hungry, so while every worker runs,
  /// nobody splits. Lock-free (two relaxed loads, polled after every
  /// schedule) and racy by nature; both false positives and negatives only
  /// cost granularity, never correctness.
  [[nodiscard]] bool hungry() const noexcept {
    return queued_.load(std::memory_order_relaxed) <
           parked_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int workerCount() const noexcept {
    return static_cast<int>(deques_.size());
  }

  /// Tasks executed by a worker other than the one they were dealt to,
  /// accumulated across run() batches. A load-balance diagnostic.
  [[nodiscard]] std::uint64_t tasksStolen() const noexcept {
    return tasksStolen_.load(std::memory_order_relaxed);
  }

  /// Per-worker steal counts (same accumulation as tasksStolen(), attributed
  /// to the stealing worker). Index = worker. Snapshot; call between
  /// batches for exact values, and subtract two snapshots for one batch.
  [[nodiscard]] std::vector<std::uint64_t> stealsByWorker() const;

 private:
  void workerLoop(std::size_t self);

  /// Pop from our own deque's front, else steal from the back of the
  /// longest other deque (ties broken by our RNG's scan offset).
  /// Returns false when every deque is empty. Caller holds mutex_.
  bool popTask(std::size_t self, Task& task);

  std::vector<std::deque<Task>> deques_;
  std::vector<support::Rng> rngs_;             ///< per-worker victim tie-breaks
  std::vector<std::uint64_t> stealsByWorker_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;  ///< guards deques_, rngs_, counters, lifecycle
  std::condition_variable batchStart_;
  std::condition_variable batchDone_;
  std::condition_variable frontier_;  ///< signalled on submit / batch end
  std::uint64_t generation_ = 0;      ///< bumped once per run() batch
  std::size_t remaining_ = 0;         ///< tasks not yet finished this batch
  bool shuttingDown_ = false;

  std::atomic<std::uint64_t> tasksStolen_{0};
  /// Tasks sitting in the deques, and workers parked on frontier_ inside a
  /// batch; written under mutex_, read lock-free by hungry().
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> parked_{0};
};

}  // namespace lazyhb::campaign
