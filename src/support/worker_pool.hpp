// lazyhb/support/worker_pool.hpp
//
// The one executor behind both parallel layers: the campaign runner's
// (program × explorer) matrix and the parallel explorer's frontier jobs
// (explore/parallel_explorer.hpp). A fixed set of OS threads takes tasks
// from one FIFO queue. Whichever worker frees up first takes the next task,
// so a long task occupies one worker while the others drain the rest of the
// queue, and every thread stays busy until the queue is empty. One mutex
// guards the queue: tasks run for milliseconds to minutes, so one lock per
// task is nowhere near a contention regime.
//
// A running task may submit() more work into the same batch; run() returns
// only when every task, including all transitively submitted ones, has
// finished. Idle workers therefore park on a condition variable instead of
// exiting while the queue is empty but tasks are still in flight.
//
// Threads outlive batches: between run() calls every worker waits parked,
// so a pool that is kept (the parallel explorer leases parked pools from a
// process-wide idle list) starts each batch with a wake-up, not a thread
// start. Which worker runs which task follows thread timing; no result
// depends on it.
//
// Tasks must not throw: an experiment harness has no meaningful recovery
// from a lost result, so an escaping exception terminates the process via
// noexcept.

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

namespace lazyhb::support {

/// The most OS threads one command may start: the workers of one pool, and
/// a campaign's jobs × per-cell workers in all. Larger requests are refused
/// before any pool is built.
inline constexpr int kMaxWorkerThreads = 256;

class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Start `workers` OS threads (values < 1 clamp to 1; more than
  /// kMaxWorkerThreads is a caller bug). Threads persist across run()
  /// batches and park on a condition variable between them.
  explicit WorkerPool(int workers);

  /// Joins all workers. Must not be called while run() is in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute every task in `tasks` — plus everything submit()ted while the
  /// batch runs — in queue order, blocking until all have finished. Not
  /// reentrant.
  void run(std::vector<Task> tasks);

  /// Append one more task to the batch in flight. Legal only while a batch
  /// is running (from inside a task, or from another thread that knows a
  /// batch is active). Wakes one parked worker.
  void submit(Task task);

  /// Index of the calling pool worker in [0, workerCount()), or -1 when the
  /// calling thread is not one of this pool's workers. Lets tasks address
  /// per-worker state (accumulators, recorders) without locking.
  [[nodiscard]] int currentWorkerIndex() const noexcept;

  /// True when fewer tasks are queued than workers of the running batch are
  /// parked waiting for one — the "someone is idle" signal long tasks poll
  /// to decide whether splitting off a subtask would feed a starving
  /// worker. A worker busy with a task it took is not hungry, so while
  /// every worker runs, nobody splits. Lock-free (two relaxed loads,
  /// polled after every schedule) and racy by nature; both false positives
  /// and negatives only cost granularity, never correctness.
  [[nodiscard]] bool hungry() const noexcept {
    return queued_.load(std::memory_order_relaxed) <
           parked_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int workerCount() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Pools constructed in this process so far: lets a caller check that a
  /// refused request built none.
  [[nodiscard]] static std::uint64_t poolsBuilt() noexcept;

 private:
  void workerLoop(int self);
  /// Wake every worker to exit and join it.
  void stop() noexcept;

  std::deque<Task> queue_;
  std::mutex mutex_;  ///< guards queue_ and the batch state below
  std::condition_variable batchStart_;
  std::condition_variable batchDone_;
  std::condition_variable frontier_;  ///< signalled on submit / batch end
  std::uint64_t generation_ = 0;      ///< bumped once per run() batch
  std::size_t remaining_ = 0;         ///< tasks not yet finished this batch
  bool shuttingDown_ = false;

  /// Tasks in the queue, and workers parked on frontier_ inside a batch;
  /// written under mutex_, read lock-free by hungry().
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> parked_{0};

  std::vector<std::thread> workers_;  ///< last: the threads use all of the above
};

}  // namespace lazyhb::support
