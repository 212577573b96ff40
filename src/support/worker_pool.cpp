#include "support/worker_pool.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

namespace {

// Which pool (if any) the calling thread serves, and at which index.
// A thread is a worker of at most one pool — nested pools (a campaign task
// leasing a parallel explorer's pool) run their workers on their own
// threads, each with its own binding.
struct WorkerBinding {
  const WorkerPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerBinding tlsBinding;

std::atomic<std::uint64_t> poolCount{0};

}  // namespace

WorkerPool::WorkerPool(int workers) {
  LAZYHB_CHECK(workers <= kMaxWorkerThreads);
  poolCount.fetch_add(1, std::memory_order_relaxed);
  const int n = std::max(1, workers);
  workers_.reserve(static_cast<std::size_t>(n));
  try {
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { workerLoop(i); });
    }
  } catch (...) {
    // The host refused a thread: join the ones already started, which
    // would end the program if destroyed joinable.
    stop();
    throw;
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::stop() noexcept {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    shuttingDown_ = true;
  }
  batchStart_.notify_all();
  frontier_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::uint64_t WorkerPool::poolsBuilt() noexcept {
  return poolCount.load(std::memory_order_relaxed);
}

void WorkerPool::run(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  LAZYHB_CHECK(remaining_ == 0);  // not reentrant
  for (Task& task : tasks) queue_.push_back(std::move(task));
  remaining_ = queue_.size();
  queued_.store(queue_.size(), std::memory_order_relaxed);
  ++generation_;
  batchStart_.notify_all();
  batchDone_.wait(lock, [this] { return remaining_ == 0; });
}

void WorkerPool::submit(Task task) {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    LAZYHB_CHECK(remaining_ > 0);  // only legal inside an active batch
    queue_.push_back(std::move(task));
    ++remaining_;
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  frontier_.notify_one();
}

int WorkerPool::currentWorkerIndex() const noexcept {
  return tlsBinding.pool == this ? tlsBinding.index : -1;
}

void WorkerPool::workerLoop(int self) {
  tlsBinding = {this, self};
  std::uint64_t seenGeneration = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    batchStart_.wait(lock, [this, seenGeneration] {
      return shuttingDown_ || generation_ != seenGeneration;
    });
    if (shuttingDown_) return;
    seenGeneration = generation_;

    // Batch loop: run tasks until the whole batch — run()'s tasks plus
    // everything submit()ted along the way — has finished. An empty queue
    // alone doesn't end the batch; tasks in flight may still submit.
    while (remaining_ != 0) {
      if (!queue_.empty()) {
        Task task = std::move(queue_.front());
        queue_.pop_front();
        queued_.store(queue_.size(), std::memory_order_relaxed);
        lock.unlock();
        task();  // noexcept contract: a throwing task terminates
        task = nullptr;  // destroy captures outside the lock
        lock.lock();
        if (--remaining_ == 0) {
          batchDone_.notify_all();
          frontier_.notify_all();  // release workers parked below
        }
        continue;
      }
      parked_.fetch_add(1, std::memory_order_relaxed);
      frontier_.wait(lock, [this] {
        return shuttingDown_ || remaining_ == 0 || !queue_.empty();
      });
      parked_.fetch_sub(1, std::memory_order_relaxed);
      if (shuttingDown_) return;
    }
  }
}

}  // namespace lazyhb::support
