#include "campaign/work_stealing_pool.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace lazyhb::campaign {

namespace {

// Which pool (if any) the calling thread serves, and at which index.
// A thread is a worker of at most one pool — nested pools (a campaign task
// leasing a parallel explorer's pool) run their workers on their own
// threads, each with its own binding.
struct WorkerBinding {
  const WorkStealingPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerBinding tlsBinding;

}  // namespace

WorkStealingPool::WorkStealingPool(int workers) {
  const int n = std::max(1, workers);
  deques_.resize(static_cast<std::size_t>(n));
  stealsByWorker_.assign(static_cast<std::size_t>(n), 0);
  rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Distinct stream per worker: splitmix inside Rng spreads the index, so
    // adjacent workers don't correlate.
    rngs_.emplace_back(0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  }
}

WorkStealingPool::~WorkStealingPool() {
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

void WorkStealingPool::run(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  LAZYHB_CHECK(remaining_ == 0);  // not reentrant
  // Deal round-robin: task i goes to worker i % N, so with stealing off the
  // load still spreads evenly and results never depend on who ran what.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    deques_[i % deques_.size()].push_back(std::move(tasks[i]));
  }
  remaining_ = tasks.size();
  queued_.store(tasks.size(), std::memory_order_relaxed);
  ++generation_;
  batchStart_.notify_all();
  batchDone_.wait(lock, [this] { return remaining_ == 0; });
}

void WorkStealingPool::submit(Task task) {
  std::unique_lock<std::mutex> lock(mutex_);
  LAZYHB_CHECK(remaining_ > 0);  // only legal inside an active batch
  if (tlsBinding.pool == this) {
    // Worker-submitted: own deque front, so the submitter (or a thief, in
    // stack-splitting order from the back) continues depth-first.
    deques_[static_cast<std::size_t>(tlsBinding.index)].push_front(
        std::move(task));
  } else {
    auto shortest = std::min_element(
        deques_.begin(), deques_.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    shortest->push_back(std::move(task));
  }
  ++remaining_;
  queued_.fetch_add(1, std::memory_order_relaxed);
  frontier_.notify_all();
}

int WorkStealingPool::currentWorkerIndex() const noexcept {
  return tlsBinding.pool == this ? tlsBinding.index : -1;
}

std::vector<std::uint64_t> WorkStealingPool::stealsByWorker() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return stealsByWorker_;
}

bool WorkStealingPool::popTask(std::size_t self, Task& task) {
  std::deque<Task>& mine = deques_[self];
  if (!mine.empty()) {
    task = std::move(mine.front());
    mine.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Own deque drained: steal from the back of the longest victim deque (the
  // back holds the tasks its owner would reach last, so stealing there
  // minimises interleaving with the victim's own pops). The scan starts at
  // a per-worker random offset, which breaks length ties without a shared
  // RNG.
  const std::size_t n = deques_.size();
  const std::size_t offset = n > 1 ? rngs_[self].below(n) : 0;
  std::size_t victim = n;
  std::size_t victimBacklog = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (offset + k) % n;
    if (i == self) continue;
    if (deques_[i].size() > victimBacklog) {
      victimBacklog = deques_[i].size();
      victim = i;
    }
  }
  if (victim == n) return false;  // frontier empty everywhere
  task = std::move(deques_[victim].back());
  deques_[victim].pop_back();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  tasksStolen_.fetch_add(1, std::memory_order_relaxed);
  ++stealsByWorker_[self];
  return true;
}

void WorkStealingPool::workerLoop(std::size_t self) {
  tlsBinding = {this, static_cast<int>(self)};
  std::uint64_t seenGeneration = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    batchStart_.wait(lock, [this, seenGeneration] {
      return shuttingDown_ || generation_ != seenGeneration;
    });
    if (shuttingDown_) return;
    seenGeneration = generation_;

    // Batch loop: run tasks until the whole frontier — initial deal plus
    // everything submit()ted along the way — has finished. Empty deques
    // alone don't end the batch; in-flight tasks may still submit.
    while (remaining_ != 0) {
      Task task;
      if (popTask(self, task)) {
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
        return shuttingDown_ || remaining_ == 0 ||
               queued_.load(std::memory_order_relaxed) > 0;
      });
      parked_.fetch_sub(1, std::memory_order_relaxed);
      if (shuttingDown_) return;
    }
  }
}

}  // namespace lazyhb::campaign
