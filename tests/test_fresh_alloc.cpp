// The recycled-execution invariant: once warmed up, a fresh terminal
// schedule handed out by the replay engine allocates nothing. The program's
// own allocations are excluded by construction (no heap state, spawn
// closures small enough for std::function's inline buffer). And the leased
// kit invariant: once one exploration has run, the next one builds no
// fiber stack.
//
// This binary replaces the global allocator with a counting one, so it is a
// suite of its own: no other test runs with the replacement.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "memory/memory_model.hpp"
#include "runtime/api.hpp"
#include "runtime/execution.hpp"
#include "trace/trace_recorder.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
/// Counted allocations of at least g_largeBytes bytes.
std::atomic<std::size_t> g_largeBytes{SIZE_MAX};
std::atomic<std::uint64_t> g_largeAllocations{0};

void* countedAlloc(std::size_t bytes, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (bytes >= g_largeBytes.load(std::memory_order_relaxed)) {
      g_largeAllocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (bytes == 0) bytes = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(bytes);
  return std::aligned_alloc(alignment, (bytes + alignment - 1) / alignment * alignment);
}

void* countedNew(std::size_t bytes, std::size_t alignment = alignof(std::max_align_t)) {
  void* p = countedAlloc(bytes, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, so allocation and deallocation always pair as
// malloc/free (sanitizer builds check that pairing).
void* operator new(std::size_t n) { return countedNew(n); }
void* operator new[](std::size_t n) { return countedNew(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedNew(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return countedNew(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace lazyhb;

/// Walks a different interleaving per schedule (the k-th schedule takes the
/// (k mod |enabled|)-th enabled pick at every point), so the runs differ in
/// shape but all stay terminal.
class Rotating final : public runtime::Scheduler {
 public:
  explicit Rotating(std::uint64_t k) : k_(k) {}
  int pick(runtime::Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    const auto width = static_cast<std::uint64_t>(enabled.size());
    std::uint64_t skip = (k_ + exec.choices().size()) % width;
    int tid = enabled.first();
    while (skip-- > 0) tid = enabled.next(tid);
    return tid;
  }

 private:
  std::uint64_t k_;
};

struct State {
  Shared<int> counter{0, "counter"};
  Mutex lock{"lock"};
  CondVar ready{"ready"};
  Shared<int> flag{0, "flag"};
};

/// Two threads: a lock-protected counter, a condvar handshake and racy
/// flag accesses. The spawn closure captures one reference.
void twoThreads() {
  State s;
  auto child = spawn([&s] {
    {
      LockGuard guard(s.lock);
      s.counter.store(s.counter.load() + 1);
      s.ready.signal();
    }
    s.flag.store(1);
  });
  {
    LockGuard guard(s.lock);
    while (s.counter.load() == 0) s.ready.wait(s.lock);
  }
  (void)s.flag.load();
  s.flag.store(2);
  child.join();
}

std::uint64_t allocationsOverFreshSchedules(memory::MemoryModel model) {
  constexpr int kWarmup = 16;
  constexpr int kMeasured = 128;
  const std::function<void()> program = twoThreads;
  runtime::StackPool pool;
  trace::TraceRecorder recorder(trace::TraceRecorder::Options{});
  // Elision tier on, runtime rollback off: the non-checkpointable path,
  // where every schedule is a fresh execution.
  explore::PrefixReplayEngine engine(pool, recorder, /*incremental=*/true,
                                     /*runtimeRollback=*/false,
                                     /*snapshotBudgetBytes=*/0);
  runtime::Config config;
  config.memoryModel = model;
  int terminal = 0;
  for (int k = 0; k < kWarmup + kMeasured; ++k) {
    if (k == kWarmup) {
      g_allocations.store(0);
      g_counting.store(true);
    }
    const explore::PrefixReplayEngine::Session session =
        engine.beginSchedule(config, &recorder);
    Rotating scheduler(static_cast<std::uint64_t>(k));
    if (session.exec->run(program, scheduler) == runtime::Outcome::Terminal) {
      ++terminal;
    }
  }
  g_counting.store(false);
  EXPECT_EQ(terminal, kWarmup + kMeasured);
  return g_allocations.load();
}

TEST(FreshExecution, SteadyStateSchedulesAllocateNothing) {
  EXPECT_EQ(allocationsOverFreshSchedules(memory::MemoryModel::Sc), 0u);
}

TEST(FreshExecution, SteadyStateTsoSchedulesAllocateNothing) {
  EXPECT_EQ(allocationsOverFreshSchedules(memory::MemoryModel::Tso), 0u);
}

/// Allocations of a fiber stack's size or more made by one exploration of
/// twoThreads (construction to destruction) after another one warmed up.
std::uint64_t stackSizedAllocationsOfAWarmExploration(memory::MemoryModel model) {
  explore::ExplorerOptions options;
  options.scheduleLimit = 64;
  options.memoryModel = model;
  const std::function<void()> program = twoThreads;
  auto exploreOnce = [&] {
    explore::DfsExplorer explorer(options);
    EXPECT_GT(explorer.explore(program).terminalSchedules, 0u);
  };
  exploreOnce();  // warm-up: leases and fills a kit
  g_largeBytes.store(runtime::StackPool{}.stackBytes());
  g_largeAllocations.store(0);
  g_counting.store(true);
  exploreOnce();
  g_counting.store(false);
  g_largeBytes.store(SIZE_MAX);
  return g_largeAllocations.load();
}

TEST(LeasedKit, SteadyStateExplorationBuildsNoStack) {
  EXPECT_EQ(stackSizedAllocationsOfAWarmExploration(memory::MemoryModel::Sc), 0u);
}

TEST(LeasedKit, SteadyStateTsoExplorationBuildsNoStack) {
  EXPECT_EQ(stackSizedAllocationsOfAWarmExploration(memory::MemoryModel::Tso), 0u);
}

TEST(FreshExecution, CounterSeesTheEngineAllocate) {
  // The instrument works: the first schedule builds the execution, its
  // fibers and its logs.
  g_allocations.store(0);
  g_counting.store(true);
  {
    runtime::StackPool pool;
    trace::TraceRecorder recorder(trace::TraceRecorder::Options{});
    explore::PrefixReplayEngine engine(pool, recorder, true, false, 0);
    const auto session = engine.beginSchedule(runtime::Config{}, &recorder);
    Rotating scheduler(0);
    (void)session.exec->run(twoThreads, scheduler);
  }
  g_counting.store(false);
  EXPECT_GT(g_allocations.load(), 0u);
}

TEST(LeasedKit, CounterSeesAStackBuilt) {
  // The instrument works: a stack pool with none to reuse allocates one of
  // stackBytes().
  runtime::StackPool pool;
  g_largeBytes.store(pool.stackBytes());
  g_largeAllocations.store(0);
  g_counting.store(true);
  pool.release(pool.acquire());
  g_counting.store(false);
  g_largeBytes.store(SIZE_MAX);
  EXPECT_EQ(g_largeAllocations.load(), 1u);
}

}  // namespace
