// Deeper runtime-engine tests: condvar FIFO and broadcast semantics,
// semaphore counting, nested spawn identity, stack-pool reuse, fibers
// re-armed on their own stacks, restarted executions matching fresh ones,
// teardown robustness when executions are pruned at every possible depth,
// and enabled-set correctness around blocking operations — including, at
// every pick of random walks and tree searches over the whole corpus under
// SC and TSO, the maintained enabled set against one recomputed from the
// public accessors.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "explore/random_explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
#include "runtime/fiber.hpp"
#include "test_helpers.hpp"
#include "trace/trace_recorder.hpp"

namespace {

using namespace lazyhb;
using runtime::Config;
using runtime::Execution;
using runtime::Outcome;
using runtime::StackPool;

class FirstEnabled final : public runtime::Scheduler {
 public:
  int pick(Execution& exec) override { return exec.enabled().first(); }
};

/// Picks the highest-numbered enabled thread: children drain before the
/// main thread proceeds (used where main would otherwise starve them by
/// spinning on a condition they have not yet had a chance to establish).
class LastEnabled final : public runtime::Scheduler {
 public:
  int pick(Execution& exec) override {
    const support::ThreadSet enabled = exec.enabled();
    int tid = enabled.first();
    for (int next = enabled.next(tid); next != -1; next = enabled.next(tid)) {
      tid = next;
    }
    return tid;
  }
};

Outcome run(const std::function<void()>& body, runtime::Scheduler& s,
            Execution* out = nullptr) {
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  const Outcome outcome = exec.run(body, s);
  if (out != nullptr) {
    // Execution is not copyable; callers use the pointer variant below.
  }
  return outcome;
}

TEST(Runtime, CondVarWakesInFifoOrder) {
  // Three waiters park in order; three signals must wake them in the same
  // order (deterministic wakeup is part of the schedule-invariance story).
  LastEnabled sched;
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  const Outcome outcome = exec.run(
      [] {
        Mutex m("m");
        CondVar cv("cv");
        Shared<int> wokenOrder{0, "order"};
        Shared<int> parked{0, "parked"};
        std::vector<ThreadHandle> waiters;
        for (int i = 1; i <= 3; ++i) {
          waiters.push_back(spawn([&, i] {
            LockGuard guard(m);
            parked.fetchAdd(1);
            cv.wait(m);
            // Encode wake order in base 10: first-woken contributes the
            // most significant digit.
            wokenOrder.store(wokenOrder.load() * 10 + i);
          }));
        }
        // Wait until all three are parked (first-enabled scheduling runs
        // each spawned thread to its wait before the main thread proceeds,
        // but the loop makes the invariant explicit).
        while (parked.load() < 3) {
          yield();
        }
        for (int i = 0; i < 3; ++i) {
          LockGuard guard(m);
          cv.signal();
        }
        for (auto& w : waiters) w.join();
        checkAlways(wokenOrder.load() == 123, "FIFO wakeup");
      },
      sched);
  EXPECT_EQ(outcome, Outcome::Terminal);
}

TEST(Runtime, BroadcastWakesAllWaiters) {
  LastEnabled sched;
  EXPECT_EQ(run(
                [] {
                  Mutex m("m");
                  CondVar cv("cv");
                  Shared<int> parked{0, "parked"};
                  Shared<int> woken{0, "woken"};
                  std::vector<ThreadHandle> waiters;
                  for (int i = 0; i < 3; ++i) {
                    waiters.push_back(spawn([&] {
                      LockGuard guard(m);
                      parked.fetchAdd(1);
                      cv.wait(m);
                      woken.fetchAdd(1);
                    }));
                  }
                  while (parked.load() < 3) yield();
                  {
                    LockGuard guard(m);
                    cv.broadcast();
                  }
                  for (auto& w : waiters) w.join();
                  checkAlways(woken.load() == 3, "all woken");
                },
                sched),
            Outcome::Terminal);
}

TEST(Runtime, SemaphoreCountsPermits) {
  FirstEnabled sched;
  EXPECT_EQ(run(
                [] {
                  Semaphore sem(2, "sem");
                  sem.acquire();
                  sem.acquire();  // both immediate permits consumed
                  auto t = spawn([&] { sem.release(); });
                  sem.acquire();  // must block until the child releases
                  t.join();
                },
                sched),
            Outcome::Terminal);
}

TEST(Runtime, NestedSpawnIdentityIsStable) {
  // Grandchildren spawned from a child must get schedule-invariant UIDs:
  // two different schedules of the same program agree on every event's
  // thread UID (checked via the trace fingerprint of a fixed replay).
  auto body = [] {
    Shared<int> sum{0, "sum"};
    auto child = spawn([&] {
      auto grandchild = spawn([&] { sum.fetchAdd(1); });
      grandchild.join();
      sum.fetchAdd(10);
    });
    sum.fetchAdd(100);
    child.join();
  };
  // Two different interleavings that both complete.
  const auto a = explore::replaySchedule(body, {});
  ASSERT_EQ(a.outcome, Outcome::Terminal);
  // All schedules reach the same final sum, and the HBR machinery never
  // confuses the grandchild across schedules (same state fingerprint).
  explore::ExplorerOptions options;
  options.scheduleLimit = 100000;
  explore::DfsExplorer explorer(options);
  const auto result = explorer.explore(body);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
}

TEST(Runtime, StackPoolReusesStacks) {
  StackPool pool(64 * 1024);
  EXPECT_EQ(pool.pooledCount(), 0u);
  {
    runtime::Fiber fiber(pool, [] {});
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
  }
  EXPECT_EQ(pool.pooledCount(), 1u);  // returned on destruction
  {
    runtime::Fiber fiber(pool, [] {});
    EXPECT_EQ(pool.pooledCount(), 0u);  // reused, not reallocated
    fiber.resume();
  }
  EXPECT_EQ(pool.pooledCount(), 1u);
}

TEST(Runtime, RearmedFiberRunsOnItsOwnStack) {
  // A finished fiber re-armed with a new entry runs it from the top of the
  // stack it already owns: the pool is not consulted, and both entries'
  // locals live in the same stack buffer. (On the ucontext backend this is
  // makecontext on a reused stack.)
  StackPool pool(64 * 1024);
  const char* first = nullptr;
  const char* second = nullptr;
  int runs = 0;
  runtime::Fiber* self = nullptr;
  runtime::Fiber fiber(pool, [&] {
    char local = 0;
    first = &local;
    ++runs;
    self->yieldToHost();
    ++runs;
  });
  self = &fiber;
  fiber.resume();
  fiber.resume();
  ASSERT_TRUE(fiber.finished());
  EXPECT_EQ(pool.pooledCount(), 0u);
  fiber.rearm([&] {
    char local = 0;
    second = &local;
    ++runs;
  });
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(pool.pooledCount(), 0u);  // no stack acquired for the re-arm
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  const auto distance = first > second ? first - second : second - first;
  EXPECT_LT(distance, static_cast<std::ptrdiff_t>(pool.stackBytes()));
}

/// Follows `script` (a pick per scheduling point, skipping any that is not
/// enabled), then the lowest enabled real thread; abandons after `abandonAt`
/// picks. Never picks a flush, so TSO stores stay buffered until the end.
/// Captures depth 2 into `atTwo` when one is given.
class Scripted final : public runtime::Scheduler {
 public:
  Scripted(std::vector<int> script, std::size_t abandonAt,
           Execution::Snapshot* atTwo = nullptr)
      : script_(std::move(script)), abandonAt_(abandonAt), atTwo_(atTwo) {}
  int pick(Execution& exec) override {
    const std::size_t depth = exec.choices().size();
    if (atTwo_ != nullptr && depth == 2) (void)exec.capture(*atTwo_);
    if (depth >= abandonAt_) return kAbandon;
    const support::ThreadSet enabled = exec.enabled();
    if (depth < script_.size() && enabled.contains(script_[depth])) return script_[depth];
    for (int tid = enabled.first(); tid != -1; tid = enabled.next(tid)) {
      if (!memory::isFlushPick(tid)) return tid;
    }
    return enabled.first();  // only flushes left: drain them
  }

 private:
  std::vector<int> script_;
  std::size_t abandonAt_;
  Execution::Snapshot* atTwo_;
};

/// Everything a run leaves behind that a caller can observe.
struct RunRecord {
  Outcome outcome = Outcome::Terminal;
  std::vector<int> choices;
  std::vector<runtime::EventRecord> events;
  std::vector<std::tuple<runtime::Uid, runtime::ObjectKind, std::string, std::uint64_t,
                         std::int64_t, std::vector<int>>>
      objects;
  std::vector<lazyhb::testing::CapturedTrace::Registration> registrations;
  std::vector<runtime::EventRecord> observedEvents;
  int threads = 0;
  support::Hash128 state;
  Outcome violationKind = Outcome::Terminal;
  std::string message;
  std::vector<int> schedule;
  std::uint64_t flushes = 0;
  std::uint64_t fences = 0;
  std::uint32_t maxBuffered = 0;

  bool operator==(const RunRecord&) const = default;
};

RunRecord recordOf(Outcome outcome, const Execution& exec,
                   const lazyhb::testing::CapturedTrace& captured) {
  RunRecord r;
  r.outcome = outcome;
  r.choices = exec.choices();
  r.events = exec.events();
  for (int i = 0; i < exec.objectCount(); ++i) {
    const runtime::ObjectInfo& o = exec.object(i);
    r.objects.emplace_back(o.uid, o.kind, o.name, o.valueHash, o.a, o.waiters);
  }
  r.registrations = captured.registrations;
  r.observedEvents = captured.events;
  r.threads = exec.threadCount();
  r.state = exec.stateFingerprint();
  r.violationKind = exec.violation().kind;
  r.message = exec.violation().message;
  r.schedule = exec.violation().schedule;
  r.flushes = exec.flushEventCount();
  r.fences = exec.fenceEventCount();
  r.maxBuffered = exec.maxBufferedStores();
  return r;
}

TEST(Runtime, RestartedExecutionMatchesAFreshOne) {
  // One execution recycled through restart() must be indistinguishable from
  // a freshly constructed one on every schedule of a varied sequence: its
  // retired thread records, fibers, objects, logs, cached fiber images and
  // violation record must carry nothing over.
  auto workers = [](int n) {
    // Checkpointable (no heap on fiber stacks), so resumable steps can roll
    // back into it.
    return [n] {
      struct {
        Shared<int> x{0, "x"};
        Mutex m{"a-mutex-with-a-name-too-long-for-small-string-storage"};
        CondVar cv{"cv"};
      } s;
      InlineVec<ThreadHandle, 4> threads;
      for (int i = 0; i < n; ++i) {
        threads.push(spawn([&s] {
          LockGuard guard(s.m);
          s.x.store(s.x.load() + 1);
          s.cv.broadcast();
        }));
      }
      {
        LockGuard guard(s.m);
        while (s.x.load() < n) s.cv.wait(s.m);
      }
      for (ThreadHandle& t : threads) t.join();
    };
  };
  const std::function<void()> assertion = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { checkAlways(x.load() == 1, "child saw the initial value"); });
    x.store(1);
    t.join();
  };
  const std::function<void()> deadlock = [] {
    Mutex m("m");
    m.lock();
    auto t = spawn([&] {
      m.lock();
      m.unlock();
    });
    t.join();
    m.unlock();
  };
  const std::function<void()> lostSignal = [] {
    // Ends deadlocked with main parked in the condvar's waiter queue.
    Mutex m("m");
    CondVar cv("cv");
    auto t = spawn([&] { cv.signal(); });
    {
      LockGuard guard(m);
      cv.wait(m);
    }
    t.join();
  };
  const std::function<void()> buffered = [] {
    Shared<int> x{0, "x"};
    Shared<int> y{0, "y"};
    auto t = spawn([&] {
      x.store(1);
      y.store(2);
      fence();
    });
    y.store(3);
    (void)x.load();
    t.join();
  };
  Config sc;
  Config tso;
  tso.memoryModel = memory::MemoryModel::Tso;
  const std::size_t never = static_cast<std::size_t>(-1);
  struct Step {
    const char* name;
    std::function<void()> body;
    Config config;
    std::vector<int> script;
    std::size_t abandonAt;
    Outcome expected;
    /// Resumable: capture depth 2, then restore it and resume along
    /// `resumeScript`.
    bool resumable = false;
    std::vector<int> resumeScript = {};
  };
  std::vector<Step> steps = {
      {"terminal", workers(2), sc, {}, never, Outcome::Terminal},
      {"four threads", workers(4), sc, {0, 1, 0, 2}, never, Outcome::Terminal},
      {"fewer threads", workers(1), sc, {}, never, Outcome::Terminal},
      {"assertion", assertion, sc, {0, 1}, never, Outcome::AssertionFailure},
      {"deadlock", deadlock, sc, {}, never, Outcome::Deadlock},
      {"lost signal", lostSignal, sc, {0, 1}, never, Outcome::Deadlock},
      {"abandoned", workers(3), sc, {0, 0, 1}, 6, Outcome::Abandoned},
      {"tso buffered", buffered, tso, {0, 1, 1, 0}, 5, Outcome::Abandoned},
      {"tso drained", buffered, tso, {}, never, Outcome::Terminal},
      {"sc again", workers(2), sc, {0, 1}, never, Outcome::Terminal},
  };
  if (Execution::checkpointingSupported()) {
    // Resumable runs defer teardown: restart() must run the suspended
    // fibers forward and drop the undo logs and cached images.
    // Both reach depth 2 with equal advance counts, so a cached fiber image
    // surviving restart() would be taken for the second program's.
    steps.push_back({"resumable abandoned", workers(3), sc, {0, 0}, 5, Outcome::Abandoned,
                     true, {0, 0, 1}});
    steps.push_back({"resumable terminal", workers(2), sc, {}, never, Outcome::Terminal,
                     true, {0, 0, 2}});
    steps.push_back({"after resumable", workers(2), sc, {}, never, Outcome::Terminal});
  }

  auto play = [never](Execution& exec, const lazyhb::testing::CapturedTrace& trace,
                      const Step& step) {
    std::vector<RunRecord> records;
    Execution::Snapshot atTwo;
    Scripted scheduler(step.script, step.abandonAt, step.resumable ? &atTwo : nullptr);
    records.push_back(recordOf(exec.run(step.body, scheduler), exec, trace));
    if (step.resumable) {
      exec.restore(atTwo);
      Scripted other(step.resumeScript, never);
      records.push_back(recordOf(exec.resume(other), exec, trace));
    }
    return records;
  };
  StackPool pool;
  lazyhb::testing::CapturedTrace recycledTrace;
  Execution recycled(sc, pool, &recycledTrace);
  for (const Step& step : steps) {
    SCOPED_TRACE(step.name);
    std::vector<RunRecord> fresh;
    {
      lazyhb::testing::CapturedTrace trace;
      Execution exec(step.config, pool, &trace);
      if (step.resumable) exec.enableResumable();
      fresh = play(exec, trace, step);
    }
    EXPECT_EQ(fresh.front().outcome, step.expected);
    recycled.restart(step.config, &recycledTrace);
    recycledTrace = lazyhb::testing::CapturedTrace{};  // after the deferred teardown
    if (step.resumable) recycled.enableResumable();
    const std::vector<RunRecord> again = play(recycled, recycledTrace, step);
    ASSERT_EQ(again.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(again[i].choices, fresh[i].choices);
      EXPECT_EQ(again[i].message, fresh[i].message);
      EXPECT_EQ(again[i].schedule, fresh[i].schedule);
      EXPECT_TRUE(again[i] == fresh[i]) << "run " << i;
    }
  }
}

/// Abandon an execution after exactly k events; used to sweep teardown
/// through every possible prune depth.
class AbandonAfter final : public runtime::Scheduler {
 public:
  explicit AbandonAfter(std::size_t k) : k_(k) {}
  int pick(Execution& exec) override {
    if (exec.choices().size() >= k_) return kAbandon;
    return exec.enabled().first();
  }

 private:
  std::size_t k_;
};

TEST(Runtime, TeardownSafeAtEveryDepth) {
  // A program using every synchronisation feature; pruning it after each
  // possible event count must neither crash, hang, nor leak fibers.
  auto body = [] {
    Shared<int> x{0, "x"};
    Mutex m("m");
    CondVar cv("cv");
    Semaphore sem(1, "sem");
    auto t1 = spawn([&] {
      LockGuard guard(m);
      while (x.load() == 0) cv.wait(m);
      sem.acquire();
      sem.release();
    });
    auto t2 = spawn([&] {
      LockGuard guard(m);
      x.store(1);
      cv.signal();
    });
    if (m.tryLock()) m.unlock();
    t1.join();
    t2.join();
  };
  StackPool pool;
  for (std::size_t k = 0; k < 40; ++k) {
    Execution exec(Config{}, pool, nullptr);
    AbandonAfter sched(k);
    const Outcome outcome = exec.run(body, sched);
    EXPECT_TRUE(outcome == Outcome::Abandoned || outcome == Outcome::Terminal)
        << "k=" << k;
  }
}

TEST(Runtime, EnabledSetTracksBlocking) {
  // Drive a specific schedule and observe enabled() transitions around a
  // lock conflict.
  StackPool pool;
  Execution exec(Config{}, pool, nullptr);
  struct Probe final : runtime::Scheduler {
    bool sawBlockedLock = false;
    int pick(Execution& e) override {
      // While some thread holds m and another has a pending lock on it,
      // that other thread must not be enabled.
      for (int tid = 0; tid < e.threadCount(); ++tid) {
        const auto& op = e.pending(tid);
        if (op.valid && op.kind == runtime::OpKind::Lock &&
            e.object(op.object).a != -1 && !e.enabled().contains(tid)) {
          sawBlockedLock = true;
        }
      }
      return e.enabled().first();
    }
  } sched;
  const Outcome outcome = exec.run(
      [] {
        Mutex m("m");
        Shared<int> x{0, "x"};
        auto t = spawn([&] {
          LockGuard guard(m);
          x.store(1);
        });
        LockGuard guard(m);
        x.store(2);
        // Give the child a chance to be blocked on m while we hold it.
        yield();
        t.join();
      },
      sched);
  // The schedule above deadlocks: main holds m and joins t while t waits
  // for m... actually main unlocks at scope exit after join -> deadlock.
  // Either way the probe must have observed the disabled pending lock.
  (void)outcome;
  EXPECT_TRUE(sched.sawBlockedLock);
}

/// Recomputes the enabled set at every pick from the public accessors
/// alone — pending operations, thread status and the object table, and
/// under TSO the flush picks' pending flushes — compares it with the set
/// Execution maintains, then forwards the pick. The engine's own
/// LAZYHB_ASSERTs are compiled out of release builds; this check is not.
class EnabledSetOracle final : public runtime::Scheduler {
 public:
  explicit EnabledSetOracle(runtime::Scheduler& inner) : inner_(inner) {}

  int pick(Execution& exec) override {
    ++picks_;
    const support::ThreadSet expected = recompute(exec);
    if (exec.enabled() != expected && mismatches_++ == 0) {
      firstMismatch_ = "pick " + std::to_string(exec.choices().size()) + ": enabled() " +
                       std::to_string(exec.enabled().raw()) + ", recomputed " +
                       std::to_string(expected.raw());
    }
    return inner_.pick(exec);
  }

  [[nodiscard]] std::uint64_t picks() const { return picks_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::string& firstMismatch() const { return firstMismatch_; }

 private:
  static support::ThreadSet recompute(const Execution& exec) {
    const bool tso = exec.memoryModel() == memory::MemoryModel::Tso;
    const auto buffered = [&](int tid) {
      return tso && exec.pending(memory::kFlushPickOffset + tid).valid;
    };
    support::ThreadSet result;
    for (int tid = 0; tid < exec.threadCount(); ++tid) {
      if (buffered(tid)) result.insert(memory::kFlushPickOffset + tid);
      const runtime::PendingOp op = exec.pending(tid);
      if (!op.valid || exec.threadFinished(tid)) continue;
      bool enabled = true;
      switch (op.kind) {
        case runtime::OpKind::Lock: enabled = exec.object(op.object).a == -1; break;
        case runtime::OpKind::Reacquire: enabled = exec.object(op.mutexObject).a == -1; break;
        case runtime::OpKind::SemAcquire: enabled = exec.object(op.object).a > 0; break;
        case runtime::OpKind::Join:
          enabled = exec.threadFinished(op.targetThread) && !buffered(op.targetThread);
          break;
        default: break;
      }
      // Under TSO everything but plain loads, stores and yields waits for
      // the issuer's buffer to drain.
      const bool fenced = op.kind != runtime::OpKind::Read &&
                          op.kind != runtime::OpKind::Write &&
                          op.kind != runtime::OpKind::Yield;
      if (fenced && buffered(tid)) enabled = false;
      if (enabled) result.insert(tid);
    }
    return result;
  }

  runtime::Scheduler& inner_;
  std::uint64_t picks_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string firstMismatch_;
};

// Under ThreadSanitizer the fibers run on the ucontext backend, and libtsan
// traps (a CHECK in its stack depot: a shadow call stack of 65,536 frames)
// once this process has switched fibers often enough: the corpus oracle
// below passes at 3 walks and a 40-schedule dfs per program and traps at 4
// and 60. The TSan leg therefore runs it at 2 walks and a 20-schedule dfs
// per program — still every corpus program and both loops on the ucontext
// backend — and every other build at the full sizes.
#if defined(__SANITIZE_THREAD__)
#define LAZYHB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LAZYHB_TSAN_BUILD 1
#endif
#endif
#if defined(LAZYHB_TSAN_BUILD)
constexpr std::uint64_t kOracleWalks = 2;
constexpr int kOracleDfsSchedules = 20;
#else
constexpr std::uint64_t kOracleWalks = 50;
constexpr int kOracleDfsSchedules = 2000;
#endif

/// Every corpus program under `model`: kOracleWalks random walks
/// (RandomExplorer's loop, rolled back to the root checkpoint on
/// checkpointable programs) and a dfs of kOracleDfsSchedules schedules (the
/// tree search's loop, with its checkpoint stages and rollbacks), each on
/// its own engine as an exploration builds it, every pick checked by
/// EnabledSetOracle.
void expectEnabledSetMatchesOnCorpus(memory::MemoryModel model) {
  runtime::Config config;
  config.maxEventsPerSchedule = explore::ExplorerOptions{}.maxEventsPerSchedule;
  config.memoryModel = model;
  for (const programs::ProgramSpec& spec : programs::all()) {
    SCOPED_TRACE(spec.name);
    // Runs `loop(engine, runOne)` on a fresh engine; runOne executes one
    // schedule under the oracle.
    const auto exploration = [&](const auto& loop) {
      trace::TraceRecorder recorder;
      StackPool pool;
      explore::PrefixReplayEngine engine(
          pool, recorder, /*incremental=*/true,
          spec.checkpointable && Execution::checkpointingSupported(),
          explore::defaultSnapshotBudgetBytes());
      std::uint64_t picks = 0;
      const auto runOne = [&](runtime::Scheduler& inner) {
        EnabledSetOracle oracle(inner);
        const explore::PrefixReplayEngine::Session session =
            engine.beginSchedule(config, &recorder);
        (void)(session.resumed ? session.exec->resume(oracle)
                               : session.exec->run(spec.body, oracle));
        EXPECT_EQ(oracle.mismatches(), 0u) << oracle.firstMismatch();
        picks += oracle.picks();
      };
      loop(engine, runOne);
      EXPECT_GT(picks, 0u);
    };

    exploration([](explore::PrefixReplayEngine& engine, const auto& runOne) {
      explore::PrefixReplayEngine* root = engine.runtimeRollback() ? &engine : nullptr;
      for (std::uint64_t k = 0; k < kOracleWalks; ++k) {
        if (root != nullptr && k > 0) (void)root->prepareNext(0);
        explore::RandomScheduler walk(support::mix64(7 + k), root);
        runOne(walk);
      }
    });
    exploration([](explore::PrefixReplayEngine& engine, const auto& runOne) {
      explore::TreeSearchState state;
      std::size_t startDepth = 0;
      for (int schedule = 0; schedule < kOracleDfsSchedules; ++schedule) {
        explore::TreeScheduler tree(state, {}, &engine, startDepth);
        runOne(tree);
        if (!state.advance()) break;
        startDepth = engine.prepareNext(state.checkFromDepth);
      }
    });
  }
}

TEST(Runtime, MaintainedEnabledSetMatchesRecomputedSc) {
  expectEnabledSetMatchesOnCorpus(memory::MemoryModel::Sc);
}

TEST(Runtime, MaintainedEnabledSetMatchesRecomputedTso) {
  expectEnabledSetMatchesOnCorpus(memory::MemoryModel::Tso);
}

TEST(Runtime, ViolationSchedulesReplayExactly) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    const int seen = x.load();
    t.join();
    checkAlways(seen == 0, "main read before child wrote");  // fails sometimes
  };
  explore::ExplorerOptions options;
  options.scheduleLimit = 1000;
  options.stopOnFirstViolation = true;
  explore::DfsExplorer explorer(options);
  const auto result = explorer.explore(body);
  ASSERT_TRUE(result.foundViolation());
  const auto replay = explore::replaySchedule(body, result.violations[0].schedule);
  EXPECT_EQ(replay.outcome, Outcome::AssertionFailure);
  EXPECT_EQ(replay.violationMessage, result.violations[0].message);
}

}  // namespace
