// End-to-end explorer tests: the paper's Figure 1 example, completeness of
// DPOR and the caching explorers against naive enumeration, the §3 counting
// chain, and the Theorem 2.1/2.2 and value-soundness conflict counts.

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::expectNoConflicts;
using lazyhb::testing::figure1Program;
using lazyhb::testing::runCaching;
using lazyhb::testing::runDfs;
using lazyhb::testing::runDpor;

TEST(Figure1, NaiveEnumerationCounts) {
  const auto result = runDfs(figure1Program);
  EXPECT_TRUE(result.complete);
  // The two critical sections can be ordered two ways: two HBR classes.
  EXPECT_EQ(result.distinctHbrs, 2u);
  // The lazy HBR erases the mutex edges; x is only read, y and z disjoint:
  // every schedule is lazy-equivalent.
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
  // And indeed only one state is reachable.
  EXPECT_EQ(result.distinctStates, 1u);
  // Sanity: the paper's counting chain, extended with value classes.
  EXPECT_EQ(campaign::checkCountingChain("figure1", result, 200'000), "");
  // Theorems hold across every explored schedule.
  expectNoConflicts(result, "figure1");
}

TEST(Figure1, DporExploresOnePerHbrClass) {
  const auto result = runDpor(figure1Program);
  EXPECT_TRUE(result.complete);
  // DPOR must still see both HBR classes...
  EXPECT_EQ(result.distinctHbrs, 2u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
  // ...with far fewer schedules than naive enumeration.
  const auto naive = runDfs(figure1Program);
  EXPECT_LT(result.schedulesExecuted, naive.schedulesExecuted);
}

TEST(Figure1, LazyCachingExploresLessThanRegularCaching) {
  const auto regular = runCaching(figure1Program, trace::Relation::Full);
  const auto lazy = runCaching(figure1Program, trace::Relation::Lazy);
  EXPECT_TRUE(regular.complete);
  EXPECT_TRUE(lazy.complete);
  // Both find the single reachable state.
  EXPECT_EQ(regular.distinctStates, 1u);
  EXPECT_EQ(lazy.distinctStates, 1u);
  // Lazy caching prunes at least as aggressively.
  EXPECT_LE(lazy.schedulesExecuted, regular.schedulesExecuted);
}

// A two-thread program with *independent* work under a coarse lock: the
// paper's motivating pattern. N increments of disjoint variables, each under
// the same global mutex.
void disjointCoarse() {
  Shared<int> a{0, "a"};
  Shared<int> b{0, "b"};
  Mutex m("m");
  auto t = spawn([&] {
    LockGuard guard(m);
    a.store(a.load() + 1);
  });
  {
    LockGuard guard(m);
    b.store(b.load() + 1);
  }
  t.join();
}

TEST(CoarseLocking, LazyHbrCollapsesDisjointCriticalSections) {
  const auto result = runDfs(disjointCoarse);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);   // the paper's headline effect
  EXPECT_GT(result.distinctHbrs, 1u);       // regular HBR sees 2 classes
  expectNoConflicts(result, "disjoint-coarse");
}

// Racy counter: two unsynchronised read-modify-write pairs; the lost-update
// bug must be visible as multiple terminal states.
void racyCounter() {
  Shared<int> c{0, "c"};
  auto t = spawn([&] {
    const int v = c.load();
    c.store(v + 1);
  });
  const int v = c.load();
  c.store(v + 1);
  t.join();
}

TEST(RacyCounter, MultipleStatesAndTheoremsHold) {
  const auto result = runDfs(racyCounter);
  ASSERT_TRUE(result.complete);
  // c can end as 1 (lost update) or 2.
  EXPECT_EQ(result.distinctStates, 2u);
  // No mutexes: lazy HBR == HBR (points on the diagonal of Figure 2).
  EXPECT_EQ(result.distinctLazyHbrs, result.distinctHbrs);
  expectNoConflicts(result, "racy-counter");
}

TEST(RacyCounter, DporFindsAllStates) {
  const auto naive = runDfs(racyCounter);
  const auto dpor = runDpor(racyCounter);
  EXPECT_TRUE(dpor.complete);
  EXPECT_EQ(dpor.distinctStates, naive.distinctStates);
  EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs);
  EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
}

// Assertion bug reachable only in some interleavings.
void assertionBug() {
  Shared<int> x{0, "x"};
  Shared<int> y{0, "y"};
  auto t = spawn([&] {
    x.store(1);
    y.store(1);
  });
  const int sawX = x.load();
  const int sawY = y.load();
  // Buggy claim: "if I saw y unset... then x must also be unset when read
  // earlier" is false under any interleaving where both loads straddle the
  // child's stores: sawX == 0 with sawY == 1 is reachable.
  checkAlways(!(sawX == 0 && sawY == 1), "stale x with fresh y");
  t.join();
}

TEST(Violations, NaiveAndDporBothFindAssertionFailure) {
  const auto naive = runDfs(assertionBug);
  const auto dpor = runDpor(assertionBug);
  EXPECT_TRUE(naive.foundViolation());
  EXPECT_TRUE(dpor.foundViolation());
  EXPECT_EQ(naive.violations.front().kind, runtime::Outcome::AssertionFailure);
}

void abbaDeadlock() {
  Mutex a("a");
  Mutex b("b");
  auto t = spawn([&] {
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  });
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  t.join();
}

TEST(Violations, DeadlockFoundByAllExplorers) {
  EXPECT_TRUE(runDfs(abbaDeadlock).foundViolation());
  EXPECT_TRUE(runDpor(abbaDeadlock).foundViolation());
  EXPECT_TRUE(runCaching(abbaDeadlock, trace::Relation::Full).foundViolation());
  EXPECT_TRUE(runCaching(abbaDeadlock, trace::Relation::Lazy).foundViolation());
}

// Three threads incrementing a counter under a lock: all schedules reach the
// same state; HBR classes = orderings of the critical sections = 3! = 6.
void lockedCounter3() {
  Shared<int> c{0, "c"};
  Mutex m("m");
  auto worker = [&] {
    LockGuard guard(m);
    c.store(c.load() + 1);
  };
  auto t1 = spawn(worker);
  auto t2 = spawn(worker);
  auto t3 = spawn(worker);
  t1.join();
  t2.join();
  t3.join();
}

TEST(LockedCounter, SixHbrClassesOneLazyClass) {
  const auto result = runDfs(lockedCounter3);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctHbrs, 6u);
  // All critical sections write the same variable c... the writes conflict,
  // so the lazy HBR still orders them: 6 classes remain.
  EXPECT_EQ(result.distinctLazyHbrs, 6u);
  expectNoConflicts(result, "locked-counter-3");
}

// Same three threads, but each under the lock touches only its OWN variable:
// now the lazy HBR collapses all 6 orderings into one class.
void lockedDisjoint3() {
  Shared<int> v1{0, "v1"};
  Shared<int> v2{0, "v2"};
  Shared<int> v3{0, "v3"};
  Mutex m("m");
  auto t1 = spawn([&] { LockGuard g(m); v1.store(1); });
  auto t2 = spawn([&] { LockGuard g(m); v2.store(1); });
  auto t3 = spawn([&] { LockGuard g(m); v3.store(1); });
  t1.join();
  t2.join();
  t3.join();
}

TEST(LockedDisjoint, LazyHbrCollapsesAllOrderings) {
  const auto result = runDfs(lockedDisjoint3);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distinctStates, 1u);
  EXPECT_EQ(result.distinctHbrs, 6u);
  EXPECT_EQ(result.distinctLazyHbrs, 1u);
}

TEST(LockedDisjoint, CachingBudgetComparison) {
  // With a tight schedule budget, lazy caching reaches at least as many
  // distinct lazy HBRs as regular caching (the Figure 3 effect).
  for (const std::uint64_t limit : {4u, 8u, 16u, 64u}) {
    const auto regular = runCaching(lockedDisjoint3, trace::Relation::Full, limit);
    const auto lazy = runCaching(lockedDisjoint3, trace::Relation::Lazy, limit);
    EXPECT_GE(lazy.distinctLazyHbrs, regular.distinctLazyHbrs) << "limit=" << limit;
  }
}

// DPOR completeness sweep over a family of small programs: DPOR (with and
// without sleep sets) and both caching explorers must observe exactly the
// same distinct terminal HBRs/lazy HBRs/states as naive enumeration.
class CompletenessSweep : public ::testing::TestWithParam<int> {};

explore::Program programByIndex(int index) {
  switch (index) {
    case 0: return figure1Program;
    case 1: return disjointCoarse;
    case 2: return racyCounter;
    case 3: return lockedCounter3;
    case 4: return lockedDisjoint3;
    case 5:
      return [] {  // reader/writer race on two vars
        Shared<int> x{0, "x"};
        Shared<int> y{0, "y"};
        auto t = spawn([&] {
          x.store(1);
          (void)y.load();
        });
        y.store(1);
        (void)x.load();
        t.join();
      };
    case 6:
      return [] {  // semaphore handoff
        Shared<int> data{0, "data"};
        Semaphore ready{0, "ready"};
        auto t = spawn([&] {
          data.store(42);
          ready.release();
        });
        ready.acquire();
        checkAlways(data.load() == 42, "handoff ordered");
        t.join();
      };
    case 7:
      return [] {  // trylock contention
        Mutex m("m");
        Shared<int> fallback{0, "fallback"};
        auto t = spawn([&] {
          LockGuard g(m);
          fallback.store(fallback.load() + 10);
        });
        if (m.tryLock()) {
          fallback.store(fallback.load() + 1);
          m.unlock();
        } else {
          fallback.store(fallback.load() + 100);
        }
        t.join();
      };
    case 8:
      return [] {  // condvar ping
        Shared<int> flag{0, "flag"};
        Mutex m("m");
        CondVar cv("cv");
        auto t = spawn([&] {
          LockGuard g(m);
          while (flag.load() == 0) cv.wait(m);
        });
        {
          LockGuard g(m);
          flag.store(1);
          cv.signal();
        }
        t.join();
      };
    default:
      return [] {};
  }
}

TEST_P(CompletenessSweep, ReducedExplorersMatchNaive) {
  const auto program = programByIndex(GetParam());
  const auto naive = runDfs(program);
  ASSERT_TRUE(naive.complete) << "naive search must exhaust the space";
  expectNoConflicts(naive, "dfs");

  const auto dpor = runDpor(program);
  EXPECT_TRUE(dpor.complete);
  expectNoConflicts(dpor, "dpor");
  EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs);
  EXPECT_EQ(dpor.distinctLazyHbrs, naive.distinctLazyHbrs);
  EXPECT_EQ(dpor.distinctStates, naive.distinctStates);
  EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
  for (const auto relation :
       {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
    const auto cached = runCaching(program, relation);
    const std::string key = trace::relationName(relation);
    EXPECT_TRUE(cached.complete) << "relation=" << key;
    expectNoConflicts(cached, "relation=" + key);
    EXPECT_EQ(cached.distinctStates, naive.distinctStates) << "relation=" << key;
    EXPECT_EQ(cached.distinctValueClasses, naive.distinctValueClasses)
        << "relation=" << key;
    // Value classes are coarser than lazy HBRs: a Value-keyed search may
    // prune every schedule of a lazy class whose values it has seen.
    if (relation != trace::Relation::Value) {
      EXPECT_EQ(cached.distinctLazyHbrs, naive.distinctLazyHbrs) << "relation=" << key;
    }
    EXPECT_LE(cached.schedulesExecuted, naive.schedulesExecuted) << "relation=" << key;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallPrograms, CompletenessSweep, ::testing::Range(0, 9));

}  // namespace
