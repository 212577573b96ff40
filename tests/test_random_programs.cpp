// Property-based testing over randomly generated programs.
//
// A seeded generator produces small well-formed concurrent programs (2-3
// threads; reads/writes over a shared variable pool; properly nested
// critical sections over a mutex pool; occasional trylock). For every seed:
//
//   * naive DFS enumerates the space (seeds whose spaces exceed the cap are
//     still theorem-checked, just not completeness-compared);
//   * Theorems 2.1/2.2 and value soundness must hold over every terminal
//     schedule of every explorer (no conflicts in its counts);
//   * the section-3 counting chain must hold on every explorer's counts;
//   * DPOR and the caching explorers under all three keys must reach
//     exactly the same distinct terminal states (and lazy HBRs) as naive
//     enumeration — the soundness property of every reduction;
//   * deadlocks found by naive search must also be found by DPOR.
//
// This is the suite that caught the subtle bugs during development; 40
// seeds x 6 explorers keeps it strong without dominating test time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;

struct GenOp {
  enum class Kind : std::uint8_t { Read, Write, Lock, Unlock, TryLockPulse };
  Kind kind = Kind::Read;
  int object = 0;  // var index for Read/Write; mutex index otherwise
};

struct GenProgram {
  int vars = 2;
  int mutexes = 2;
  std::vector<std::vector<GenOp>> threads;
};

/// Generate a structurally valid program: every Lock is closed by a
/// matching Unlock in the same thread (nesting allowed, max depth 2, no
/// re-acquisition of a held mutex).
GenProgram generate(std::uint64_t seed) {
  support::Rng rng(seed);
  GenProgram p;
  p.vars = rng.intIn(1, 2);
  p.mutexes = rng.intIn(1, 2);
  const int threadCount = rng.intIn(2, 3);
  for (int t = 0; t < threadCount; ++t) {
    std::vector<GenOp> ops;
    std::vector<int> held;  // lock stack
    const int steps = rng.intIn(2, 4);
    for (int s = 0; s < steps; ++s) {
      const int roll = rng.intIn(0, 9);
      if (roll < 4) {
        ops.push_back({rng.chance(1, 2) ? GenOp::Kind::Read : GenOp::Kind::Write,
                       rng.intIn(0, p.vars - 1)});
      } else if (roll < 7 && held.size() < 2) {
        const int m = rng.intIn(0, p.mutexes - 1);
        bool alreadyHeld = false;
        for (const int h : held) alreadyHeld = alreadyHeld || h == m;
        if (!alreadyHeld) {
          ops.push_back({GenOp::Kind::Lock, m});
          held.push_back(m);
        }
      } else if (roll < 8 && !held.empty()) {
        ops.push_back({GenOp::Kind::Unlock, held.back()});
        held.pop_back();
      } else {
        ops.push_back({GenOp::Kind::TryLockPulse, rng.intIn(0, p.mutexes - 1)});
      }
    }
    while (!held.empty()) {
      ops.push_back({GenOp::Kind::Unlock, held.back()});
      held.pop_back();
    }
    p.threads.push_back(std::move(ops));
  }
  return p;
}

/// Interpret a generated program against the lazyhb API.
explore::Program materialize(const GenProgram& gen) {
  return [gen] {
    std::vector<std::unique_ptr<Shared<int>>> vars;
    for (int v = 0; v < gen.vars; ++v) {
      vars.push_back(std::make_unique<Shared<int>>(0, "v"));
    }
    std::vector<std::unique_ptr<Mutex>> mutexes;
    for (int m = 0; m < gen.mutexes; ++m) {
      mutexes.push_back(std::make_unique<Mutex>("m"));
    }
    std::vector<ThreadHandle> workers;
    for (const auto& ops : gen.threads) {
      workers.push_back(spawn([&vars, &mutexes, &ops] {
        for (const GenOp& op : ops) {
          switch (op.kind) {
            case GenOp::Kind::Read:
              (void)vars[static_cast<std::size_t>(op.object)]->load();
              break;
            case GenOp::Kind::Write:
              vars[static_cast<std::size_t>(op.object)]->modify(
                  [](int v) { return v + 1; });
              break;
            case GenOp::Kind::Lock:
              mutexes[static_cast<std::size_t>(op.object)]->lock();
              break;
            case GenOp::Kind::Unlock:
              mutexes[static_cast<std::size_t>(op.object)]->unlock();
              break;
            case GenOp::Kind::TryLockPulse:
              if (mutexes[static_cast<std::size_t>(op.object)]->tryLock()) {
                mutexes[static_cast<std::size_t>(op.object)]->unlock();
              }
              break;
          }
        }
      }));
    }
    for (auto& w : workers) w.join();
  };
}

class RandomProgramSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramSweep, AllExplorersAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1;
  const GenProgram gen = generate(seed);
  const explore::Program program = materialize(gen);

  constexpr std::uint64_t kCap = 60000;
  const auto naive = lazyhb::testing::runDfs(program, kCap);

  // Theorems and the counting chain hold regardless of completeness.
  const std::string where = "seed " + std::to_string(seed);
  lazyhb::testing::expectNoConflicts(naive, where + " dfs");
  EXPECT_EQ(campaign::checkCountingChain(where + " dfs", naive, kCap), "");

  if (!naive.complete) {
    GTEST_SKIP() << "seed " << seed << " space exceeds the cap; theorem-checked only";
  }

  const auto dpor = lazyhb::testing::runDpor(program, kCap);
  ASSERT_TRUE(dpor.complete) << "seed " << seed;
  EXPECT_EQ(dpor.distinctStates, naive.distinctStates) << "seed " << seed;
  EXPECT_EQ(dpor.distinctHbrs, naive.distinctHbrs) << "seed " << seed;
  EXPECT_EQ(dpor.distinctLazyHbrs, naive.distinctLazyHbrs) << "seed " << seed;
  EXPECT_LE(dpor.schedulesExecuted, naive.schedulesExecuted);
  EXPECT_EQ(dpor.foundViolation(), naive.foundViolation()) << "seed " << seed;
  lazyhb::testing::expectNoConflicts(dpor, where + " dpor");
  EXPECT_EQ(campaign::checkCountingChain(where + " dpor", dpor, kCap), "");

  for (const auto relation :
       {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
    const auto cached = lazyhb::testing::runCaching(program, relation, kCap);
    const std::string label = where + " relation=" + trace::relationName(relation);
    ASSERT_TRUE(cached.complete) << label;
    lazyhb::testing::expectNoConflicts(cached, label);
    EXPECT_EQ(campaign::checkCountingChain(label, cached, kCap), "");
    EXPECT_EQ(cached.distinctStates, naive.distinctStates) << label;
    EXPECT_EQ(cached.distinctValueClasses, naive.distinctValueClasses) << label;
    EXPECT_EQ(cached.foundViolation(), naive.foundViolation()) << label;
    // Value classes are coarser than lazy HBRs (see test_explore.cpp).
    if (relation != trace::Relation::Value) {
      EXPECT_EQ(cached.distinctLazyHbrs, naive.distinctLazyHbrs) << label;
    }
    EXPECT_LE(cached.schedulesExecuted, naive.schedulesExecuted) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep, ::testing::Range(0, 40));

}  // namespace
