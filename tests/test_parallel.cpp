// Count-identity stress suite for the parallel intra-scenario explorer.
//
// The contract of explore/parallel_explorer.hpp is that sharding a
// scenario's schedule tree across N workers changes *nothing observable*:
// every count an ExplorationResult carries (schedules / terminal / pruned /
// violations / events / distinct HBR, lazy-HBR and state classes / cache
// lookups, hits, insertions, entries) is byte-identical to the sequential
// explorer's at any worker count. The quotient-DAG argument behind that
// (equal fingerprints => isomorphic subtrees, so all counts are
// order-independent sums) lives in the parallel explorer's header; this
// suite is the empirical judge:
//
//   * the golden corpus slice explored by every explorer mode at
//     --workers {1,2,4,8} against the sequential result;
//   * a >= 20-iteration flakiness loop on the two deepest corpus programs
//     whose searches complete (noisy-flags-3x2, seqlock-2), cycling worker
//     counts, so a racy merge or a lost frontier job has real iterations in
//     which to flake;
//   * invariants of the parallel metadata block (worker shares sum to the
//     total, budget aborts fall back to a sequential rerun).
//
// The suite is also half of the ThreadSanitizer CI leg (with test_core) —
// under LAZYHB_SANITIZE=thread these same runs double as race hunts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "explore/explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "programs/registry.hpp"
#include "test_helpers.hpp"

// Scale every heavy test to the build. Under ThreadSanitizer the forced
// ucontext backend is not just ~100x slower per schedule: TSan's
// swapcontext interceptor allocates per-fiber shadow state that it can
// never free (a ucontext has no destroy hook), so with fresh fibers per
// schedule both memory and the per-schedule cost grow with the *total*
// schedule count of the process — the full-size suite runs quadratic and
// eventually traps inside libtsan. Race coverage, by contrast, comes from
// the concurrent machinery exercised per *run* (frontier claim/donation,
// CAS cache publish, table growth, the merge), not from tree depth. So the
// TSan leg keeps every run shape but holds the whole binary to a few
// thousand schedules total; regular builds sweep the full-depth spaces.
#if defined(__SANITIZE_THREAD__)
#define LAZYHB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LAZYHB_TSAN_BUILD 1
#endif
#endif

namespace {

using namespace lazyhb;
using lazyhb::testing::expectSameContractStats;

/// Explore `program` under `mode` with the given worker count, through the
/// same ExplorerSpec factory every production consumer uses (so workers >= 2
/// on a shardable mode really does construct a ParallelExplorer).
explore::ExplorationResult runWith(const programs::ProgramSpec& spec,
                                   const std::string& mode, int workers,
                                   std::uint64_t scheduleLimit) {
  const auto explorerSpec = campaign::parseExplorerSpec(mode);
  EXPECT_TRUE(explorerSpec.has_value()) << mode;
  explore::ExplorerOptions options;
  options.scheduleLimit = scheduleLimit;
  options.workers = workers;
  auto explorer = explorerSpec->create(options, /*seed=*/42);
  return explorer->explore(spec.body);
}

/// Assert every order-independent count of `parallel` equals `sequential`.
/// events_elided / events_replayed are deliberately not compared: they are
/// replay-savings diagnostics that legitimately differ with sharding (each
/// worker replays its own prefixes), exactly as they differ between
/// --incremental modes — they are scoreboard statistics, which
/// `lazyhb diff` never compares, for the same reason.
void expectCountsIdentical(const explore::ExplorationResult& sequential,
                           const explore::ExplorationResult& parallel,
                           const std::string& label) {
  expectSameContractStats(sequential, parallel, label);
  EXPECT_EQ(parallel.violations.size(), sequential.violations.size()) << label;
  EXPECT_EQ(parallel.races.size(), sequential.races.size()) << label;
  EXPECT_EQ(parallel.cacheStats.enabled, sequential.cacheStats.enabled)
      << label;
}

// The golden corpus slice of tests/test_golden_counts.cpp (whose absolute
// values that suite pins); here each cell's sequential result is the
// baseline its parallel runs must match byte-for-byte. All six explorer
// modes are exercised: dfs / caching-full / caching-lazy / caching-value
// shard, while random / dpor must come out of the factory sequential — and
// therefore trivially identical — whatever --workers says.
#if defined(LAZYHB_TSAN_BUILD)
const char* const kGoldenPrograms[] = {
    "disjoint-lock-2", "cas-counter-3", "deadlock-ab",
};
constexpr std::uint64_t kMatrixLimit = 40;
constexpr int kMatrixWorkerCounts[] = {4};
#else
const char* const kGoldenPrograms[] = {
    "disjoint-lock-2", "noisy-counter-3x2", "prodcons-1x1", "trylock-vs-lock",
    "cas-counter-3",   "deadlock-ab",       "lost-signal",  "sem-handoff-1",
};
constexpr std::uint64_t kMatrixLimit = 200;
constexpr int kMatrixWorkerCounts[] = {2, 4, 8};
#endif
const char* const kExplorerModes[] = {
    "dfs", "random", "dpor", "caching-full", "caching-lazy", "caching-value",
};

TEST(ParallelCountIdentity, GoldenMatrixAtAllWorkerCounts) {
  for (const char* name : kGoldenPrograms) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    for (const char* mode : kExplorerModes) {
      const auto sequential = runWith(*spec, mode, /*workers=*/1, kMatrixLimit);
      for (const int workers : kMatrixWorkerCounts) {
        const auto parallel = runWith(*spec, mode, workers, kMatrixLimit);
        expectCountsIdentical(sequential, parallel,
                              std::string(name) + " x " + mode + " @" +
                                  std::to_string(workers) + " workers");
      }
    }
  }
}

TEST(ParallelCountIdentity, DeepProgramsFlakinessLoop) {
  // The two deepest corpus programs whose caching-lazy searches complete
  // (so the parallel path runs end-to-end rather than budget-aborting):
  // noisy-flags-3x2 (~15k schedules) and seqlock-2 (~10k). Twenty
  // iterations cycling the worker count gives a racy merge, a double-pruned
  // prefix or a dropped frontier job real opportunities to flake.
#if defined(LAZYHB_TSAN_BUILD)
  // racy-counter-3's search completes at 126 schedules — deep enough that
  // 4 and 8 workers all get frontier jobs, small enough that the whole
  // loop stays inside the TSan fiber budget (see the header comment).
  constexpr int kIterations = 6;
  constexpr std::uint64_t kLimit = 2000;
  const char* const kDeepPrograms[] = {"racy-counter-3"};
#else
  constexpr int kIterations = 20;
  constexpr std::uint64_t kLimit = 20000;
  const char* const kDeepPrograms[] = {"noisy-flags-3x2", "seqlock-2"};
#endif
  for (const char* name : kDeepPrograms) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    const auto sequential = runWith(*spec, "caching-lazy", 1, kLimit);
    ASSERT_TRUE(sequential.complete) << name;
    for (int i = 0; i < kIterations; ++i) {
      const int workers = 2 << (i % 3);  // 2, 4, 8, 2, ...
      const auto parallel = runWith(*spec, "caching-lazy", workers, kLimit);
      expectCountsIdentical(sequential, parallel,
                            std::string(name) + " iteration " +
                                std::to_string(i) + " @" +
                                std::to_string(workers) + " workers");
    }
  }
}

TEST(ParallelCountIdentity, DfsViolationSetIsOrderIndependent) {
  // Without pruning every schedule executes, so for a *complete* dfs search
  // even the concrete violation records — not just their count — must come
  // out identical (the parallel merge lex-sorts; a complete sequential dfs
  // enumerates in the same lexicographic order). Caching modes only promise
  // the count: which schedule witnesses a violation class there is
  // insertion-order dependent by design.
  const programs::ProgramSpec* spec = programs::byName("deadlock-ab");
  ASSERT_NE(spec, nullptr);
  const auto sequential = runWith(*spec, "dfs", 1, 200);
  ASSERT_TRUE(sequential.complete);
  ASSERT_GE(sequential.violations.size(), 2u);
  for (const int workers : kMatrixWorkerCounts) {
    const auto parallel = runWith(*spec, "dfs", workers, 200);
    ASSERT_EQ(parallel.violations.size(), sequential.violations.size());
    auto key = [](const explore::ViolationRecord& v) {
      return std::make_tuple(v.kind, v.message, v.schedule);
    };
    std::vector<std::tuple<runtime::Outcome, std::string, std::vector<int>>>
        expected, actual;
    for (const auto& v : sequential.violations) expected.push_back(key(v));
    for (const auto& v : parallel.violations) actual.push_back(key(v));
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << workers << " workers";
  }
}

// --- parallel metadata -------------------------------------------------------

TEST(ParallelMetadata, WorkerSharesSumToTheTotal) {
#if defined(LAZYHB_TSAN_BUILD)
  const programs::ProgramSpec* spec = programs::byName("racy-counter-3");
#else
  const programs::ProgramSpec* spec = programs::byName("noisy-flags-3x2");
#endif
  ASSERT_NE(spec, nullptr);
  const auto result = runWith(*spec, "caching-lazy", 4, 20000);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.parallel.workers, 4);
  EXPECT_FALSE(result.parallel.fellBackSequential);
  EXPECT_GE(result.parallel.frontierJobs, 1u);
  ASSERT_EQ(result.parallel.byWorker.size(), 4u);
  std::uint64_t visited = 0;
  for (const explore::WorkerShare& share : result.parallel.byWorker) {
    visited += share.schedulesVisited;
  }
  EXPECT_EQ(visited, result.schedulesExecuted);
}

TEST(ParallelMetadata, BudgetAbortRerunsSequentially) {
  // When the shared schedule budget bites mid-flight, whether any worker's
  // claim exceeds it is itself order-independent — but the partial tallies
  // are not, so the explorer discards them and reruns sequentially. The
  // result must carry the fallback marker and the sequential run's counts.
  const programs::ProgramSpec* spec = programs::byName("noisy-flags-3x2");
  ASSERT_NE(spec, nullptr);
  const auto sequential = runWith(*spec, "caching-lazy", 1, 200);
  ASSERT_TRUE(sequential.hitScheduleLimit);
  const auto parallel = runWith(*spec, "caching-lazy", 4, 200);
  EXPECT_TRUE(parallel.parallel.fellBackSequential);
  EXPECT_EQ(parallel.parallel.workers, 4);
  expectCountsIdentical(sequential, parallel, "budget-abort fallback");
}

TEST(ParallelMetadata, SequentialRunsCarryNoParallelBlock) {
  const programs::ProgramSpec* spec = programs::byName("disjoint-lock-2");
  ASSERT_NE(spec, nullptr);
  const auto result = runWith(*spec, "caching-lazy", 1, 200);
  EXPECT_EQ(result.parallel.workers, 0);  // 0 => sequential, no v4 block
  EXPECT_TRUE(result.parallel.byWorker.empty());
}

// --- the shardable gate ------------------------------------------------------

TEST(ParallelShardable, OrderSensitiveConfigurationsStaySequential) {
  explore::ExplorerOptions options;
  options.workers = 4;
  EXPECT_TRUE(explore::ParallelExplorer::shardable(options));

  options.workers = 1;
  EXPECT_FALSE(explore::ParallelExplorer::shardable(options));

  options.workers = 4;
  options.stopOnFirstViolation = true;  // "first" is visit-order defined
  EXPECT_FALSE(explore::ParallelExplorer::shardable(options));

  options.stopOnFirstViolation = false;
  options.checkTheorems = true;  // checkers are single-threaded accumulators
  EXPECT_FALSE(explore::ParallelExplorer::shardable(options));
}

TEST(ParallelShardable, FactoryFallsBackForNonShardableKinds) {
  // random and dpor must never shard: the factory hands back their
  // sequential explorers, which report no parallel block at any --workers.
  for (const char* mode : {"random", "dpor"}) {
    const programs::ProgramSpec* spec = programs::byName("disjoint-lock-2");
    ASSERT_NE(spec, nullptr);
    const auto result = runWith(*spec, mode, 8, 200);
    EXPECT_EQ(result.parallel.workers, 0) << mode;
  }
}

}  // namespace
