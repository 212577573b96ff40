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
//     total, a cache-keyed budget hit reruns sequentially);
//   * the plain-DFS budget hit, which cuts the ranked jobs' schedules at
//     the budget: its counts, violation records and race reports equal the
//     sequential run's at the same budget, at every budget of three
//     programs, whichever job the cut falls in;
//   * violation records cut in sequential DFS order on a program whose
//     violations mix deadlocks and assertion failures;
//   * leased crews: a sequence of explorations on the same parked workers
//     and kits, leases taken from two threads at once and from a campaign,
//     per-exploration steal counts, and a child forked after a sharded run.
//
// The suite is also half of the ThreadSanitizer CI leg (with test_core) —
// under LAZYHB_SANITIZE=thread these same runs double as race hunts.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "explore/explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
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

/// Explore `program` under `mode` with `options`, through the same
/// ExplorerSpec factory every production consumer uses (so workers >= 2 on a
/// shardable mode really does construct a ParallelExplorer).
explore::ExplorationResult runWithOptions(const explore::Program& program,
                                          const std::string& mode,
                                          const explore::ExplorerOptions& options) {
  const auto explorerSpec = campaign::parseExplorerSpec(mode);
  EXPECT_TRUE(explorerSpec.has_value()) << mode;
  auto explorer = explorerSpec->create(options, /*seed=*/42);
  return explorer->explore(program);
}

explore::ExplorationResult runWith(const programs::ProgramSpec& spec,
                                   const std::string& mode, int workers,
                                   std::uint64_t scheduleLimit) {
  explore::ExplorerOptions options;
  options.scheduleLimit = scheduleLimit;
  options.workers = workers;
  return runWithOptions(spec.body, mode, options);
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

/// Assert `parallel` reports the same violation records and race reports
/// as `sequential`, in the same order.
void expectSameFindings(const explore::ExplorationResult& sequential,
                        const explore::ExplorationResult& parallel,
                        const std::string& label) {
  ASSERT_EQ(parallel.violations.size(), sequential.violations.size()) << label;
  for (std::size_t i = 0; i < sequential.violations.size(); ++i) {
    const explore::ViolationRecord& want = sequential.violations[i];
    const explore::ViolationRecord& got = parallel.violations[i];
    EXPECT_EQ(got.kind, want.kind) << label << " violation " << i;
    EXPECT_EQ(got.message, want.message) << label << " violation " << i;
    EXPECT_EQ(got.schedule, want.schedule) << label << " violation " << i;
  }
  ASSERT_EQ(parallel.races.size(), sequential.races.size()) << label;
  for (std::size_t i = 0; i < sequential.races.size(); ++i) {
    const trace::RaceReport& want = sequential.races[i];
    const trace::RaceReport& got = parallel.races[i];
    EXPECT_EQ(got.objectUid, want.objectUid) << label << " race " << i;
    EXPECT_EQ(got.objectName, want.objectName) << label << " race " << i;
    EXPECT_EQ(got.firstEvent, want.firstEvent) << label << " race " << i;
    EXPECT_EQ(got.secondEvent, want.secondEvent) << label << " race " << i;
  }
}

/// Assert a budget-bitten sharded dfs run was cut from its jobs: the
/// fallback marker is set and the worker shares describe the sharded
/// attempt plus any rerun of the job the cut fell in.
void expectFinishedAtTheCut(const explore::ExplorationResult& parallel,
                            int workers, const std::string& label) {
  EXPECT_TRUE(parallel.hitScheduleLimit) << label;
  EXPECT_FALSE(parallel.complete) << label;
  EXPECT_TRUE(parallel.parallel.fellBackSequential) << label;
  EXPECT_EQ(parallel.parallel.workers, workers) << label;
  EXPECT_GE(parallel.parallel.frontierJobs, 1u) << label;
  ASSERT_EQ(parallel.parallel.byWorker.size(), static_cast<std::size_t>(workers))
      << label;
  std::uint64_t visited = 0;
  for (const explore::WorkerShare& share : parallel.parallel.byWorker) {
    visited += share.schedulesVisited;
  }
  EXPECT_GE(visited, parallel.schedulesExecuted) << label;
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

TEST(ParallelMetadata, StealsAndSharesArePerExploration) {
  // Explorations lease parked pools, and every one reports its own
  // handoffs (a job run by a worker other than the one that split it off;
  // never the root job) and its own visits.
#if defined(LAZYHB_TSAN_BUILD)
  const programs::ProgramSpec* spec = programs::byName("racy-counter-3");
#else
  const programs::ProgramSpec* spec = programs::byName("noisy-flags-3x2");
#endif
  ASSERT_NE(spec, nullptr);
  for (int run = 0; run < 2; ++run) {
    const auto result = runWith(*spec, "caching-lazy", 4, 20000);
    ASSERT_TRUE(result.complete) << run;
    std::uint64_t steals = 0;
    std::uint64_t visited = 0;
    for (const explore::WorkerShare& share : result.parallel.byWorker) {
      steals += share.tasksStolen;
      visited += share.schedulesVisited;
    }
    EXPECT_LE(steals, result.parallel.frontierJobs - 1) << run;
    EXPECT_EQ(visited, result.schedulesExecuted) << run;
  }
}

TEST(ParallelMetadata, BudgetAbortRerunsSequentially) {
  // When the shared schedule budget bites mid-flight, whether any worker's
  // claim exceeds it is itself order-independent — but a cache-keyed
  // search's partial tallies are not a prefix of the sequential run, so the
  // explorer discards them and reruns sequentially. The result must carry
  // the fallback marker, the sequential run's counts, and the discarded
  // attempt's worker shares: one per worker, summing to the budget.
  const programs::ProgramSpec* spec = programs::byName("noisy-flags-3x2");
  ASSERT_NE(spec, nullptr);
  const auto sequential = runWith(*spec, "caching-lazy", 1, 200);
  ASSERT_TRUE(sequential.hitScheduleLimit);
  const auto parallel = runWith(*spec, "caching-lazy", 4, 200);
  EXPECT_TRUE(parallel.parallel.fellBackSequential);
  EXPECT_EQ(parallel.parallel.workers, 4);
  EXPECT_GE(parallel.parallel.frontierJobs, 1u);
  ASSERT_EQ(parallel.parallel.byWorker.size(), 4u);
  std::uint64_t discarded = 0;
  for (const explore::WorkerShare& share : parallel.parallel.byWorker) {
    discarded += share.schedulesVisited;
  }
  EXPECT_EQ(discarded, 200u);
  expectCountsIdentical(sequential, parallel, "budget-abort fallback");
}

// --- the plain-dfs budget hit --------------------------------------------------

TEST(ParallelBudget, DfsBudgetHitFinishesFromTheRootJob) {
  // A budget-bitten plain dfs search keeps the first `limit` schedules of
  // sequential DFS order from whichever jobs ran them. Counts, violation
  // records (in order) and race reports must equal the sequential run's at
  // the same budget, under both memory models.
  struct Case {
    const char* program;
    memory::MemoryModel model;
  };
#if defined(LAZYHB_TSAN_BUILD)
  const Case cases[] = {{"wronglock-3", memory::MemoryModel::Sc},
                        {"dekker-unfenced", memory::MemoryModel::Tso}};
  constexpr std::uint64_t kLimit = 40;
#else
  const Case cases[] = {{"wronglock-3", memory::MemoryModel::Sc},
                        {"dining-deadlock-3", memory::MemoryModel::Sc},
                        {"noisy-counter-3x2", memory::MemoryModel::Sc},
                        {"peterson-unfenced", memory::MemoryModel::Tso},
                        {"wronglock-3", memory::MemoryModel::Tso}};
  constexpr std::uint64_t kLimit = 2000;
#endif
  for (const Case& c : cases) {
    const programs::ProgramSpec* spec = programs::byName(c.program);
    ASSERT_NE(spec, nullptr) << c.program;
    explore::ExplorerOptions options;
    options.scheduleLimit = kLimit;
    options.detectRaces = true;
    options.memoryModel = c.model;
    const auto sequential = runWithOptions(spec->body, "dfs", options);
    ASSERT_TRUE(sequential.hitScheduleLimit) << c.program;
    ASSERT_TRUE(sequential.foundViolation() || !sequential.races.empty())
        << c.program;
    for (const int workers : kMatrixWorkerCounts) {
      options.workers = workers;
      const auto parallel = runWithOptions(spec->body, "dfs", options);
      const std::string label = std::string(c.program) + " " +
                                memory::memoryModelName(c.model) + " @" +
                                std::to_string(workers) + " workers";
      expectCountsIdentical(sequential, parallel, label);
      expectSameFindings(sequential, parallel, label);
      expectFinishedAtTheCut(parallel, workers, label);
    }
  }
}

TEST(ParallelBudget, BudgetOneBelowCompleteFlakinessLoop) {
  // One schedule short of the complete tree, every job but the last often
  // runs out before the cut is known, and the last one has run its whole
  // range: the cut then falls one schedule before its end.
#if defined(LAZYHB_TSAN_BUILD)
  constexpr int kIterations = 6;
  const char* const kProgram = "airline-2";  // 75 schedules
  constexpr memory::MemoryModel kModel = memory::MemoryModel::Sc;
#else
  constexpr int kIterations = 20;
  const char* const kProgram = "dekker-unfenced";  // 1,214 schedules
  constexpr memory::MemoryModel kModel = memory::MemoryModel::Tso;
#endif
  const programs::ProgramSpec* spec = programs::byName(kProgram);
  ASSERT_NE(spec, nullptr);
  explore::ExplorerOptions options;
  options.detectRaces = true;
  options.memoryModel = kModel;
  const auto complete = runWithOptions(spec->body, "dfs", options);
  ASSERT_TRUE(complete.complete);
  options.scheduleLimit = complete.schedulesExecuted - 1;
  const auto sequential = runWithOptions(spec->body, "dfs", options);
  ASSERT_TRUE(sequential.hitScheduleLimit);
  for (int i = 0; i < kIterations; ++i) {
    options.workers = 2 << (i % 3);  // 2, 4, 8, 2, ...
    const auto parallel = runWithOptions(spec->body, "dfs", options);
    const std::string label = "iteration " + std::to_string(i) + " @" +
                              std::to_string(options.workers) + " workers";
    expectCountsIdentical(sequential, parallel, label);
    expectSameFindings(sequential, parallel, label);
    expectFinishedAtTheCut(parallel, options.workers, label);
  }
}

TEST(ParallelBudget, EveryBudgetMatchesSequentialDfs) {
  // The cut at every budget: from one schedule to one past the complete
  // tree, a sharded dfs reports what DfsExplorer reports — counts,
  // complete / hit_schedule_limit, violation records in order and race
  // reports — whichever job the cut falls in and whether that job ran past
  // it. The SC programs sweep every budget; the TSO one 40 spread over it.
  struct Case {
    const char* program;
    memory::MemoryModel model;
    std::uint64_t budgets;  ///< 0: every budget
  };
#if defined(LAZYHB_TSAN_BUILD)
  // Five budgets: every sharded exploration leaves TSan fiber state behind
  // (see the top of this file), and all 76 would take the binary to ~5 GB.
  const Case cases[] = {{"airline-2", memory::MemoryModel::Sc, 5}};  // 75 schedules
#else
  const Case cases[] = {{"airline-2", memory::MemoryModel::Sc, 0},     // 75 schedules
                        {"wronglock-2", memory::MemoryModel::Sc, 0},   // 251
                        {"dekker-unfenced", memory::MemoryModel::Tso, 40}};  // 1,214
#endif
  for (const Case& c : cases) {
    const programs::ProgramSpec* spec = programs::byName(c.program);
    ASSERT_NE(spec, nullptr) << c.program;
    explore::ExplorerOptions options;
    options.detectRaces = true;
    options.memoryModel = c.model;
    const std::uint64_t complete = runWithOptions(spec->body, "dfs", options).schedulesExecuted;
    const std::uint64_t budgets = c.budgets == 0 ? complete + 1 : c.budgets;
    for (std::uint64_t i = 0; i < budgets; ++i) {
      // Budget 1 first and one past the complete tree last.
      options.scheduleLimit = 1 + i * complete / (budgets - 1);
      options.workers = 1;
      const auto sequential = runWithOptions(spec->body, "dfs", options);
      for (const int workers : kMatrixWorkerCounts) {
        options.workers = workers;
        const auto parallel = runWithOptions(spec->body, "dfs", options);
        const std::string label = std::string(c.program) + " budget " +
                                  std::to_string(options.scheduleLimit) + " @" +
                                  std::to_string(workers) + " workers";
        expectCountsIdentical(sequential, parallel, label);
        expectSameFindings(sequential, parallel, label);
        if (sequential.hitScheduleLimit) {
          expectFinishedAtTheCut(parallel, workers, label);
        } else {
          EXPECT_FALSE(parallel.parallel.fellBackSequential) << label;
        }
      }
    }
  }
}

/// Deadlocks and lost updates in one program: two threads each bump a
/// shared counter unlocked, then take the same two mutexes in opposite
/// orders. Its violation kinds interleave in DFS order, so any cut that
/// orders records by kind or message keeps different ones.
void deadlockOrLostUpdate() {
  Mutex a("a");
  Mutex b("b");
  Shared<int> counter{0, "counter"};
  auto t = spawn([&] {
    counter.store(counter.load() + 1);
    LockGuard first(b);
    LockGuard second(a);
  });
  counter.store(counter.load() + 1);
  {
    LockGuard first(a);
    LockGuard second(b);
  }
  t.join();
  checkAlways(counter.load() == 2, "no update lost");
}

TEST(ParallelBudget, ViolationRecordsAreTheFirstInDfsOrder) {
  // Every tally keeps only its maxViolationsKept smallest records in DFS
  // order, so the merged cut is exactly the sequential run's records, in
  // the same order, whatever kinds and messages they carry.
  explore::ExplorerOptions options;
  const auto sequential = runWithOptions(deadlockOrLostUpdate, "dfs", options);
  ASSERT_TRUE(sequential.complete);
  ASSERT_GT(sequential.violationSchedules, options.maxViolationsKept);
  ASSERT_EQ(sequential.violations.size(), options.maxViolationsKept);
  bool deadlock = false;
  bool assertion = false;
  for (const explore::ViolationRecord& v : sequential.violations) {
    deadlock = deadlock || v.kind == runtime::Outcome::Deadlock;
    assertion = assertion || v.kind == runtime::Outcome::AssertionFailure;
  }
  ASSERT_TRUE(deadlock && assertion);
  for (const int workers : kMatrixWorkerCounts) {
    options.workers = workers;
    const auto parallel = runWithOptions(deadlockOrLostUpdate, "dfs", options);
    const std::string label = std::to_string(workers) + " workers";
    expectCountsIdentical(sequential, parallel, label);
    expectSameFindings(sequential, parallel, label);
  }
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

// --- leased crews ----------------------------------------------------------------

/// One exploration of a lease sequence.
struct LeaseCase {
  const char* program;
  const char* mode;
  memory::MemoryModel model;
  std::uint64_t limit;
  bool detectRaces;
  std::uint64_t snapshotBudget;  ///< 0: unlimited
  bool incremental = true;
};

explore::ExplorerOptions leaseOptions(const LeaseCase& c, int workers) {
  const programs::ProgramSpec* spec = programs::byName(c.program);
  EXPECT_NE(spec, nullptr) << c.program;
  explore::ExplorerOptions options;
  options.scheduleLimit = c.limit;
  options.memoryModel = c.model;
  options.detectRaces = c.detectRaces;
  options.snapshotBudgetBytes = c.snapshotBudget;
  options.incremental = c.incremental;
  options.checkpointable = spec != nullptr && spec->checkpointable;
  options.workers = workers;
  return options;
}

std::string leaseLabel(const LeaseCase& c, int workers) {
  return std::string(c.program) + " x " + c.mode + " " +
         memory::memoryModelName(c.model) + " limit " + std::to_string(c.limit) +
         " @" + std::to_string(workers) + " workers";
}

/// Assert a sharded result equals the sequential one: contract counts, and
/// for plain dfs the violation records in order and the race reports (a
/// cache-keyed search promises only their number, see the header).
void expectLeaseResultMatches(const LeaseCase& c,
                              const explore::ExplorationResult& sequential,
                              const explore::ExplorationResult& parallel,
                              const std::string& label) {
  expectCountsIdentical(sequential, parallel, label);
  EXPECT_EQ(parallel.complete, sequential.complete) << label;
  EXPECT_EQ(parallel.hitScheduleLimit, sequential.hitScheduleLimit) << label;
  if (std::string(c.mode) == "dfs") expectSameFindings(sequential, parallel, label);
}

/// Run `cases` in order, each sharded at `workers` and sequentially. From
/// one thread every sharded run leases the crew the previous one parked.
void runLeaseSequence(const std::vector<LeaseCase>& cases, int workers) {
  for (const LeaseCase& c : cases) {
    const programs::ProgramSpec* spec = programs::byName(c.program);
    ASSERT_NE(spec, nullptr) << c.program;
    const auto sequential = runWithOptions(spec->body, c.mode, leaseOptions(c, 1));
    const auto parallel = runWithOptions(spec->body, c.mode, leaseOptions(c, workers));
    expectLeaseResultMatches(c, sequential, parallel, leaseLabel(c, workers));
  }
}

constexpr std::uint64_t kUnlimited = 0;
constexpr std::uint64_t kTinyBudget = 4096;

TEST(ParallelLease, ReusedKitsMatchSequentialDfs) {
  // Each exploration reconfigures the kits the previous one quiesced: race
  // detection, replay mode, checkpointability and the per-worker snapshot
  // budget all change between neighbours. It opens with the pair that
  // breaks a kit reused without disarming its recorder: a budget-bitten
  // dfs on non-checkpointable wronglock-3 leaves recorders armed to skip a
  // replayed prefix, and caching-full on checkpointable disjoint-lock-3x2
  // follows on the same kits.
  using memory::MemoryModel;
#if defined(LAZYHB_TSAN_BUILD)
  const std::vector<LeaseCase> cases = {
      {"wronglock-3", "dfs", MemoryModel::Sc, 40, true, kUnlimited},
      {"disjoint-lock-2", "caching-full", MemoryModel::Sc, 200, false, kUnlimited},
      {"dekker-unfenced", "dfs", MemoryModel::Tso, 40, false, kTinyBudget},
      {"racy-counter-3", "caching-lazy", MemoryModel::Sc, 60, true, kTinyBudget},
      {"airline-2", "dfs", MemoryModel::Sc, 75, true, kTinyBudget, false},
      {"disjoint-lock-2", "caching-value", MemoryModel::Tso, 200, false, kUnlimited},
  };
#else
  const std::vector<LeaseCase> cases = {
      {"wronglock-3", "dfs", MemoryModel::Sc, 2000, true, kUnlimited},
      {"disjoint-lock-3x2", "caching-full", MemoryModel::Sc, 100'000, false, kUnlimited},
      {"disjoint-lock-3", "dfs", MemoryModel::Tso, 100'000, true, kTinyBudget},
      {"wronglock-3", "dfs", MemoryModel::Tso, 2000, false, kTinyBudget},
      {"noisy-flags-3x2", "caching-lazy", MemoryModel::Sc, 200, true, kUnlimited},
      {"noisy-counter-3x2", "caching-lazy", MemoryModel::Tso, 100'000, false, kTinyBudget},
      {"airline-2", "dfs", MemoryModel::Sc, 40, true, kTinyBudget, false},
      {"prodcons-1x1", "caching-value", MemoryModel::Sc, 100'000, true, kUnlimited},
      {"dekker-unfenced", "dfs", MemoryModel::Tso, 100'000, true, kUnlimited},
      {"wronglock-3", "dfs", MemoryModel::Sc, 2000, false, kTinyBudget},
      {"disjoint-lock-3x2", "caching-full", MemoryModel::Sc, 100'000, true, kTinyBudget},
  };
#endif
  bool checkpointable = false;
  bool reexecuted = false;
  for (const LeaseCase& c : cases) {
    const bool spec = programs::byName(c.program)->checkpointable;
    checkpointable = checkpointable || spec;
    reexecuted = reexecuted || !spec;
  }
  ASSERT_TRUE(checkpointable && reexecuted);
  runLeaseSequence(cases, 4);
}

TEST(ParallelLease, ConcurrentLeasesMatchSequentialCounts) {
  // Two threads shard at once, so they lease two crews of each size; the
  // campaign's two jobs lease their own. Every count must still equal the
  // sequential one.
  using memory::MemoryModel;
#if defined(LAZYHB_TSAN_BUILD)
  const std::vector<LeaseCase> left = {
      {"wronglock-3", "dfs", MemoryModel::Sc, 40, true, kUnlimited},
      {"disjoint-lock-2", "caching-lazy", MemoryModel::Sc, 200, false, kTinyBudget},
  };
  const std::vector<LeaseCase> right = {
      {"airline-2", "dfs", MemoryModel::Sc, 75, true, kTinyBudget},
      {"racy-counter-3", "caching-full", MemoryModel::Sc, 60, false, kUnlimited},
  };
  constexpr std::uint64_t kCampaignLimit = 40;
#else
  const std::vector<LeaseCase> left = {
      {"wronglock-3", "dfs", MemoryModel::Sc, 2000, true, kUnlimited},
      {"disjoint-lock-3x2", "caching-full", MemoryModel::Sc, 100'000, false, kTinyBudget},
      {"dekker-unfenced", "dfs", MemoryModel::Tso, 100'000, false, kUnlimited},
  };
  const std::vector<LeaseCase> right = {
      {"noisy-counter-3x2", "caching-lazy", MemoryModel::Tso, 100'000, true, kUnlimited},
      {"airline-2", "dfs", MemoryModel::Sc, 40, true, kTinyBudget},
      {"wronglock-3", "dfs", MemoryModel::Tso, 2000, false, kTinyBudget},
  };
  constexpr std::uint64_t kCampaignLimit = 150;
#endif
  for (const int workers : {2, 4}) {
    std::thread a([&] { runLeaseSequence(left, workers); });
    std::thread b([&] { runLeaseSequence(right, workers); });
    a.join();
    b.join();
  }

  campaign::CampaignOptions options;
  options.explorers = *campaign::parseExplorerList("");
  for (const char* name : {"disjoint-lock-3", "wronglock-3", "airline-2", "lost-signal"}) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    options.programs.push_back(spec);
  }
  options.explorer.scheduleLimit = kCampaignLimit;
  options.explorer.detectRaces = true;
  options.jobs = 1;
  const auto sequential = campaign::runCampaign(options);
  options.jobs = 2;
  options.explorer.workers = 2;
  const auto sharded = campaign::runCampaign(options);
  ASSERT_EQ(sharded.cells.size(), sequential.cells.size());
  for (std::size_t i = 0; i < sequential.cells.size(); ++i) {
    const campaign::CellResult& want = sequential.cells[i];
    const campaign::CellResult& got = sharded.cells[i];
    const std::string label = want.program + " x " + want.explorer;
    EXPECT_EQ(got.program, want.program) << label;
    EXPECT_EQ(got.explorer, want.explorer) << label;
    expectSameContractStats(want.stats, got.stats, label);
  }
}

TEST(ParallelLease, ForkedChildLeasesNoParentCrew) {
#if defined(LAZYHB_TSAN_BUILD)
  GTEST_SKIP() << "ThreadSanitizer does not start threads in a child forked "
                  "from a multithreaded process";
#endif
  // The parent parks a crew of 4 here. The child inherits the idle list but
  // none of the crew's threads, so a lease of it would wait in run()
  // forever; the child must build its own.
  const programs::ProgramSpec* spec = programs::byName("disjoint-lock-3");
  ASSERT_NE(spec, nullptr);
  const auto sequential = runWith(*spec, "dfs", 1, 100'000);
  const auto parent = runWith(*spec, "dfs", 4, 100'000);
  expectCountsIdentical(sequential, parent, "parent");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const auto result = runWith(*spec, "dfs", 4, 100'000);
    _exit(result.complete && result.schedulesExecuted == sequential.schedulesExecuted ? 0 : 1);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  pid_t waited = 0;
  while ((waited = waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (waited == 0) {
    kill(child, SIGKILL);
    (void)waitpid(child, &status, 0);
    FAIL() << "the forked child's sharded exploration did not finish in 60 s";
  }
  ASSERT_EQ(waited, child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
