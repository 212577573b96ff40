// Golden per-program count snapshots and partial-order fingerprint
// permutation properties.
//
// The hot-path data structures under the recorder (clock arena, SoA event
// storage, flat fingerprint cache) are rewritten for speed from time to
// time; the contract of every such rewrite is that no observable count
// moves. This suite pins that contract in two ways:
//
//   * a golden snapshot: a diverse slice of the corpus explored by the five
//     canonical explorers plus caching-value at a small budget, with every
//     count the campaign reports (schedules / terminal / pruned /
//     violations / distinct HBRs / lazy HBRs / value classes / states)
//     asserted against values captured from the seed implementation (heap
//     VectorClock per event, std::unordered_set cache; value-class counts
//     captured when the observation fingerprint landed). Any drift here
//     means fingerprints or scheduling changed, not just performance.
//
//   * permutation properties: schedules that are linearizations of the same
//     labelled partial order must fingerprint identically through the arena
//     path, and order-sensitive conflicts must still separate.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "explore/dfs_explorer.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
#include "trace/trace_recorder.hpp"

namespace {

using namespace lazyhb;

struct GoldenCell {
  const char* program;
  const char* explorer;
  std::uint64_t schedules;
  std::uint64_t terminal;
  std::uint64_t pruned;
  std::uint64_t violations;
  std::uint64_t hbrs;
  std::uint64_t lazyHbrs;
  std::uint64_t valueClasses;
  std::uint64_t states;
};

// Captured from the seed implementation at scheduleLimit=200, seed=42
// (byte-identical to `lazyhb bench --quick` cells for these programs).
// The slice spans the corpus regimes: disjoint coarse locking (the paper's
// motivating pattern), noisy shared counters, condvar producer/consumer,
// trylock (lazy-erasure boundary), lock-free CAS, deadlocking and
// lost-signal bugs, and semaphore handoff.
const GoldenCell kGolden[] = {
    {"disjoint-lock-2", "dfs", 17, 17, 0, 0, 2, 1, 1, 1},
    {"disjoint-lock-2", "random", 200, 200, 0, 0, 2, 1, 1, 1},
    {"disjoint-lock-2", "dpor", 2, 2, 0, 0, 2, 1, 1, 1},
    {"disjoint-lock-2", "caching-full", 8, 2, 6, 0, 2, 1, 1, 1},
    {"disjoint-lock-2", "caching-lazy", 8, 1, 7, 0, 1, 1, 1, 1},
    {"disjoint-lock-2", "caching-value", 8, 1, 7, 0, 1, 1, 1, 1},
    {"noisy-counter-3x2", "dfs", 200, 200, 0, 0, 18, 3, 2, 2},
    {"noisy-counter-3x2", "random", 200, 200, 0, 0, 155, 32, 14, 3},
    {"noisy-counter-3x2", "dpor", 200, 200, 0, 0, 98, 4, 3, 2},
    {"noisy-counter-3x2", "caching-full", 200, 24, 176, 0, 24, 4, 3, 2},
    {"noisy-counter-3x2", "caching-lazy", 200, 4, 196, 0, 4, 4, 3, 2},
    // caching-value reaches the same two states in 3 terminal schedules
    // where caching-lazy needs 4: the value class merges lazy-distinct
    // writer orders that produce the same counter values.
    {"noisy-counter-3x2", "caching-value", 200, 3, 197, 0, 3, 3, 3, 2},
    {"prodcons-1x1", "dfs", 200, 200, 0, 0, 8, 8, 8, 1},
    {"prodcons-1x1", "random", 200, 200, 0, 0, 8, 8, 8, 1},
    {"prodcons-1x1", "dpor", 8, 8, 0, 0, 8, 8, 8, 1},
    {"prodcons-1x1", "caching-full", 83, 8, 75, 0, 8, 8, 8, 1},
    {"prodcons-1x1", "caching-lazy", 83, 8, 75, 0, 8, 8, 8, 1},
    {"prodcons-1x1", "caching-value", 83, 8, 75, 0, 8, 8, 8, 1},
    {"trylock-vs-lock", "dfs", 7, 7, 0, 0, 3, 3, 3, 3},
    {"trylock-vs-lock", "random", 200, 200, 0, 0, 3, 3, 3, 3},
    {"trylock-vs-lock", "dpor", 4, 4, 0, 0, 3, 3, 3, 3},
    {"trylock-vs-lock", "caching-full", 6, 3, 3, 0, 3, 3, 3, 3},
    {"trylock-vs-lock", "caching-lazy", 6, 3, 3, 0, 3, 3, 3, 3},
    {"trylock-vs-lock", "caching-value", 6, 3, 3, 0, 3, 3, 3, 3},
    // A successful trylock opens a new mutex epoch in the lazy relation
    // (and in the value one, which refines it). A lazy fingerprint that
    // mixes the acquisition in without opening the epoch merges classes
    // that still reach one state each, so the theorem-conflict rows stay 0
    // and only these counts move (random, dpor and caching-full lazy HBRs,
    // caching-lazy value classes).
    {"trylock-fallback-3", "dfs", 200, 200, 0, 0, 4, 4, 4, 2},
    {"trylock-fallback-3", "random", 200, 200, 0, 0, 25, 25, 15, 3},
    {"trylock-fallback-3", "dpor", 63, 56, 7, 0, 30, 30, 18, 3},
    {"trylock-fallback-3", "caching-full", 200, 12, 188, 0, 12, 12, 8, 3},
    {"trylock-fallback-3", "caching-lazy", 200, 12, 188, 0, 12, 12, 8, 3},
    {"trylock-fallback-3", "caching-value", 200, 12, 188, 0, 12, 12, 12, 3},
    {"cas-counter-3", "dfs", 200, 200, 0, 0, 8, 8, 8, 1},
    {"cas-counter-3", "random", 200, 200, 0, 0, 74, 74, 66, 2},
    {"cas-counter-3", "dpor", 200, 200, 0, 0, 80, 80, 66, 2},
    {"cas-counter-3", "caching-full", 200, 34, 166, 0, 34, 34, 31, 2},
    {"cas-counter-3", "caching-lazy", 200, 34, 166, 0, 34, 34, 31, 2},
    // Pruning on value classes steers the search into a different subtree,
    // so the 200-schedule budget lands on a different (not nested) slice:
    // 33 value classes seen here vs 31 within the lazy run's slice.
    {"cas-counter-3", "caching-value", 200, 33, 167, 0, 33, 33, 33, 2},
    {"deadlock-ab", "dfs", 6, 4, 0, 2, 2, 1, 1, 1},
    {"deadlock-ab", "random", 200, 96, 0, 104, 2, 1, 1, 1},
    {"deadlock-ab", "dpor", 2, 1, 0, 1, 1, 1, 1, 1},
    {"deadlock-ab", "caching-full", 6, 2, 2, 2, 2, 1, 1, 1},
    {"deadlock-ab", "caching-lazy", 6, 1, 3, 2, 1, 1, 1, 1},
    {"deadlock-ab", "caching-value", 6, 1, 3, 2, 1, 1, 1, 1},
    {"lost-signal", "dfs", 2, 1, 0, 1, 1, 1, 1, 1},
    {"lost-signal", "random", 200, 94, 0, 106, 1, 1, 1, 1},
    {"lost-signal", "dpor", 2, 1, 0, 1, 1, 1, 1, 1},
    {"lost-signal", "caching-full", 2, 1, 0, 1, 1, 1, 1, 1},
    {"lost-signal", "caching-lazy", 2, 1, 0, 1, 1, 1, 1, 1},
    {"lost-signal", "caching-value", 2, 1, 0, 1, 1, 1, 1, 1},
    {"sem-handoff-1", "dfs", 1, 1, 0, 0, 1, 1, 1, 1},
    {"sem-handoff-1", "random", 200, 200, 0, 0, 1, 1, 1, 1},
    {"sem-handoff-1", "dpor", 1, 1, 0, 0, 1, 1, 1, 1},
    {"sem-handoff-1", "caching-full", 1, 1, 0, 0, 1, 1, 1, 1},
    {"sem-handoff-1", "caching-lazy", 1, 1, 0, 0, 1, 1, 1, 1},
    {"sem-handoff-1", "caching-value", 1, 1, 0, 0, 1, 1, 1, 1},
};

// The TSO golden matrix: the full weak-memory family under
// --memory-model tso across all six explorers, captured from
// `lazyhb bench --quick --memory-model tso` on the same implementation
// that produced kGolden. Store-buffer flushes are scheduler-visible
// transitions here, so these counts pin the TSO schedule-space shape the
// same way kGolden pins the SC one: any drift means the store-buffer
// semantics (staging, forwarding, flush enumeration) changed, not just
// performance. Note the unfenced litmus rows all carry violations — the
// TSO-only bugs — while every fenced row is violation-free.
const GoldenCell kGoldenTso[] = {
    {"sb-unfenced", "dfs", 200, 68, 0, 132, 1, 1, 1, 1},
    {"sb-unfenced", "random", 200, 164, 0, 36, 3, 3, 3, 3},
    {"sb-unfenced", "dpor", 13, 4, 7, 2, 3, 3, 3, 3},
    {"sb-unfenced", "caching-full", 118, 3, 114, 1, 3, 3, 3, 3},
    {"sb-unfenced", "caching-lazy", 118, 3, 114, 1, 3, 3, 3, 3},
    {"sb-unfenced", "caching-value", 118, 3, 114, 1, 3, 3, 3, 3},
    {"sb-fenced", "dfs", 200, 200, 0, 0, 3, 3, 3, 3},
    {"sb-fenced", "random", 200, 200, 0, 0, 3, 3, 3, 3},
    {"sb-fenced", "dpor", 8, 4, 4, 0, 3, 3, 3, 3},
    {"sb-fenced", "caching-full", 53, 3, 50, 0, 3, 3, 3, 3},
    {"sb-fenced", "caching-lazy", 53, 3, 50, 0, 3, 3, 3, 3},
    {"sb-fenced", "caching-value", 53, 3, 50, 0, 3, 3, 3, 3},
    {"dekker-unfenced", "dfs", 200, 42, 0, 158, 1, 1, 1, 1},
    {"dekker-unfenced", "random", 200, 164, 0, 36, 3, 3, 3, 3},
    {"dekker-unfenced", "dpor", 11, 4, 5, 2, 3, 3, 3, 3},
    {"dekker-unfenced", "caching-full", 88, 3, 84, 1, 3, 3, 3, 3},
    {"dekker-unfenced", "caching-lazy", 88, 3, 84, 1, 3, 3, 3, 3},
    {"dekker-unfenced", "caching-value", 88, 3, 84, 1, 3, 3, 3, 3},
    {"dekker-fenced", "dfs", 170, 170, 0, 0, 3, 3, 3, 3},
    {"dekker-fenced", "random", 200, 200, 0, 0, 3, 3, 3, 3},
    {"dekker-fenced", "dpor", 5, 4, 1, 0, 3, 3, 3, 3},
    {"dekker-fenced", "caching-full", 33, 3, 30, 0, 3, 3, 3, 3},
    {"dekker-fenced", "caching-lazy", 33, 3, 30, 0, 3, 3, 3, 3},
    {"dekker-fenced", "caching-value", 33, 3, 30, 0, 3, 3, 3, 3},
    {"peterson-unfenced", "dfs", 200, 81, 0, 119, 5, 5, 2, 2},
    {"peterson-unfenced", "random", 200, 177, 0, 23, 24, 24, 8, 6},
    {"peterson-unfenced", "dpor", 153, 117, 27, 9, 28, 28, 8, 6},
    {"peterson-unfenced", "caching-full", 200, 6, 190, 4, 6, 6, 3, 3},
    {"peterson-unfenced", "caching-lazy", 200, 6, 190, 4, 6, 6, 3, 3},
    {"peterson-unfenced", "caching-value", 200, 4, 192, 4, 4, 4, 4, 4},
    {"peterson-fenced", "dfs", 200, 200, 0, 0, 3, 3, 3, 2},
    {"peterson-fenced", "random", 200, 200, 0, 0, 6, 6, 6, 4},
    {"peterson-fenced", "dpor", 17, 14, 3, 0, 6, 6, 6, 4},
    {"peterson-fenced", "caching-full", 132, 6, 126, 0, 6, 6, 6, 4},
    {"peterson-fenced", "caching-lazy", 132, 6, 126, 0, 6, 6, 6, 4},
    {"peterson-fenced", "caching-value", 132, 6, 126, 0, 6, 6, 6, 4},
    {"seqlock-fenced", "dfs", 200, 200, 0, 0, 5, 5, 5, 1},
    {"seqlock-fenced", "random", 200, 200, 0, 0, 8, 8, 8, 1},
    {"seqlock-fenced", "dpor", 114, 89, 25, 0, 11, 11, 11, 1},
    {"seqlock-fenced", "caching-full", 68, 11, 57, 0, 11, 11, 11, 1},
    {"seqlock-fenced", "caching-lazy", 68, 11, 57, 0, 11, 11, 11, 1},
    {"seqlock-fenced", "caching-value", 68, 11, 57, 0, 11, 11, 11, 1},
    {"store-forwarding", "dfs", 63, 63, 0, 0, 6, 6, 3, 3},
    {"store-forwarding", "random", 200, 200, 0, 0, 6, 6, 3, 3},
    {"store-forwarding", "dpor", 16, 11, 5, 0, 6, 6, 3, 3},
    {"store-forwarding", "caching-full", 26, 6, 20, 0, 6, 6, 3, 3},
    {"store-forwarding", "caching-lazy", 26, 6, 20, 0, 6, 6, 3, 3},
    {"store-forwarding", "caching-value", 21, 3, 18, 0, 3, 3, 3, 3},
};

// The three incremental-replay configurations every golden cell must agree
// under: classic from-scratch exploration, recorder-side prefix elision,
// and (for checkpointable programs on fast-fiber builds) full runtime
// rollback. Byte-identical counts across all three is the correctness bar
// of the incremental engine.
struct ReplayMode {
  const char* label;
  bool incremental;
  bool useProgramCheckpointable;
};
constexpr ReplayMode kReplayModes[] = {
    {"incremental-off", false, false},
    {"recorder-elision", true, false},
    {"runtime-rollback", true, true},
};

void expectGoldenCells(const GoldenCell* cells, std::size_t count,
                       memory::MemoryModel model) {
  for (std::size_t i = 0; i < count; ++i) {
    const GoldenCell& golden = cells[i];
    const programs::ProgramSpec* spec = programs::byName(golden.program);
    ASSERT_NE(spec, nullptr) << golden.program;
    const auto explorerSpec = campaign::parseExplorerSpec(golden.explorer);
    ASSERT_TRUE(explorerSpec.has_value()) << golden.explorer;

    for (const ReplayMode& mode : kReplayModes) {
      explore::ExplorerOptions options;
      options.scheduleLimit = 200;  // the bench --quick budget
      options.incremental = mode.incremental;
      options.checkpointable =
          mode.useProgramCheckpointable && spec->checkpointable;
      options.memoryModel = model;
      auto explorer = explorerSpec->create(options, /*seed=*/42);
      const explore::ExplorationResult result = explorer->explore(spec->body);

      const std::string cell = std::string(golden.program) + " x " +
                               golden.explorer + " [" + mode.label + "]";
      EXPECT_EQ(result.schedulesExecuted, golden.schedules) << cell;
      EXPECT_EQ(result.terminalSchedules, golden.terminal) << cell;
      EXPECT_EQ(result.prunedSchedules, golden.pruned) << cell;
      EXPECT_EQ(result.violationSchedules, golden.violations) << cell;
      EXPECT_EQ(result.distinctHbrs, golden.hbrs) << cell;
      EXPECT_EQ(result.distinctLazyHbrs, golden.lazyHbrs) << cell;
      EXPECT_EQ(result.distinctValueClasses, golden.valueClasses) << cell;
      EXPECT_EQ(result.distinctStates, golden.states) << cell;
    }
  }
}

TEST(GoldenCounts, QuickBudgetSnapshotUnchanged) {
  expectGoldenCells(kGolden, std::size(kGolden), memory::MemoryModel::Sc);
}

TEST(GoldenCounts, TsoQuickBudgetSnapshotUnchanged) {
  expectGoldenCells(kGoldenTso, std::size(kGoldenTso), memory::MemoryModel::Tso);
}

/// Enumerate every schedule of `program`; return the sets of distinct
/// terminal fingerprints under the Full and Lazy relations.
std::pair<std::set<std::pair<std::uint64_t, std::uint64_t>>,
          std::set<std::pair<std::uint64_t, std::uint64_t>>>
terminalFingerprints(const explore::Program& program) {
  trace::TraceRecorder recorder;
  runtime::StackPool pool;
  explore::TreeSearchState state;
  std::set<std::pair<std::uint64_t, std::uint64_t>> full;
  std::set<std::pair<std::uint64_t, std::uint64_t>> lazy;
  for (;;) {
    runtime::Execution exec(runtime::Config{}, pool, &recorder);
    explore::TreeScheduler scheduler(state);
    if (exec.run(program, scheduler) == runtime::Outcome::Terminal) {
      const auto f = recorder.fingerprint(trace::Relation::Full);
      const auto l = recorder.fingerprint(trace::Relation::Lazy);
      full.emplace(f.lo, f.hi);
      lazy.emplace(l.lo, l.hi);
    }
    if (!state.advance()) break;
  }
  return {full, lazy};
}

TEST(PermutedLinearizations, EqualPartialOrdersYieldEqualFingerprints) {
  // Two threads touching disjoint variables: every interleaving is a
  // linearization of one and the same labelled partial order, so the whole
  // schedule space must collapse to a single fingerprint per relation.
  const auto [full, lazy] = terminalFingerprints([] {
    Shared<int> x{0, "x"};
    Shared<int> y{0, "y"};
    auto t = spawn([&] {
      x.store(1);
      x.store(2);
    });
    y.store(1);
    y.store(2);
    t.join();
  });
  EXPECT_EQ(full.size(), 1u);
  EXPECT_EQ(lazy.size(), 1u);
}

TEST(PermutedLinearizations, ConflictOrdersStillSeparate) {
  // Same shape but with a genuine write-write conflict: the interleavings
  // now realise different partial orders, which must not collapse (three
  // conflict-edge arrangements of two writes against two writes... the
  // exact class count is the recorder's business; it must exceed one).
  const auto [full, lazy] = terminalFingerprints([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] {
      x.store(1);
      x.store(2);
    });
    x.store(3);
    x.store(4);
    t.join();
  });
  EXPECT_GT(full.size(), 1u);
  EXPECT_GT(lazy.size(), 1u);
  // No mutexes involved: the lazy relation erases nothing here, so the
  // class structure must coincide.
  EXPECT_EQ(full.size(), lazy.size());
}

}  // namespace
