// Unit tests for the core module: the HBR prefix cache (including its
// concurrency properties), the terminal class maps the theorem-conflict
// counts come from, and race aggregation; and the campaign folds built on
// them: the Figure 2/3 summaries and the §3 counting chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/hbr_cache.hpp"
#include "explore/explorer.hpp"

namespace {

using namespace lazyhb;
using support::hash128;

TEST(HbrCache, CheckAndInsertSemantics) {
  core::HbrCache cache;
  EXPECT_FALSE(cache.checkAndInsert(hash128(1)));  // first sight: miss
  EXPECT_TRUE(cache.checkAndInsert(hash128(1)));   // second: hit => prune
  EXPECT_FALSE(cache.checkAndInsert(hash128(2)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().lookups, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(HbrCache, SilentInsertAndClear) {
  core::HbrCache cache;
  cache.insert(hash128(7));
  EXPECT_TRUE(cache.contains(hash128(7)));
  EXPECT_EQ(cache.stats().lookups, 0u);  // insert() is not a lookup
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(hash128(7)));
}

TEST(HbrCache, SurvivesGrowthAcrossLoadFactor) {
  // Push well past several doublings of the open-addressing table; every
  // fingerprint inserted must remain resident and no phantom member appears.
  core::HbrCache cache;
  constexpr std::uint64_t kCount = 10000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(cache.checkAndInsert(hash128(i)));
  }
  EXPECT_EQ(cache.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(cache.contains(hash128(i))) << i;
  }
  EXPECT_FALSE(cache.contains(hash128(kCount + 1)));
  // The table is the storage: footprint stays within the load factor's
  // slack of one slot per entry (capacity <= entries / 0.7 rounded up to a
  // power of two, i.e. < 4x entries even right after a doubling).
  EXPECT_LT(cache.approxMemoryBytes(), 4 * kCount * sizeof(support::Hash128));
}

TEST(HbrCache, ZeroFingerprintIsAValidKey) {
  // The all-zero hash doubles as the empty-slot sentinel internally; it must
  // still behave as an ordinary key at the interface.
  core::HbrCache cache;
  const support::Hash128 zero{};
  EXPECT_FALSE(cache.contains(zero));
  EXPECT_FALSE(cache.checkAndInsert(zero));
  EXPECT_TRUE(cache.checkAndInsert(zero));
  EXPECT_TRUE(cache.contains(zero));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_FALSE(cache.contains(zero));
}

TEST(HbrCache, CollidingProbeStartsChainCorrectly) {
  // Fingerprints whose low words collide modulo the table size probe
  // linearly; membership must be exact for every member of the cluster.
  core::HbrCache cache;
  std::vector<support::Hash128> cluster;
  for (std::uint64_t i = 0; i < 32; ++i) {
    cluster.push_back(support::Hash128{0x40, 0x1000 + i});  // identical .lo
  }
  for (const auto& h : cluster) EXPECT_FALSE(cache.checkAndInsert(h));
  for (const auto& h : cluster) EXPECT_TRUE(cache.contains(h));
  EXPECT_EQ(cache.size(), cluster.size());
  EXPECT_FALSE(cache.contains(support::Hash128{0x40, 0x9999}));
}

// --- concurrent properties ---------------------------------------------------
//
// Since PR 6 the cache is shared by N exploration workers
// (explore/parallel_explorer.hpp); its contract there is linearizability of
// the miss: for every distinct fingerprint, exactly one concurrent
// checkAndInsert observes the insert and every other call a hit, with no
// fingerprint ever lost. These tests hammer that contract from
// std::thread's (real OS threads — the fiber runtime is not involved, so
// the interleavings are genuinely nondeterministic) and are half of the
// ThreadSanitizer CI leg alongside tests/test_parallel.cpp.

TEST(HbrCacheConcurrent, NoLostInsertAgainstMutexGuardedReference) {
  // Eight threads draw overlapping pseudorandom keys from a small universe,
  // mirroring every draw into a mutex-guarded reference set. Afterwards the
  // lock-free table and the reference must agree exactly, and the misses
  // recorded across all threads must cover each distinct key exactly once.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kUniverse = 2048;
  constexpr int kOpsPerThread = 20000;
  core::HbrCache cache;
  std::mutex referenceMutex;
  std::set<std::uint64_t> reference;
  std::vector<std::vector<std::uint64_t>> missedBy(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        x ^= x << 13;  // xorshift64: cheap, deterministic per thread
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % kUniverse;
        if (!cache.checkAndInsert(hash128(key))) missedBy[t].push_back(key);
        const std::lock_guard<std::mutex> lock(referenceMutex);
        reference.insert(key);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(cache.size(), reference.size());
  for (const std::uint64_t key : reference) {
    EXPECT_TRUE(cache.contains(hash128(key))) << key;
  }
  // Exactly-one-miss per distinct key, across all threads together.
  std::set<std::uint64_t> missed;
  std::size_t totalMisses = 0;
  for (const auto& perThread : missedBy) {
    totalMisses += perThread.size();
    for (const std::uint64_t key : perThread) {
      EXPECT_TRUE(missed.insert(key).second)
          << "fingerprint " << key << " was inserted twice";
    }
  }
  EXPECT_EQ(totalMisses, reference.size());
  EXPECT_EQ(missed, reference);
  // The atomically maintained counters balance: every operation was either
  // the one insert of its key or a hit.
  EXPECT_EQ(cache.stats().lookups,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(cache.stats().insertions, reference.size());
  EXPECT_EQ(cache.stats().hits, cache.stats().lookups - reference.size());
}

TEST(HbrCacheConcurrent, CollidingLoWordsUnderContention) {
  // Every key shares one probe start (identical .lo), so all eight threads
  // fight over a single linear-probe cluster — claim/publish races on the
  // very same slots, plus reads of half-published entries. Each thread
  // walks the key set in a different order to maximize overlap.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 256;
  core::HbrCache cache;
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t local = 0;
      const std::uint64_t stride = 2 * t + 1;  // odd => coprime with 256
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t hi = 0x1000 + (i * stride) % kKeys;
        if (!cache.checkAndInsert(support::Hash128{0x40, hi})) ++local;
      }
      misses.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(misses.load(), kKeys);
  EXPECT_EQ(cache.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(cache.contains(support::Hash128{0x40, 0x1000 + i})) << i;
  }
  EXPECT_FALSE(cache.contains(support::Hash128{0x40, 0x9999}));
}

TEST(HbrCacheConcurrent, GrowthUnderContention) {
  // Disjoint per-thread key ranges big enough to force many doublings of
  // the 512-slot initial table while inserts are in flight: the
  // accessor-epoch drain must let no insert land in a table about to be
  // retired and no fingerprint vanish across a swap.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 8000;
  core::HbrCache cache;
  const std::size_t initialFootprint = cache.approxMemoryBytes();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        EXPECT_FALSE(cache.checkAndInsert(hash128(t * kPerThread + i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(cache.size(), kTotal);
  EXPECT_EQ(cache.stats().insertions, kTotal);
  EXPECT_EQ(cache.stats().hits, 0u);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(cache.contains(hash128(i))) << i;
  }
  EXPECT_FALSE(cache.contains(hash128(kTotal)));
  EXPECT_GT(cache.approxMemoryBytes(), initialFootprint);
}

TEST(HbrCacheConcurrent, SentinelCollidingKeysStayExact) {
  // Fingerprints whose low word collides with the empty (0) or
  // claim-pending (~0) slot sentinels take the out-of-band path; hammered
  // from all threads alongside in-table keys, they must obey the same
  // exactly-one-miss contract and never corrupt the table proper.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerClass = 64;
  constexpr std::uint64_t kBusy = ~std::uint64_t{0};
  core::HbrCache cache;
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < kPerClass; ++i) {
        // Interleave the three key classes so sentinel and normal inserts
        // race each other, not just themselves.
        const std::uint64_t j = (i + t) % kPerClass;
        if (!cache.checkAndInsert(support::Hash128{0, j})) ++local;
        if (!cache.checkAndInsert(support::Hash128{kBusy, j})) ++local;
        if (!cache.checkAndInsert(support::Hash128{j + 1, j})) ++local;
      }
      misses.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(misses.load(), 3 * kPerClass);
  EXPECT_EQ(cache.size(), 3 * kPerClass);
  for (std::uint64_t j = 0; j < kPerClass; ++j) {
    EXPECT_TRUE(cache.contains(support::Hash128{0, j})) << j;
    EXPECT_TRUE(cache.contains(support::Hash128{kBusy, j})) << j;
    EXPECT_TRUE(cache.contains(support::Hash128{j + 1, j})) << j;
  }
  EXPECT_FALSE(cache.contains(support::Hash128{0, kPerClass}));
  EXPECT_FALSE(cache.contains(support::Hash128{kBusy, kPerClass}));
}

/// Record (class, state) pairs, as terminal schedules do.
explore::ClassStates classStates(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& schedules) {
  explore::ClassStates classes;
  for (const auto& [cls, state] : schedules) classes.record(hash128(cls), hash128(state));
  return classes;
}

TEST(ClassStates, AClassCountsOneConflictWhateverItsStatesAndOrder) {
  // Class 1 reaches three states, class 2 one state twice, class 3 two
  // states: two conflicts in every arrival order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> schedules = {
      {1, 100}, {1, 100}, {1, 555}, {1, 999}, {2, 200}, {2, 200}, {3, 300}, {3, 301}};
  int orders = 0;
  do {
    const explore::ClassStates classes = classStates(schedules);
    EXPECT_EQ(classes.size(), 3u);
    EXPECT_EQ(classes.conflicts(), 2u);
    ++orders;
  } while (std::next_permutation(schedules.begin(), schedules.end()));
  EXPECT_EQ(orders, 10080);  // 8! / (2! * 2!) distinct orders
}

TEST(ClassStates, ManyClassesOneStateIsNoConflict) {
  // The lazy-HBR promise in miniature: classes may exceed states, never
  // the other way round per class.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> schedules;
  for (std::uint64_t c = 0; c < 50; ++c) schedules.emplace_back(c, 42);
  const explore::ClassStates classes = classStates(schedules);
  EXPECT_EQ(classes.size(), 50u);
  EXPECT_EQ(classes.conflicts(), 0u);
}

TEST(ClassStates, MergingInEitherOrderGivesTheSameRows) {
  // Two workers' shares of one search: a class conflicted in a alone, one
  // in b alone, one with the same state in both, one in each map only.
  const explore::ClassStates a = classStates({{1, 10}, {1, 11}, {3, 30}, {4, 40}});
  const explore::ClassStates b = classStates({{2, 20}, {2, 21}, {3, 30}, {5, 50}});
  explore::ClassStates ab = a;
  ab.merge(b);
  explore::ClassStates ba = b;
  ba.merge(a);
  const explore::ClassStates whole = classStates(
      {{1, 10}, {1, 11}, {3, 30}, {4, 40}, {2, 20}, {2, 21}, {3, 30}, {5, 50}});
  for (const explore::ClassStates* merged : {&ab, &ba}) {
    EXPECT_EQ(merged->size(), whole.size());
    EXPECT_EQ(merged->conflicts(), whole.conflicts());
  }
  EXPECT_EQ(whole.size(), 5u);
  EXPECT_EQ(whole.conflicts(), 2u);
}

TEST(ClassStates, AClassWhoseFirstStatesDifferAcrossMapsCountsOnce) {
  // Neither map alone saw a conflict; together class 7 reached two states.
  explore::ClassStates a = classStates({{7, 70}, {7, 70}});
  const explore::ClassStates b = classStates({{7, 71}});
  a.merge(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.conflicts(), 1u);
  // A third state, or the same maps merged again, still make one conflict.
  a.merge(classStates({{7, 72}}));
  a.merge(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.conflicts(), 1u);
}

/// One exploration's statistics. The engine counts a value class for every
/// terminal schedule, so the fixtures place value classes between states
/// and lazy HBRs.
ExplorationStats counts(std::uint64_t schedules, std::uint64_t hbrs,
                        std::uint64_t lazyHbrs, std::uint64_t valueClasses,
                        std::uint64_t states) {
  ExplorationStats c;
  c.schedulesExecuted = schedules;
  c.distinctHbrs = hbrs;
  c.distinctLazyHbrs = lazyHbrs;
  c.distinctValueClasses = valueClasses;
  c.distinctStates = states;
  return c;
}

/// A campaign cell: program `id` explored by `explorer`.
campaign::CellResult cell(int id, const char* explorer, const ExplorationStats& stats) {
  campaign::CellResult c;
  c.programId = id;
  c.program = "p" + std::to_string(id);
  c.explorer = explorer;
  static_cast<ExplorationStats&>(c.stats) = stats;
  return c;
}

TEST(Redundancy, Fig2SummaryMatchesPaperArithmetic) {
  // Mirror the paper's aggregate definition on a toy set: two benchmarks
  // below the diagonal (with 100+20 HBRs, 10+2 lazy) and one on it.
  std::vector<campaign::CellResult> cells{
      cell(1, "dpor", counts(1000, 100, 10, 8, 5)),
      cell(2, "dpor", counts(500, 20, 2, 2, 2)),
      cell(3, "dpor", counts(10, 7, 7, 4, 3)),
  };
  const auto programs = campaign::foldCells(std::move(cells), {"dpor"}).programs;
  const auto summary = campaign::foldFigure2(programs);
  EXPECT_EQ(summary.benchmarks, 3);
  EXPECT_EQ(summary.belowDiagonal, 2);
  EXPECT_EQ(summary.hbrsBelow, 120u);
  EXPECT_EQ(summary.lazyHbrsBelow, 12u);
  EXPECT_EQ(summary.redundantHbrs, 108u);
  EXPECT_NEAR(summary.redundantPercent, 90.0, 0.01);
  // No caching pair ran: Figure 3 has no rows.
  EXPECT_EQ(campaign::foldFigure3(programs).benchmarks, 0);
}

TEST(Redundancy, Fig3SummaryCountsDifferingOnly) {
  // Terminal lazy HBRs by regular vs lazy caching: two programs where lazy
  // caching reached more (+15, +3), one tie and one regular win.
  const std::uint64_t regular[] = {10, 7, 3, 9};
  const std::uint64_t lazy[] = {25, 7, 6, 4};
  std::vector<campaign::CellResult> cells;
  for (int p = 0; p < 4; ++p) {
    cells.push_back(cell(p + 1, "caching-full", counts(100, 50, regular[p], 2, 1)));
    cells.push_back(cell(p + 1, "caching-lazy", counts(100, 50, lazy[p], 2, 1)));
  }
  const auto programs =
      campaign::foldCells(std::move(cells), {"caching-full", "caching-lazy"}).programs;
  const auto summary = campaign::foldFigure3(programs);
  EXPECT_EQ(summary.benchmarks, 4);
  EXPECT_EQ(summary.differing, 2);
  EXPECT_EQ(summary.regularWon, 1);
  EXPECT_EQ(summary.extraLazyHbrs, 18u);
  EXPECT_EQ(summary.regularOnDiffering, 13u);
  EXPECT_NEAR(summary.extraPercent, 100.0 * 18.0 / 13.0, 0.01);
  // No dpor cell ran: Figure 2 has no rows.
  EXPECT_EQ(campaign::foldFigure2(programs).benchmarks, 0);
}

TEST(Redundancy, CountingChainDiagnostics) {
  const auto check = [](const char* name, const ExplorationStats& stats) {
    return campaign::checkCountingChain(name, stats, 1000);
  };
  EXPECT_EQ(check("ok", counts(100, 50, 20, 15, 10)), "");
  EXPECT_EQ(check("bad1", counts(100, 50, 60, 15, 10)),
            "bad1: counting chain violated (#lazyHBRs > #HBRs)");
  EXPECT_EQ(check("bad2", counts(100, 200, 20, 15, 10)),
            "bad2: counting chain violated (#HBRs > #schedules)");
  EXPECT_EQ(check("bad3", counts(100, 50, 20, 15, 30)),
            "bad3: counting chain violated (#states > #valueClasses)");
  EXPECT_EQ(check("bad4", counts(2000, 50, 20, 15, 10)),
            "bad4: counting chain violated (#schedules > limit)");
  EXPECT_EQ(check("bad5", counts(100, 50, 20, 25, 10)),
            "bad5: counting chain violated (#valueClasses > #lazyHBRs)");
  // Every terminal schedule records a value class, so states above zero
  // value classes are a bug, not a missing count.
  EXPECT_EQ(check("novalue", counts(100, 50, 20, 0, 10)),
            "novalue: counting chain violated (#states > #valueClasses)");
}

}  // namespace
