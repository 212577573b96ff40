// lazyhb/stats.hpp — the statistics every exploration reports.
//
// One struct carries them all. The engine's result type extends it, and the
// public reports (TestReport, SuiteCell, SuiteReport::totals) carry it, so
// each statistic is declared once and copied whole. How a statistic is
// named in a report, which report block holds it, whether reports compare
// it and how it folds across explorations is declared by the statistics
// table next to the engine's result type (src/explore/explorer.hpp); the
// report writers and readers, the merger, the folds and the CSV columns
// all derive from that table.

#pragma once

#include <cstdint>

namespace lazyhb {

/// Snapshot of a strategy's HBR prefix cache at the end of the search.
/// All-zero with enabled == false for strategies that consult no cache.
struct CacheStats {
  bool enabled = false;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;         ///< prefixes pruned as already seen
  std::uint64_t insertions = 0;
  std::uint64_t entries = 0;      ///< fingerprints resident at the end
  std::uint64_t approxBytes = 0;  ///< approximate heap footprint (a growth signal)
};

/// Checkpoint economics of incremental prefix replay. All-zero with
/// enabled == false when incremental mode is off. Stage and eviction
/// placement is pure performance policy, so reports never compare these.
struct CheckpointStats {
  bool enabled = false;
  std::uint64_t stages = 0;       ///< distinct depths staged over the run
  std::uint64_t bytesStaged = 0;  ///< sum of approximate bytes at staging time
  std::uint64_t evictions = 0;    ///< stages dropped to honour the byte budget
  /// Divergences where an evicted stage would have served better than the
  /// deepest surviving one (the budget's cost: extra replay distance).
  std::uint64_t replayFallbacks = 0;
};

/// The statistics of one exploration (or, in totals, of several folded).
struct ExplorationStats {
  std::uint64_t schedulesExecuted = 0;
  std::uint64_t terminalSchedules = 0;
  std::uint64_t prunedSchedules = 0;  ///< abandoned mid-run (cache/sleep set)
  std::uint64_t violationSchedules = 0;
  // Distinct terminal fingerprints. The extended §3 chain reads
  // distinctStates <= distinctValueClasses <= distinctLazyHbrs <=
  // distinctHbrs <= schedulesExecuted.
  std::uint64_t distinctHbrs = 0;
  std::uint64_t distinctLazyHbrs = 0;
  /// Same operations, same values observed, same visible state.
  std::uint64_t distinctValueClasses = 0;
  std::uint64_t distinctStates = 0;
  // Soundness: terminal classes of the Full, Lazy and Value relations whose
  // schedules reached two or more distinct states. Theorems 2.1/2.2 and
  // value soundness say each is 0; anything else is a counterexample or a
  // fingerprint collision.
  std::uint64_t hbrConflicts = 0;
  std::uint64_t lazyHbrConflicts = 0;
  std::uint64_t valueConflicts = 0;
  std::uint64_t totalEvents = 0;  ///< logical events, elided ones included
  /// Prefix events never re-executed thanks to runtime rollback. Executed
  /// events are totalEvents - eventsElided.
  std::uint64_t eventsElided = 0;
  /// Prefix events re-executed to reach a divergence point.
  std::uint64_t eventsReplayed = 0;
  bool complete = false;  ///< search space fully explored
  bool hitScheduleLimit = false;
  CacheStats cacheStats;
  CheckpointStats checkpointStats;
  // TSO store-buffer activity (all zero under SC): flush and fence events
  // committed across all schedules, and the deepest any thread's buffer got.
  std::uint64_t flushEvents = 0;
  std::uint64_t fenceEvents = 0;
  std::uint64_t maxBufferedStores = 0;
};

}  // namespace lazyhb
