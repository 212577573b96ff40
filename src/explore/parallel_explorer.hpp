// lazyhb/explore/parallel_explorer.hpp
//
// Intra-scenario parallel exploration: shard ONE program's schedule tree
// across N OS threads, against one shared concurrent HbrCache — so a prefix
// pruned by any worker is pruned for all. This is the multi-core shape of
// Günther/Laarman's "Dynamic Reductions for Model Checking Concurrent
// Software" applied to the paper's lazy-HBR reduction: workers walk
// disjoint subtrees; the only shared mutable state is the CAS-based
// fingerprint table (core/hbr_cache.hpp) and the work-stealing frontier
// (campaign/work_stealing_pool.hpp).
//
// ## Work decomposition
//
// A frontier job is a subtree of the schedule tree: a forced choice prefix
// plus, at the divergence node, the set of children the job owns. Each pool
// worker owns a full sequential exploration kit — fiber stack pool,
// TraceRecorder, incremental prefix-replay engine — and runs jobs as plain
// depth-first searches whose roots are pinned by the forced prefix. When
// the pool reports hungry workers, a running worker donates the unexplored
// siblings of its *shallowest* splittable node (the largest subtree it can
// give away) as a new job: classic stack splitting, submitted back into the
// same batch.
//
// ## Why counts are byte-identical at any worker count
//
// For a COMPLETE search every count the tool reports is order-independent.
// Equal prefix fingerprints imply equal program states — via equal HBRs for
// the Full/Lazy keys (Theorems 2.1/2.2), and directly for the Value keys
// (the fingerprint *is* the observations plus the visible state) — and the
// fingerprint includes the event count — so the
// quotient of the schedule tree by fingerprint is a DAG in which every
// class has a fixed continuation structure. Whichever concrete prefix
// reaches a class first inserts its fingerprint and expands it; every later
// arrival hits and prunes. The *set* of expanded classes and the *number*
// of arrivals at each are therefore invariant under arrival order, and all
// of schedules / terminal / pruned / violation counts, distinct-fingerprint
// set sizes, total events, and cache lookup / hit / insertion / entry
// counts are sums over that quotient. (What is NOT invariant: which
// concrete schedule witnesses a violation class — the reproducer schedules
// in `violations` may differ between runs in caching mode; their count may
// not.) Violation records merge in sequential DFS order (dfsOrderLess):
// every tally keeps only its maxViolationsKept smallest, so the merged
// cut is the global smallest — for plain DFS exactly the sequential run's
// records.
//
// ## When the schedule budget bites
//
// A schedule *budget* breaks that argument mid-flight: arrival order would
// decide which schedules fit the limit. Whether the budget bites at all is
// order-independent (total arrivals are fixed), so workers claim budget
// slots from one global counter, and the first claim past the limit stops
// every job at its next claim.
//
// Plain DFS then finishes from its leftmost job. Donation always gives
// away *every* unexplored sibling of a job's shallowest split node, so all
// the work a job still has lies to the left of everything it gave away,
// in sequential DFS order (a node's children tried lowest pick first). The
// root job's schedules are therefore exactly the first k of that order. It
// owns its search stack and tally so both outlive the pool run, and its
// stack stops at a node with donated children instead of popping it
// (TreeSearchState::advance), so it still leads to every donated sibling
// after its own subtree has run out. On a budget hit the helpers' tallies
// are dropped, the root's donations are taken back, and the remaining
// limit − k schedules run sequentially into the root's tally. That finish
// runs on the calling thread once the pool has stopped, with a fresh kit
// (no fiber changes OS threads) built after every worker's kit is released
// (staged snapshots stay within the snapshot budget). Counts, race
// reports and the first maxViolationsKept violation records then equal
// DfsExplorer's at the same budget, and `parallel` describes the sharded
// attempt; the root's worker also counts the sequential finish.
//
// A cache-keyed search still reruns from scratch (runSequentialFallback):
// its prune decisions depend on entries other workers inserted, so no
// job's schedules are a prefix of the sequential order.
//
// Strategies that are inherently order-sensitive are not shardable:
// random walks (one RNG stream), DPOR (backtrack sets mutate on visit
// order), stopOnFirstViolation ("first" presumes an order), and the theorem
// checkers (their conflict attribution is visit-ordered). The factory
// (campaign/explorer_spec.hpp) falls back to the sequential explorer for
// those; this class accepts only the shardable configurations.

#pragma once

#include <cstdint>
#include <optional>

#include "explore/explorer.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

class ParallelExplorer final : public Explorer {
 public:
  /// Shards DfsExplorer(options, cacheKey): `cacheKey` is its prefix-cache
  /// key, shared by every worker, or nullopt for plain DFS.
  /// `options.workers` must be >= 2 (use DfsExplorer for 1), and options
  /// must not request stopOnFirstViolation or checkTheorems (the factory
  /// routes those to sequential explorers). `seed` roots the frontier
  /// pool's per-worker victim-selection RNGs.
  ParallelExplorer(ExplorerOptions options,
                   std::optional<trace::Relation> cacheKey, std::uint64_t seed);
  ~ParallelExplorer() override;

  [[nodiscard]] ExplorationResult explore(const Program& program) override;

  [[nodiscard]] const ExplorerOptions& options() const noexcept override {
    return options_;
  }

  /// True when `options` can be sharded at all (the factory's gate):
  /// workers >= 2 and none of the order-sensitive options — no
  /// stop-on-first-violation, no theorem checking, no wall-clock timeout
  /// (which schedules fit a deadline depends on visit order), no progress
  /// tick callback (ticks from racing workers would interleave).
  [[nodiscard]] static bool shardable(const ExplorerOptions& options) noexcept {
    return options.workers >= 2 && !options.stopOnFirstViolation &&
           !options.checkTheorems && options.wallTimeoutSeconds <= 0.0 &&
           !options.onScheduleTick;
  }

 private:
  struct Impl;

  /// Re-run the scenario with DfsExplorer(options, cacheKey) (a
  /// cache-keyed search's budget hit). Returns its result with
  /// parallel.fellBackSequential set.
  [[nodiscard]] ExplorationResult runSequentialFallback(const Program& program);

  ExplorerOptions options_;
  std::optional<trace::Relation> cacheKey_;
  std::uint64_t seed_;
  bool explored_ = false;
};

}  // namespace lazyhb::explore
