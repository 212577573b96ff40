// lazyhb/explore/parallel_explorer.hpp
//
// Intra-scenario parallel exploration: shard ONE program's schedule tree
// across N OS threads, against one shared concurrent HbrCache — so a prefix
// pruned by any worker is pruned for all. This is the multi-core shape of
// Günther/Laarman's "Dynamic Reductions for Model Checking Concurrent
// Software" applied to the paper's lazy-HBR reduction: workers walk
// disjoint ranges of the tree; the only shared mutable state is the
// CAS-based fingerprint table (core/hbr_cache.hpp), the worker pool's task
// queue (support/worker_pool.hpp) and the ranked job set.
//
// ## Work decomposition
//
// A frontier job is a contiguous range of sequential DFS order (a node's
// children tried lowest pick first): a copy of a search stack whose
// unexplored siblings are the range. Each pool worker uses its own
// ExplorationKit (explore/explorer.hpp) — fiber stack pool, TraceRecorder,
// incremental prefix-replay engine — and runs jobs as plain depth-first
// searches from their stacks; each job owns its stack and its tally. When
// the pool reports hungry workers, a running job splits its range at some
// depth d: one new job gets every unexplored sibling at depth d and above,
// and the donor keeps the rest of its current subtree below d, which
// precedes everything it gave away. Split at the shallowest node with
// unexplored siblings — the default — this is classic stack splitting: the
// largest subtree the job can part with. Jobs are keyed by the choice path
// to their first schedule; the explorer keeps the queued ones in key order
// and every pool task takes the leftmost, so queued work runs left first.
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
// counts are sums over that quotient. The theorem-conflict counts are
// exact too: whether a class reached two or more states depends only on
// the set of schedules that reached it (explore::ClassStates). (What is NOT invariant: which
// concrete schedule witnesses a violation class — the reproducer schedules
// in `violations` may differ between runs in caching mode; their count may
// not.) Violation records merge in sequential DFS order (dfsOrderLess):
// every tally keeps only its maxViolationsKept smallest, so the merged
// cut is the global smallest — for plain DFS exactly the sequential run's
// records. Plain DFS folds its jobs' race reports in key order, keeping
// each object's leftmost report: the sequential run's reports, in its
// order.
//
// ## When the schedule budget bites
//
// A schedule *budget* breaks that argument mid-flight: arrival order would
// decide which schedules fit the limit. Plain DFS therefore cuts by rank.
//
// *Ranges.* A job's schedules are the first ones of its range, because
// every split gives away only schedules that come after everything the
// donor keeps. The jobs' ranges tile DFS order in key order, so the first
// `limit` schedules are the ranked prefix: the exhausted jobs in key order
// up to the leftmost unexhausted job (the boundary job), then the boundary
// job's own schedules. Every job left of the boundary has run out, so the
// boundary job alone knows its rank exactly.
//
// *Split rule.* Only the boundary job knows how much budget is left: the
// limit minus its rank. When a worker is hungry, the boundary job prices
// each unexplored sibling like the subtree under its node's current child,
// extrapolated from the enabled-set sizes down its stack (estimateRange).
// If the subtree a shallowest split would keep is estimated to reach the
// cut, that split would give away only schedules past the cut; the budget
// then bites. The boundary job splits instead as shallow as still keeps a
// range within its share of the budget left (left / workers), and from
// then on no other job splits: hungry workers get only what a boundary
// job gives away, which starts before the estimated cut. Until then, and
// in every search whose estimates stay short of the budget, every job
// splits at its shallowest node, as in a complete search. Estimates
// extrapolate down one path and can be off either way: one that runs low
// leaves helpers working past the cut, and one that runs high leaves only
// the boundary job splitting in a search the budget never cuts (correct
// either way, only the balance suffers).
//
// *Stop rule.* Before each schedule the boundary job checks whether the
// ranked prefix already holds `limit` schedules; when a boundary job runs
// out, the boundary moves past every exhausted job, and the same check
// runs on the exhausted prefix. Either way every job stops at its next
// schedule. A job right of the boundary never decides anything: it runs
// until the boundary catches up with it or the search stops.
//
// *Finish.* Once the pool has stopped, the prefix's tallies fold in key
// order, each freed as it folds, up to the cut. The boundary job stops
// exactly at the cut, but a job that was not yet the boundary may have run
// past it while jobs to its left were still running. The cut then falls
// inside that job, and its first limit − (schedules before it) schedules
// run again from the stack it started from. That rerun runs on the
// calling thread, on a worker's kit given the whole snapshot budget once
// every kit is quiesced (staged snapshots stay within the budget).
// Counts, race reports and the first maxViolationsKept
// violation records then equal DfsExplorer's at the same budget;
// `parallel` describes the sharded attempt, and the rerun counts to the
// worker that ran the job.
//
// A cache-keyed search still splits at the shallowest node, claims budget
// slots from one global counter (whether the budget bites at all is
// order-independent, because total arrivals are fixed), stops every job
// at the first claim past the limit, and then reruns from scratch
// (runSequentialFallback): its prune decisions depend on entries other
// workers inserted, so no job's schedules are a prefix of the sequential
// order. Its `parallel` block still describes the discarded attempt,
// whose worker shares sum to the limit.
//
// ## Leased workers
//
// An explorer owns no threads and no storage: a pool leases threads and a
// kit leases storage. Each explore() leases a WorkerPool from a
// process-wide idle list keyed by worker count, and one ExplorationKit
// per pool worker from the idle kits every explorer shares
// (explore/explorer.hpp); it parks them all again before returning. A
// pool is built only when every pool of that size is leased (two
// explorations at once lease two), and the idle pools' threads are
// joined at process exit. A child forked after a sharded exploration
// inherits the idle pools but none of their threads, so it leaks the
// parent's pools and builds its own; the idle kits hold no threads, and
// it leases them as they are.
//
// At lease every kit adopts the exploration's options: race detection,
// replay mode, whether the program is checkpointable, and the per-worker
// snapshot budget. Before the kits go back, on the calling thread and
// while the program is still alive, every kit is quiesced: its last
// execution's deferred teardown runs (the program's suspended fibers run
// to their end), its threads release the program's closures, its staged
// checkpoints are dropped, its recorder is disarmed and its replay
// counters are zeroed. A parked pool retains its parked threads and a
// parked kit capacity only — fiber stacks and thread records without
// frames or closures, recorder arrays, pooled stage storage — and
// nothing of any program. by_worker counts this exploration's
// handoffs: a job run by a worker other than the one that split it off
// counts once, to the worker that ran it; the root job never counts.
//
// Fibers and OS threads: a fiber's frames are only ever resumed on the
// thread that started them, with one exception: quiescing runs a worker's
// leftover suspended fibers to their end on the calling thread, after the
// batch, in teardown mode, where no scheduling point is left. A quiesced
// kit holds no frames; re-arming a fiber starts new ones, so any thread
// may use it next. That is why the cut rerun may run on a quiesced kit on
// the calling thread, and why pools and kits may serve explorations from
// any thread.
//
// Some strategies and options are not shardable: random walks (no sharded
// random explorer exists yet; each walk already runs on its own seed, so
// the walks are independent), DPOR (backtrack sets mutate on visit order)
// and stopOnFirstViolation ("first" presumes an order). The factory
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
  /// must not request stopOnFirstViolation (the factory routes it to
  /// sequential explorers).
  ParallelExplorer(ExplorerOptions options, std::optional<trace::Relation> cacheKey);
  ~ParallelExplorer() override;

  [[nodiscard]] ExplorationResult explore(const Program& program) override;

  [[nodiscard]] const ExplorerOptions& options() const noexcept override {
    return options_;
  }

  /// True when `options` can be sharded at all (the factory's gate):
  /// workers >= 2 and none of the order-sensitive options — no
  /// stop-on-first-violation, no progress tick callback (ticks from racing
  /// workers would interleave).
  [[nodiscard]] static bool shardable(const ExplorerOptions& options) noexcept {
    return options.workers >= 2 && !options.stopOnFirstViolation &&
           !options.onScheduleTick;
  }

 private:
  struct Impl;

  /// Re-run the scenario with DfsExplorer(options, cacheKey) (a
  /// cache-keyed search's budget hit). Returns its result with `parallel`
  /// describing `attempt`, the discarded sharded run.
  [[nodiscard]] ExplorationResult runSequentialFallback(const Program& program,
                                                        ParallelStats attempt);

  ExplorerOptions options_;
  std::optional<trace::Relation> cacheKey_;
  bool explored_ = false;
};

}  // namespace lazyhb::explore
