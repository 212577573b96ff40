#include "explore/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>
#include <vector>

#include "campaign/work_stealing_pool.hpp"
#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "runtime/execution.hpp"
#include "support/diagnostics.hpp"

namespace lazyhb::explore {

namespace {

/// One donated subtree of the schedule tree, claimable by any worker: force
/// the choices in `prefix`, then explore every child in `enabled - done` of
/// the node at depth prefix.size().
struct FrontierJob {
  std::vector<int> prefix;
  support::ThreadSet enabled;
  support::ThreadSet done;
};

/// A private sequential exploration kit: fiber stacks, recorder and
/// incremental prefix-replay engine, used by one thread at a time.
struct Kit {
  Kit(const ExplorerOptions& opts, std::uint64_t snapshotBudgetBytes)
      : recorder(trace::TraceRecorder::Options{.detectRaces = opts.detectRaces}),
        engine(stackPool, recorder, opts.incremental,
               opts.checkpointable &&
                   runtime::Execution::checkpointingSupported(),
               snapshotBudgetBytes) {}

  runtime::StackPool stackPool;
  trace::TraceRecorder recorder;
  PrefixReplayEngine engine;
};

/// A pool worker's kit plus the tally of the donated jobs it ran. Nothing
/// in here is touched by any other thread until the merge.
struct WorkerContext {
  WorkerContext(const ExplorerOptions& opts, std::uint64_t snapshotBudgetBytes)
      : kit(opts, snapshotBudgetBytes), tally(opts, ScheduleTally::Keep::Smallest) {}

  Kit kit;
  ScheduleTally tally;
};

/// The job that starts at the root of the tree. Its schedules are the first
/// of sequential DFS order (see the header), so it owns its search stack
/// and tally: a budget hit finishes the search from them.
struct RootJob {
  explicit RootJob(const ExplorerOptions& opts)
      : tally(opts, ScheduleTally::Keep::Smallest) {}

  TreeSearchState state;
  ScheduleTally tally;
  int worker = -1;         ///< the pool worker that ran it
  bool exhausted = false;  ///< its own subtree ran out before the pool stopped
};

/// Sort `records` into sequential DFS order and keep the first `keep`.
void keepFirstInDfsOrder(std::vector<ViolationRecord>& records, std::size_t keep) {
  std::sort(records.begin(), records.end(), dfsOrderLess);
  if (records.size() > keep) records.resize(keep);
}

}  // namespace

/// Everything alive only during one explore() call: the frontier pool, the
/// shared cache, the per-worker contexts, the root job and the global
/// coordination state.
struct ParallelExplorer::Impl {
  Impl(const ExplorerOptions& opts, std::optional<trace::Relation> key,
       std::uint64_t seed)
      : options(opts), cacheKey(key), pool(opts.workers, seed), root(opts) {
    const int n = pool.workerCount();
    // Each worker runs its own replay engine, so the scenario's snapshot
    // budget is split evenly across them — the combined footprint stays
    // what the user asked for, not workers× it (0 stays unlimited).
    const std::uint64_t perWorkerBudget =
        opts.snapshotBudgetBytes == 0
            ? 0
            : std::max<std::uint64_t>(
                  1, opts.snapshotBudgetBytes / static_cast<std::uint64_t>(n));
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<WorkerContext>(opts, perWorkerBudget));
    }
  }

  const ExplorerOptions& options;
  std::optional<trace::Relation> cacheKey;
  campaign::WorkStealingPool pool;
  std::vector<std::unique_ptr<WorkerContext>> workers;
  RootJob root;
  core::HbrCache cache;  ///< shared; unused (empty) for plain DFS
  const Program* program = nullptr;

  std::atomic<std::uint64_t> claimed{0};  ///< global budget slots taken
  std::atomic<bool> aborted{false};       ///< budget exceeded: every job stops
  std::atomic<std::uint64_t> frontierJobs{0};

  void runRoot();
  void runJob(FrontierJob job);
  void submitJob(FrontierJob job);
  bool search(Kit& kit, ScheduleTally& tally, TreeSearchState& state);
  void maybeDonate(TreeSearchState& state);

  [[nodiscard]] std::vector<WorkerShare> shares() const;
  [[nodiscard]] ExplorationResult mergeComplete();
  [[nodiscard]] ExplorationResult finishFromRoot();
};

void ParallelExplorer::Impl::submitJob(FrontierJob job) {
  frontierJobs.fetch_add(1, std::memory_order_relaxed);
  pool.submit([this, job = std::move(job)]() mutable {
    runJob(std::move(job));
  });
}

/// Stack splitting: when the pool signals an idle worker, give away the
/// unexplored siblings of our shallowest splittable node — the largest
/// subtree we can part with — as one job (the donee can re-split further).
void ParallelExplorer::Impl::maybeDonate(TreeSearchState& state) {
  if (!pool.hungry()) return;
  for (std::size_t d = 0; d < state.nodes.size(); ++d) {
    SearchNode& node = state.nodes[d];
    const support::ThreadSet stealable = node.enabled.minus(node.done).minus(
        support::ThreadSet::single(node.chosen));
    if (stealable.empty()) continue;

    FrontierJob child;
    child.prefix.reserve(d);
    for (std::size_t i = 0; i < d; ++i) {
      child.prefix.push_back(state.nodes[i].chosen);
    }
    child.enabled = node.enabled;
    child.done = node.enabled.minus(stealable);  // donee owns exactly these
    node.done = node.done.unionWith(stealable);  // we never revisit them
    node.donated = node.donated.unionWith(stealable);
    submitJob(std::move(child));
    return;
  }
}

/// Run `state`'s subtree on `kit` into `tally`, donating to hungry workers.
/// Returns true when the subtree is exhausted, false when the budget
/// stopped it — with `state` at the next schedule, not yet run.
bool ParallelExplorer::Impl::search(Kit& kit, ScheduleTally& tally,
                                    TreeSearchState& state) {
  // This job's tree shares nothing with whatever this worker ran before:
  // divergence is at the root as far as the replay engine is concerned.
  std::size_t startDepth = kit.engine.prepareNext(0);
  for (;;) {
    if (aborted.load(std::memory_order_relaxed)) return false;
    // Claim a budget slot before executing, like the sequential loop checks
    // budgetExhausted() before each schedule. Total demand is
    // order-independent (see header), so whether this trips is a function
    // of the scenario, not of scheduling.
    if (claimed.fetch_add(1, std::memory_order_relaxed) >=
        options.scheduleLimit) {
      aborted.store(true, std::memory_order_relaxed);
      return false;
    }

    std::function<bool()> pruneHook;
    if (cacheKey) {
      pruneHook = [this, &kit] {
        return cache.checkAndInsert(kit.recorder.fingerprint(*cacheKey));
      };
    }
    TreeScheduler scheduler(state, std::move(pruneHook), &kit.engine, startDepth);
    const runtime::Outcome outcome =
        tally.execute(kit.engine, kit.recorder, *program, scheduler);
    if (cacheKey && outcome != runtime::Outcome::Abandoned &&
        kit.recorder.eventCount() > 0) {
      // The final event's prefix is never tested by the scheduler (there is
      // no further pick); seed it so any worker can prune against it.
      cache.insert(kit.recorder.fingerprint(*cacheKey));
    }
    maybeDonate(state);
    if (!state.advance()) return true;
    startDepth = kit.engine.prepareNext(state.checkFromDepth);
  }
}

void ParallelExplorer::Impl::runRoot() {
  root.worker = pool.currentWorkerIndex();
  LAZYHB_CHECK(root.worker >= 0);
  Kit& kit = workers[static_cast<std::size_t>(root.worker)]->kit;
  root.exhausted = search(kit, root.tally, root.state);
}

void ParallelExplorer::Impl::runJob(FrontierJob job) {
  if (aborted.load(std::memory_order_relaxed)) return;
  const int workerIndex = pool.currentWorkerIndex();
  LAZYHB_CHECK(workerIndex >= 0);
  WorkerContext& cx = *workers[static_cast<std::size_t>(workerIndex)];

  // Rebuild the job's subtree root as a search stack: forced single-choice
  // nodes pin the prefix (advance() can never flip them), then the
  // divergence node carries the children this job owns. The prefix events
  // are replays of work already accounted elsewhere, so checkFromDepth
  // excludes them from prune checks — exactly as the sequential search
  // excludes a schedule's shared prefix after advance().
  TreeSearchState state;
  state.nodes.reserve(job.prefix.size() + 1);
  for (const int choice : job.prefix) {
    SearchNode forced;
    forced.enabled = support::ThreadSet::single(choice);
    forced.chosen = choice;
    state.nodes.push_back(forced);
  }
  SearchNode divergence;
  divergence.enabled = job.enabled;
  divergence.done = job.done;
  divergence.chosen = job.enabled.minus(job.done).first();
  state.nodes.push_back(divergence);
  state.checkFromDepth = job.prefix.size();
  (void)search(cx.kit, cx.tally, state);
}

std::vector<WorkerShare> ParallelExplorer::Impl::shares() const {
  const std::vector<std::uint64_t> steals = pool.stealsByWorker();
  std::vector<WorkerShare> byWorker;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    std::uint64_t visited = workers[i]->tally.result().schedulesExecuted;
    if (static_cast<int>(i) == root.worker) {
      visited += root.tally.result().schedulesExecuted;
    }
    byWorker.push_back(WorkerShare{visited, steals[i]});
  }
  return byWorker;
}

/// Deterministic merge of a complete search. Statistics fold by the table,
/// fingerprint classes are set unions, violations are cut in DFS order,
/// races dedup on the racy object across jobs.
ExplorationResult ParallelExplorer::Impl::mergeComplete() {
  ScheduleTally merged(options);
  std::vector<trace::RaceReport> races;
  std::unordered_set<runtime::Uid> raceUids;
  auto absorb = [&](const ScheduleTally& tally) {
    merged.absorb(tally);
    for (const trace::RaceReport& race : tally.races().distinctRaces()) {
      if (raceUids.insert(race.objectUid).second) races.push_back(race);
    }
  };
  absorb(root.tally);
  for (const std::unique_ptr<WorkerContext>& cx : workers) {
    absorb(cx->tally);
    merged.addReplayStats(cx->kit.engine);
  }
  ExplorationResult result = std::move(merged.finish());
  result.complete = true;
  result.hitScheduleLimit = false;
  result.parallel = ParallelStats{pool.workerCount(),
                                  frontierJobs.load(std::memory_order_relaxed),
                                  false, shares()};
  keepFirstInDfsOrder(result.violations, options.maxViolationsKept);
  std::sort(races.begin(), races.end(),
            [](const trace::RaceReport& a, const trace::RaceReport& b) {
              return a.objectUid < b.objectUid;
            });
  result.races = std::move(races);
  if (cacheKey) result.cacheStats = cacheStatsOf(cache);
  return result;
}

/// A plain-DFS budget hit: the root job ran the first k schedules of
/// sequential DFS order, so take its donations back and run the next
/// limit − k sequentially into its tally (see the header).
ExplorationResult ParallelExplorer::Impl::finishFromRoot() {
  std::vector<WorkerShare> byWorker = shares();
  ScheduleTally& tally = root.tally;
  for (const std::unique_ptr<WorkerContext>& cx : workers) {
    tally.addReplayStats(cx->kit.engine);
  }
  workers.clear();  // helpers' tallies dropped, every kit's snapshots freed

  TreeSearchState& state = root.state;
  for (SearchNode& node : state.nodes) {
    node.done = node.done.minus(node.donated);
    node.donated = {};
  }
  // An exhausted root's stack ends at its deepest donation, whose chosen
  // child is done; otherwise the stack already names the next schedule.
  bool more = !root.exhausted || state.advance();
  const std::uint64_t rootSchedules = tally.result().schedulesExecuted;
  Kit kit(options, options.snapshotBudgetBytes);
  std::size_t startDepth = kit.engine.prepareNext(0);
  while (more && tally.result().schedulesExecuted < options.scheduleLimit) {
    TreeScheduler scheduler(state, {}, &kit.engine, startDepth);
    (void)tally.execute(kit.engine, kit.recorder, *program, scheduler);
    more = state.advance();
    if (more) startDepth = kit.engine.prepareNext(state.checkFromDepth);
  }
  // The budget bit, so the tree holds more than `limit` schedules.
  LAZYHB_CHECK(more);
  tally.addReplayStats(kit.engine);
  byWorker[static_cast<std::size_t>(root.worker)].schedulesVisited +=
      tally.result().schedulesExecuted - rootSchedules;

  ExplorationResult result = std::move(tally.finish());
  result.hitScheduleLimit = true;
  result.parallel = ParallelStats{pool.workerCount(),
                                  frontierJobs.load(std::memory_order_relaxed),
                                  true, std::move(byWorker)};
  keepFirstInDfsOrder(result.violations, options.maxViolationsKept);
  return result;
}

ParallelExplorer::ParallelExplorer(ExplorerOptions options,
                                   std::optional<trace::Relation> cacheKey,
                                   std::uint64_t seed)
    : options_(options), cacheKey_(cacheKey), seed_(seed) {
  LAZYHB_CHECK(shardable(options));
}

ParallelExplorer::~ParallelExplorer() = default;

ExplorationResult ParallelExplorer::runSequentialFallback(
    const Program& program) {
  ExplorerOptions sequential = options_;
  sequential.workers = 1;
  DfsExplorer explorer(sequential, cacheKey_);
  ExplorationResult result = explorer.explore(program);
  result.parallel.workers = options_.workers;
  result.parallel.fellBackSequential = true;
  return result;
}

ExplorationResult ParallelExplorer::explore(const Program& program) {
  LAZYHB_CHECK(!explored_);
  explored_ = true;

  Impl impl(options_, cacheKey_, seed_);
  impl.program = &program;

  std::vector<campaign::WorkStealingPool::Task> roots;
  impl.frontierJobs.store(1, std::memory_order_relaxed);
  roots.push_back([&impl] { impl.runRoot(); });
  impl.pool.run(std::move(roots));

  if (!impl.aborted.load(std::memory_order_relaxed)) return impl.mergeComplete();
  // The budget bit. A cache-keyed search's partial run is no prefix of the
  // sequential one: discard everything (including the polluted shared
  // cache — the fallback explorer builds its own) and redo sequentially.
  if (cacheKey_) return runSequentialFallback(program);
  return impl.finishFromRoot();
}

}  // namespace lazyhb::explore
