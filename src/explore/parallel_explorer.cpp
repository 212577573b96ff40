#include "explore/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <tuple>
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

/// One subtree of the schedule tree, claimable by any worker: force the
/// choices in `prefix`, then explore every child in `enabled - done` of the
/// node at depth prefix.size(). An empty `enabled` marks the root job (the
/// whole tree; the real enabled set is discovered by the first execution).
struct FrontierJob {
  std::vector<int> prefix;
  support::ThreadSet enabled;
  support::ThreadSet done;
};

/// A worker's private exploration kit plus its share of the statistics.
/// Nothing in here is touched by any other thread until the merge.
struct WorkerContext {
  WorkerContext(const ExplorerOptions& opts, std::uint64_t snapshotBudgetBytes)
      : recorder(trace::TraceRecorder::Options{.detectRaces = opts.detectRaces}),
        engine(stackPool, recorder, opts.incremental,
               opts.checkpointable &&
                   runtime::Execution::checkpointingSupported(),
               snapshotBudgetBytes),
        // Keep every violation record: capping per worker would make the
        // post-merge kept set depend on how violations happened to shard
        // across workers. The maxViolationsKept cut is applied once, after
        // the global sort, so the surviving set is a function of the full
        // violation multiset alone — identical at any worker count.
        tally(opts, std::numeric_limits<std::size_t>::max()) {}

  runtime::StackPool stackPool;
  trace::TraceRecorder recorder;
  PrefixReplayEngine engine;
  ScheduleTally tally;
};

/// Stable order for merged violation records: worker completion order is
/// nondeterministic, so the merged list is sorted before the
/// maxViolationsKept cut — workers keep all records so the cut sees the
/// full multiset regardless of sharding. (In caching mode the *reproducer
/// schedules* may still differ between runs — see the header; the counts
/// never do.)
bool violationLess(const ViolationRecord& a, const ViolationRecord& b) {
  return std::tie(a.kind, a.message, a.schedule) <
         std::tie(b.kind, b.message, b.schedule);
}

}  // namespace

/// Everything alive only during one explore() call: the frontier pool, the
/// shared cache, the per-worker contexts and the global coordination state.
struct ParallelExplorer::Impl {
  Impl(const ExplorerOptions& opts, std::optional<trace::Relation> key,
       std::uint64_t seed)
      : options(opts), cacheKey(key), pool(opts.workers, seed) {
    const int n = pool.workerCount();
    // Each worker runs its own replay engine, so the scenario's snapshot
    // budget is split evenly across them — the combined footprint stays
    // what the user asked for, not workers× it (0 stays unlimited).
    const std::uint64_t perWorkerBudget =
        opts.snapshotBudgetBytes == 0
            ? 0
            : std::max<std::uint64_t>(
                  1, opts.snapshotBudgetBytes / static_cast<std::uint64_t>(n));
    contexts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      contexts.push_back(std::make_unique<WorkerContext>(opts, perWorkerBudget));
    }
  }

  const ExplorerOptions& options;
  std::optional<trace::Relation> cacheKey;
  campaign::WorkStealingPool pool;
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  core::HbrCache cache;  ///< shared; unused (empty) for plain DFS
  const Program* program = nullptr;

  std::atomic<std::uint64_t> claimed{0};  ///< global budget slots taken
  std::atomic<bool> aborted{false};       ///< budget exceeded: discard all
  std::atomic<std::uint64_t> frontierJobs{0};

  void runJob(FrontierJob job);
  void submitJob(FrontierJob job);
  runtime::Outcome executeOne(WorkerContext& cx, runtime::Scheduler& sched);
  void maybeDonate(TreeSearchState& state);
};

void ParallelExplorer::Impl::submitJob(FrontierJob job) {
  frontierJobs.fetch_add(1, std::memory_order_relaxed);
  pool.submit([this, job = std::move(job)]() mutable {
    runJob(std::move(job));
  });
}

/// One schedule through the worker's tally; the caching terminal seeding
/// from DfsExplorer::runSearch lives here too.
runtime::Outcome ParallelExplorer::Impl::executeOne(WorkerContext& cx,
                                                    runtime::Scheduler& sched) {
  const runtime::Outcome outcome =
      cx.tally.execute(cx.engine, cx.recorder, *program, sched);
  if (cacheKey && outcome != runtime::Outcome::Abandoned &&
      cx.recorder.eventCount() > 0) {
    // The final event's prefix is never tested by the scheduler (there is
    // no further pick); seed it so any worker can prune against it.
    cache.insert(cx.recorder.fingerprint(*cacheKey));
  }
  return outcome;
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
    submitJob(std::move(child));
    return;
  }
}

void ParallelExplorer::Impl::runJob(FrontierJob job) {
  if (aborted.load(std::memory_order_relaxed)) return;
  const int workerIndex = pool.currentWorkerIndex();
  LAZYHB_CHECK(workerIndex >= 0);
  WorkerContext& cx = *contexts[static_cast<std::size_t>(workerIndex)];

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
  if (!job.enabled.empty()) {
    SearchNode divergence;
    divergence.enabled = job.enabled;
    divergence.done = job.done;
    divergence.chosen = job.enabled.minus(job.done).first();
    state.nodes.push_back(divergence);
  }
  state.checkFromDepth = job.prefix.size();

  // This job's tree shares nothing with whatever this worker ran before:
  // divergence is at the root as far as the replay engine is concerned.
  std::size_t startDepth = cx.engine.prepareNext(0);

  for (;;) {
    if (aborted.load(std::memory_order_relaxed)) return;
    // Claim a budget slot before executing, like the sequential loop checks
    // budgetExhausted() before each schedule. Total demand is
    // order-independent (see header), so whether this trips is a function
    // of the scenario, not of scheduling.
    if (claimed.fetch_add(1, std::memory_order_relaxed) >=
        options.scheduleLimit) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }

    std::function<bool()> pruneHook;
    if (cacheKey) {
      pruneHook = [this, &cx] {
        return cache.checkAndInsert(cx.recorder.fingerprint(*cacheKey));
      };
    }
    TreeScheduler scheduler(state, std::move(pruneHook), &cx.engine,
                            startDepth);
    (void)executeOne(cx, scheduler);
    maybeDonate(state);
    if (!state.advance()) return;  // subtree exhausted
    startDepth = cx.engine.prepareNext(state.checkFromDepth);
  }
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
  roots.push_back([&impl] { impl.runJob(FrontierJob{}); });
  impl.pool.run(std::move(roots));

  if (impl.aborted.load(std::memory_order_relaxed)) {
    // The budget bit: parallel order would decide which schedules fit it.
    // Discard everything (including the polluted shared cache — the
    // fallback explorer builds its own) and redo sequentially.
    return runSequentialFallback(program);
  }

  // Deterministic merge. Statistics fold by the table, fingerprint classes
  // are set unions, violations sort lexicographically before the keep-cap,
  // races dedup on the racy object across workers.
  ScheduleTally merged(options_, std::numeric_limits<std::size_t>::max());
  std::vector<trace::RaceReport> races;
  std::unordered_set<runtime::Uid> raceUids;
  std::vector<WorkerShare> byWorker;
  const std::vector<std::uint64_t> steals = impl.pool.stealsByWorker();
  for (std::size_t i = 0; i < impl.contexts.size(); ++i) {
    const WorkerContext& cx = *impl.contexts[i];
    merged.absorb(cx.tally);
    merged.addReplayStats(cx.engine);
    for (const trace::RaceReport& race : cx.tally.races().distinctRaces()) {
      if (raceUids.insert(race.objectUid).second) {
        races.push_back(race);
      }
    }
    byWorker.push_back(WorkerShare{cx.tally.result().schedulesExecuted, steals[i]});
  }
  ExplorationResult result = std::move(merged.finish());
  result.complete = true;
  result.hitScheduleLimit = false;
  result.parallel.workers = impl.pool.workerCount();
  result.parallel.frontierJobs =
      impl.frontierJobs.load(std::memory_order_relaxed);
  result.parallel.byWorker = std::move(byWorker);

  std::vector<ViolationRecord>& violations = result.violations;
  std::sort(violations.begin(), violations.end(), violationLess);
  if (violations.size() > options_.maxViolationsKept) {
    violations.resize(options_.maxViolationsKept);
  }

  std::sort(races.begin(), races.end(),
            [](const trace::RaceReport& a, const trace::RaceReport& b) {
              return a.objectUid < b.objectUid;
            });
  result.races = std::move(races);

  if (cacheKey_) result.cacheStats = cacheStatsOf(impl.cache);
  return result;
}

}  // namespace lazyhb::explore
