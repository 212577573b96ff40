#include "explore/parallel_explorer.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "runtime/execution.hpp"
#include "support/diagnostics.hpp"
#include "support/worker_pool.hpp"

namespace lazyhb::explore {

namespace {

/// The process's parked pools (see the header). Destroying it at process
/// exit joins their threads.
class IdlePools {
 public:
  /// A parked pool of `workers` workers, or a new one when every pool of
  /// that size is leased.
  std::unique_ptr<support::WorkerPool> lease(int workers) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      forgetIfForked();
      for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
        if ((*it)->workerCount() != workers) continue;
        std::unique_ptr<support::WorkerPool> pool = std::move(*it);
        idle_.erase(std::next(it).base());
        return pool;
      }
    }
    return std::make_unique<support::WorkerPool>(workers);
  }

  void giveBack(std::unique_ptr<support::WorkerPool> pool) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(pool));
  }

  ~IdlePools() { forgetIfForked(); }

 private:
  /// A child forked from this process inherits the parent's pools but none
  /// of their threads: joining them would wait forever, so it leaks them.
  void forgetIfForked() {
    if (owner_ == ::getpid()) return;
    for (std::unique_ptr<support::WorkerPool>& pool : idle_) (void)pool.release();
    idle_.clear();
    owner_ = ::getpid();
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<support::WorkerPool>> idle_;
  pid_t owner_ = ::getpid();
};

IdlePools& idlePools() {
  static IdlePools pools;
  return pools;
}

/// One contiguous range of sequential DFS order (see the header): a search
/// stack whose unexplored siblings are the range, run by one pool worker
/// into its own tally.
struct Job {
  Job(const ExplorerOptions& opts, TreeSearchState from)
      : start(std::move(from)), state(start), tally(opts, ScheduleTally::Keep::Smallest) {
    key.reserve(start.nodes.size());
    for (const SearchNode& node : start.nodes) key.push_back(node.chosen);
  }
  Job(const Job&) = delete;  // other threads hold its address
  Job& operator=(const Job&) = delete;

  /// The choice path to its first schedule. Ranges are disjoint and each
  /// starts at its leftmost schedule, so keys order jobs like dfsOrderLess.
  std::vector<int> key;
  TreeSearchState start;  ///< the stack it began from, for a rerun
  TreeSearchState state;
  ScheduleTally tally;
  int worker = -1;         ///< the pool worker that ran it
  int donor = -1;          ///< the worker that split it off; -1 for the root
  bool exhausted = false;  ///< its range ran out before the pool stopped
};

struct ByRangeStart {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a->key < b->key;
  }
};

/// Estimated schedules in the unexplored siblings at depths >= d of
/// `state`'s stack, for every d (the last entry, past the deepest node, is
/// 0). A sibling costs what the subtree under its node's current child is
/// estimated to hold: the product of the enabled-set sizes below it on the
/// stack, as if every node under it branched like the current path.
std::vector<double> estimateRange(const TreeSearchState& state) {
  const std::vector<SearchNode>& nodes = state.nodes;
  std::vector<double> remaining(nodes.size() + 1, 0.0);
  double child = 1.0;  // the deepest node's current child: one schedule
  for (std::size_t d = nodes.size(); d-- > 0;) {
    const SearchNode& node = nodes[d];
    // `chosen` is never in `done` on a search stack.
    const int unexplored = node.todo.minus(node.done).size() - 1;
    remaining[d] = remaining[d + 1];
    // On a deep stack `child` can overflow to infinity; 0 * inf is NaN.
    if (unexplored > 0) remaining[d] += unexplored * child;
    child *= node.enabled.size();
  }
  return remaining;
}

/// Sort `records` into sequential DFS order and keep the first `keep`.
void keepFirstInDfsOrder(std::vector<ViolationRecord>& records, std::size_t keep) {
  std::sort(records.begin(), records.end(), dfsOrderLess);
  if (records.size() > keep) records.resize(keep);
}

/// Job tallies folded into one, in DFS order of their ranges: statistics by
/// the table, fingerprint classes by union, races deduplicated on the racy
/// object with the leftmost job's report kept.
struct Fold {
  explicit Fold(const ExplorerOptions& options) : merged(options) {}

  void add(const ScheduleTally& tally) {
    merged.absorb(tally);
    for (const trace::RaceReport& race : tally.races().distinctRaces()) {
      if (raceUids.insert(race.objectUid).second) races.push_back(race);
    }
  }

  ScheduleTally merged;
  std::vector<trace::RaceReport> races;
  std::unordered_set<runtime::Uid> raceUids;
};

}  // namespace

/// Everything alive only during one explore() call: the leased pool and
/// kits, the shared cache, the ranked jobs and the global coordination
/// state.
struct ParallelExplorer::Impl {
  using Ranked = std::set<std::unique_ptr<Job>, ByRangeStart>;

  Impl(const ExplorerOptions& opts, std::optional<trace::Relation> key,
       const Program& prog)
      : options(opts),
        cacheKey(key),
        leasedPool(idlePools().lease(opts.workers)),
        pool(*leasedPool),
        program(&prog) {
    // Each worker runs its own replay engine, so the scenario's snapshot
    // budget is split evenly across them — the combined footprint stays
    // what the user asked for, not workers× it (0 stays unlimited).
    const std::uint64_t perWorkerBudget =
        opts.snapshotBudgetBytes == 0
            ? 0
            : std::max<std::uint64_t>(
                  1, opts.snapshotBudgetBytes /
                         static_cast<std::uint64_t>(pool.workerCount()));
    for (int i = 0; i < pool.workerCount(); ++i) {
      kits.push_back(leaseKit());
      kits.back()->configure(opts, perWorkerBudget);
    }
    auto root = std::make_unique<Job>(opts, TreeSearchState{});
    queued.insert(root.get());
    boundary = jobs.insert(std::move(root)).first;
    boundaryJob.store(boundary->get(), std::memory_order_relaxed);
  }

  /// Park every kit, quiesced while the program is alive, and the pool.
  ~Impl() {
    kits.clear();
    idlePools().giveBack(std::move(leasedPool));
  }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  const ExplorerOptions& options;
  std::optional<trace::Relation> cacheKey;
  std::unique_ptr<support::WorkerPool> leasedPool;
  support::WorkerPool& pool;
  std::vector<KitLease> kits;  ///< kits[i] serves pool worker i
  core::HbrCache cache;  ///< shared; unused (empty) for plain DFS
  const Program* program;

  /// Guards jobs, queued, boundary, frontierJobs and Job::exhausted.
  std::mutex mutex;
  Ranked jobs;       ///< every job, in DFS order of its range
  std::set<Job*, ByRangeStart> queued;  ///< jobs no worker has taken yet
  Ranked::iterator boundary;            ///< the leftmost unexhausted job
  std::uint64_t frontierJobs = 1;       ///< jobs submitted to the pool
  /// *boundary (nullptr past the last job), and the schedules of the
  /// exhausted jobs left of it: read lock-free by the running jobs.
  std::atomic<const Job*> boundaryJob{nullptr};
  std::atomic<std::uint64_t> boundaryBase{0};
  std::atomic<std::uint64_t> claimed{0};  ///< cache-keyed: budget slots taken
  std::atomic<bool> stopped{false};       ///< every job stops at its next schedule
  /// Plain DFS: a boundary job found that its shallowest split would give
  /// away only schedules estimated past the cut, so from now on only the
  /// boundary job splits (see the header).
  std::atomic<bool> budgetBites{false};

  void runNext();
  void run(ExplorationKit& kit, Job& job);
  bool mayRun(const Job& job);
  void maybeDonate(Job& job);
  void donate(Job& donor, std::size_t depth);
  void retire(Job& job);

  /// Every job ran out and the budget holds them all.
  [[nodiscard]] bool complete() const {
    return boundary == jobs.end() &&
           boundaryBase.load(std::memory_order_relaxed) <= options.scheduleLimit;
  }
  [[nodiscard]] std::vector<WorkerShare> shares() const;
  [[nodiscard]] ExplorationResult mergeComplete();
  [[nodiscard]] ExplorationResult finishAtCut();
  void rerun(const Job& job, std::uint64_t count, ScheduleTally& tally,
             ScheduleTally& replayStats);
};

/// A pool task: take the leftmost queued job and run it. Every task was
/// submitted after its job was queued, so one is always there.
void ParallelExplorer::Impl::runNext() {
  Job* job = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    job = *queued.begin();
    queued.erase(queued.begin());
  }
  if (stopped.load(std::memory_order_relaxed)) return;
  job->worker = pool.currentWorkerIndex();
  LAZYHB_CHECK(job->worker >= 0);
  run(*kits[static_cast<std::size_t>(job->worker)], *job);
}

/// Run `job`'s range on `kit`, donating to hungry workers, until it is
/// exhausted (and retired) or the search stops it — with its stack at the
/// next schedule, not yet run.
void ParallelExplorer::Impl::run(ExplorationKit& kit, Job& job) {
  // This job's tree shares nothing with whatever this worker ran before:
  // divergence is at the root as far as the replay engine is concerned.
  std::size_t startDepth = kit.engine.prepareNext(0);
  for (;;) {
    if (!mayRun(job)) return;
    std::function<bool()> pruneHook;
    if (cacheKey) {
      pruneHook = [this, &kit] {
        return cache.checkAndInsert(kit.recorder.fingerprint(*cacheKey));
      };
    }
    TreeScheduler scheduler(job.state, std::move(pruneHook), &kit.engine, startDepth);
    const runtime::Outcome outcome =
        job.tally.execute(kit.engine, kit.recorder, *program, scheduler);
    if (cacheKey && outcome != runtime::Outcome::Abandoned &&
        kit.recorder.eventCount() > 0) {
      // The final event's prefix is never tested by the scheduler (there is
      // no further pick); seed it so any worker can prune against it.
      cache.insert(kit.recorder.fingerprint(*cacheKey));
    }
    maybeDonate(job);
    if (!job.state.advance()) return retire(job);
    startDepth = kit.engine.prepareNext(job.state.checkFromDepth);
  }
}

/// The stop rule, checked before every schedule (see the header). A
/// cache-keyed job claims a slot of the global budget, like the sequential
/// loop checks budgetExhausted(); total demand is order-independent, so
/// whether a claim fails is a function of the scenario. A plain DFS job
/// stops when it is the boundary job and the ranked prefix already holds
/// the budget.
bool ParallelExplorer::Impl::mayRun(const Job& job) {
  if (stopped.load(std::memory_order_relaxed)) return false;
  if (cacheKey) {
    if (claimed.fetch_add(1, std::memory_order_relaxed) < options.scheduleLimit) {
      return true;
    }
  } else if (boundaryJob.load(std::memory_order_acquire) != &job ||
             boundaryBase.load(std::memory_order_relaxed) +
                     job.tally.result().schedulesExecuted <
                 options.scheduleLimit) {
    return true;
  }
  stopped.store(true, std::memory_order_relaxed);
  return false;
}

/// When the pool signals an idle worker, split `job`'s range. By default
/// the split is at the shallowest node with unexplored siblings, the
/// largest piece it can part with (the donee can re-split further). In a
/// plain DFS search the boundary job splits deeper when the subtree that
/// split would keep is estimated to reach the cut, keeping about its share
/// of the budget left; from then on no other job splits (see the header).
void ParallelExplorer::Impl::maybeDonate(Job& job) {
  if (!pool.hungry()) return;
  const std::vector<SearchNode>& nodes = job.state.nodes;
  std::size_t depth = 0;
  while (depth < nodes.size() &&
         nodes[depth].todo.minus(nodes[depth].done).size() < 2) {
    ++depth;
  }
  if (depth == nodes.size()) return;  // nothing left to give away
  if (cacheKey) return donate(job, depth);
  if (boundaryJob.load(std::memory_order_acquire) != &job) {
    if (!budgetBites.load(std::memory_order_relaxed)) donate(job, depth);
    return;
  }
  const std::vector<double> remaining = estimateRange(job.state);
  // The budget the ranked prefix has not used: only the boundary job knows.
  const double left =
      static_cast<double>(options.scheduleLimit) -
      static_cast<double>(boundaryBase.load(std::memory_order_relaxed) +
                          job.tally.result().schedulesExecuted);
  if (remaining[depth + 1] < left) return donate(job, depth);
  budgetBites.store(true, std::memory_order_relaxed);
  // Keep the shallowest range within the share, but not nothing.
  const double share = left / pool.workerCount();
  while (depth + 1 < nodes.size() && remaining[depth + 1] > share) ++depth;
  if (remaining[depth + 1] > 0) donate(job, depth);
}

/// Give every unexplored sibling at `depth` and above to a new job: a copy
/// of the donor's stack positioned at the first of them. The donor keeps
/// the rest of its subtree below `depth`, which precedes all it gave away.
void ParallelExplorer::Impl::donate(Job& donor, std::size_t depth) {
  std::vector<SearchNode>& nodes = donor.state.nodes;
  TreeSearchState from;
  from.nodes.assign(nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(depth) + 1);
  for (std::size_t d = 0; d <= depth; ++d) {
    nodes[d].done = nodes[d].todo.minus(support::ThreadSet::single(nodes[d].chosen));
  }
  // Past the donor's subtree at `depth`.
  LAZYHB_CHECK(from.advance());
  auto job = std::make_unique<Job>(options, std::move(from));
  job->donor = donor.worker;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    queued.insert(job.get());
    jobs.insert(std::move(job));
    ++frontierJobs;
  }
  pool.submit([this] { runNext(); });
}

/// Mark `job` exhausted. When it was the boundary job, move the boundary
/// past every exhausted job; once the exhausted prefix holds the budget
/// (plain DFS), nothing further right can enter the cut, and all stop.
void ParallelExplorer::Impl::retire(Job& job) {
  const std::lock_guard<std::mutex> lock(mutex);
  job.exhausted = true;
  if (boundary->get() != &job) return;
  std::uint64_t base = boundaryBase.load(std::memory_order_relaxed);
  for (; boundary != jobs.end() && (*boundary)->exhausted; ++boundary) {
    base += (*boundary)->tally.result().schedulesExecuted;
  }
  boundaryBase.store(base, std::memory_order_relaxed);
  boundaryJob.store(boundary == jobs.end() ? nullptr : boundary->get(),
                    std::memory_order_release);
  if (!cacheKey && base >= options.scheduleLimit) {
    stopped.store(true, std::memory_order_relaxed);
  }
}

/// Each worker's schedules, and its handoffs: the jobs it ran that another
/// worker had split off.
std::vector<WorkerShare> ParallelExplorer::Impl::shares() const {
  std::vector<WorkerShare> byWorker(static_cast<std::size_t>(pool.workerCount()));
  for (const std::unique_ptr<Job>& job : jobs) {
    if (job->worker < 0) continue;
    WorkerShare& share = byWorker[static_cast<std::size_t>(job->worker)];
    share.schedulesVisited += job->tally.result().schedulesExecuted;
    if (job->donor >= 0 && job->donor != job->worker) ++share.tasksStolen;
  }
  return byWorker;
}

/// Deterministic merge of a complete search. Violations are cut in DFS
/// order; plain DFS keeps its races in the leftmost job's order, which is
/// the sequential order, and a cache-keyed search sorts them by object.
ExplorationResult ParallelExplorer::Impl::mergeComplete() {
  ParallelStats parallel{pool.workerCount(), frontierJobs, false, shares()};
  Fold fold(options);
  for (const KitLease& kit : kits) fold.merged.addReplayStats(kit->engine);
  for (auto it = jobs.begin(); it != jobs.end(); it = jobs.erase(it)) {
    fold.add((*it)->tally);
  }
  ExplorationResult result = std::move(fold.merged.finish());
  result.complete = true;
  result.hitScheduleLimit = false;
  result.parallel = std::move(parallel);
  keepFirstInDfsOrder(result.violations, options.maxViolationsKept);
  if (cacheKey) {
    std::sort(fold.races.begin(), fold.races.end(),
              [](const trace::RaceReport& a, const trace::RaceReport& b) {
                return a.objectUid < b.objectUid;
              });
    result.cacheStats = cacheStatsOf(cache);
  }
  result.races = std::move(fold.races);
  return result;
}

/// A plain-DFS budget hit: fold the ranked prefix's tallies in DFS order up
/// to the first scheduleLimit schedules, rerunning the job the cut falls
/// inside when it ran past it (see the header).
ExplorationResult ParallelExplorer::Impl::finishAtCut() {
  ParallelStats parallel{pool.workerCount(), frontierJobs, true, shares()};
  Fold fold(options);
  for (const KitLease& kit : kits) {
    fold.merged.addReplayStats(kit->engine);
    kit->quiesce();  // every kit's snapshots freed before a rerun stages its own
  }

  const std::uint64_t limit = options.scheduleLimit;
  std::uint64_t cut = 0;  // the first `cut` schedules of DFS order are folded
  for (auto it = jobs.begin(); cut < limit; it = jobs.erase(it)) {
    LAZYHB_CHECK(it != jobs.end());
    const Job& job = **it;
    const std::uint64_t ran = job.tally.result().schedulesExecuted;
    if (cut + ran <= limit) {
      // Only the boundary job may stop short of exhausting its range, and
      // it stops exactly at the cut.
      LAZYHB_CHECK(job.exhausted || cut + ran == limit);
      fold.add(job.tally);
      cut += ran;
      continue;
    }
    ScheduleTally prefix(options, ScheduleTally::Keep::Smallest);
    rerun(job, limit - cut, prefix, fold.merged);
    parallel.byWorker[static_cast<std::size_t>(job.worker)].schedulesVisited +=
        limit - cut;
    fold.add(prefix);
    cut = limit;
  }
  ExplorationResult result = std::move(fold.merged.finish());
  result.hitScheduleLimit = true;
  result.parallel = std::move(parallel);
  keepFirstInDfsOrder(result.violations, options.maxViolationsKept);
  result.races = std::move(fold.races);
  return result;
}

/// Run the first `count` schedules of `job`'s range again, from the stack
/// it started from, into `tally`. Runs on the calling thread once the pool
/// has stopped, on a quiesced kit (its fibers hold no frames, see the
/// header) given the whole snapshot budget; its replay statistics go to
/// `replayStats`.
void ParallelExplorer::Impl::rerun(const Job& job, std::uint64_t count,
                                   ScheduleTally& tally, ScheduleTally& replayStats) {
  TreeSearchState state = job.start;
  ExplorationKit& kit = *kits.front();
  kit.configure(options, options.snapshotBudgetBytes);
  std::size_t startDepth = kit.engine.prepareNext(0);
  for (std::uint64_t run = 1;; ++run) {
    TreeScheduler scheduler(state, {}, &kit.engine, startDepth);
    (void)tally.execute(kit.engine, kit.recorder, *program, scheduler);
    if (run == count) break;
    LAZYHB_CHECK(state.advance());
    startDepth = kit.engine.prepareNext(state.checkFromDepth);
  }
  replayStats.addReplayStats(kit.engine);
}

ParallelExplorer::ParallelExplorer(ExplorerOptions options,
                                   std::optional<trace::Relation> cacheKey)
    : options_(options), cacheKey_(cacheKey) {
  LAZYHB_CHECK(shardable(options));
}

ParallelExplorer::~ParallelExplorer() = default;

ExplorationResult ParallelExplorer::runSequentialFallback(const Program& program,
                                                          ParallelStats attempt) {
  ExplorerOptions sequential = options_;
  sequential.workers = 1;
  DfsExplorer explorer(sequential, cacheKey_);
  ExplorationResult result = explorer.explore(program);
  result.parallel = std::move(attempt);
  return result;
}

ExplorationResult ParallelExplorer::explore(const Program& program) {
  LAZYHB_CHECK(!explored_);
  explored_ = true;
  ParallelStats attempt;
  {
    Impl impl(options_, cacheKey_, program);
    std::vector<support::WorkerPool::Task> roots;
    roots.push_back([&impl] { impl.runNext(); });
    impl.pool.run(std::move(roots));

    if (impl.complete()) return impl.mergeComplete();
    if (!cacheKey_) return impl.finishAtCut();
    attempt = ParallelStats{impl.pool.workerCount(), impl.frontierJobs, true, impl.shares()};
  }
  // The budget bit a cache-keyed search. Its partial run is no prefix of
  // the sequential one: discard its counts (and the polluted shared cache;
  // the fallback explorer builds its own) and, with the kits and the pool
  // parked again, redo sequentially. `parallel` still describes the
  // discarded attempt.
  return runSequentialFallback(program, std::move(attempt));
}

}  // namespace lazyhb::explore
