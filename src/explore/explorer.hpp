// lazyhb/explore/explorer.hpp
//
// The exploration framework: an Explorer repeatedly executes a program under
// controlled schedules until its search space or budget is exhausted, and
// accumulates the statistics the paper's evaluation is built from —
// schedules executed, distinct terminal HBRs / lazy HBRs / states, and any
// property violations found (with replayable schedules).
//
// Concrete strategies:
//   DfsExplorer      — depth-first enumeration of the schedule tree, keyed
//                      on an optional prefix-cache relation: none gives the
//                      naive enumeration of all schedules, Full
//                      Musuvathi–Qadeer HBR caching, Lazy the paper's lazy
//                      HBR caching, Value value-class caching
//                      (explore/dfs_explorer.hpp).
//   DporExplorer     — Flanagan–Godefroid dynamic partial-order reduction
//                      with sleep sets: DfsExplorer's search under a
//                      race-analysis TreeReduction
//                      (explore/dpor_explorer.hpp).
//   RandomExplorer   — uniform random walks (explore/random_explorer.hpp).
//   ParallelExplorer — DfsExplorer sharded across threads
//                      (explore/parallel_explorer.hpp).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/hbr_cache.hpp"
#include "core/race_detector.hpp"
#include "explore/prefix_replay.hpp"
#include "lazyhb/stats.hpp"
#include "memory/memory_model.hpp"
#include "runtime/execution.hpp"
#include "support/hash.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

/// A program under test: a callable run as thread 0 of every execution.
/// Must be re-runnable (each schedule re-executes it from scratch) and
/// deterministic apart from scheduling.
using Program = std::function<void()>;

/// Default byte budget for the incremental engine's staged snapshots (see
/// ExplorerOptions::snapshotBudgetBytes): the LAZYHB_SNAPSHOT_BUDGET
/// environment variable when set and non-empty (bytes; 0 = unlimited), else
/// 256 MiB — roomy next to the HbrCache approxMemoryBytes footprints the
/// campaign reports, so eviction only engages on genuinely deep trees. A
/// malformed value prints a diagnostic and aborts.
[[nodiscard]] std::uint64_t defaultSnapshotBudgetBytes() noexcept;

/// The budget a LAZYHB_SNAPSHOT_BUDGET value selects: 256 MiB for the empty
/// string (unset), the number for plain decimal digits that fit in 64 bits,
/// nullopt for anything else (a sign, a space, a suffix, overflow).
[[nodiscard]] std::optional<std::uint64_t> parseSnapshotBudgetEnv(
    std::string_view text) noexcept;

struct ExplorerOptions {
  /// Maximum number of executions (the paper's experiments use 100,000).
  std::uint64_t scheduleLimit = 100'000;
  /// Per-schedule event budget (guards against unbounded loops).
  std::uint32_t maxEventsPerSchedule = 1u << 16;
  /// Stop the whole exploration at the first violation (testing-tool mode).
  /// The paper's counting experiments keep exploring; that is the default.
  bool stopOnFirstViolation = false;
  /// Run the sync-HB data-race detector on every execution.
  bool detectRaces = false;
  /// Keep at most this many violation records.
  std::uint32_t maxViolationsKept = 16;
  /// Incremental prefix replay (explore/prefix_replay.hpp): tree searches
  /// checkpoint at revisitable scheduling points and roll back instead of
  /// re-running the shared prefix of consecutive schedules. Counts are
  /// byte-identical either way; only wall time changes.
  bool incremental = true;
  /// The program under test satisfies the checkpointable contract
  /// (runtime/execution.hpp): all cross-schedule state in registered lazyhb
  /// objects or trivially-copyable stack locals. Enables full runtime
  /// rollback on fast-fiber builds; without it (or under ASan/ucontext)
  /// incremental mode still elides the recorder's share of replayed
  /// prefixes.
  bool checkpointable = false;
  /// Byte budget for staged incremental-replay snapshots (runtime fiber
  /// images plus recorder cursors), 0 = unlimited. When staging would
  /// exceed the budget, the engine evicts the shallowest staged depth
  /// first — the one furthest from the frontier of a deepest-first tree
  /// walk — and later divergences into the evicted region fall back to
  /// replaying from the deepest surviving shallower stage (or a full
  /// restart). Counts are byte-identical at any budget; only wall time
  /// and memory change. ParallelExplorer splits this evenly across its
  /// workers so the scenario-wide footprint stays bounded.
  std::uint64_t snapshotBudgetBytes = defaultSnapshotBudgetBytes();
  /// Shard the schedule tree of this one scenario across this many OS
  /// threads (explore/parallel_explorer.hpp). 1 = classic sequential
  /// search. Only the tree searches with order-independent counts support
  /// sharding (dfs and the caching modes); for other strategies — or
  /// option combinations that are inherently order-sensitive
  /// (stopOnFirstViolation) — the factory falls back to the sequential
  /// explorer and this field is advisory. All observable counts are
  /// byte-identical at any worker count.
  int workers = 1;
  /// Memory model every execution runs under (memory/memory_model.hpp).
  /// Sc is the default and leaves all behaviour — counts, fingerprints,
  /// event labels — byte-identical to a build without the field. Tso adds
  /// per-thread store buffers whose flush points become scheduler-visible
  /// transitions; every strategy explores them like thread picks.
  memory::MemoryModel memoryModel = memory::MemoryModel::Sc;
  /// Progress hook: invoked synchronously on the exploring thread after
  /// every tickIntervalSchedules-th schedule with the running schedule
  /// count. Must not re-enter the explorer. Order-sensitive for sharding
  /// purposes (ticks from racing workers would interleave), so a set
  /// callback also disables intra-scenario sharding.
  std::function<void(std::uint64_t schedulesExecuted)> onScheduleTick;
  std::uint64_t tickIntervalSchedules = 0;  ///< 0 disables progress ticks
};

/// A recorded property violation with the schedule that reproduces it.
struct ViolationRecord {
  runtime::Outcome kind = runtime::Outcome::Terminal;
  std::string message;
  std::vector<int> schedule;  ///< thread picked at each step; replayable
};

/// Sequential DFS order on violation records: lexicographic on the
/// schedule, because a depth-first search tries a node's children lowest
/// pick first (under TSO the flush picks, 32 + t, come after every thread).
[[nodiscard]] inline bool dfsOrderLess(const ViolationRecord& a,
                                       const ViolationRecord& b) {
  return a.schedule < b.schedule;
}

/// Per-worker share of a parallel exploration (explore/parallel_explorer.hpp):
/// how many schedules the worker ran, and how many of its jobs another
/// worker had split off (handoffs; the root job never counts). The campaign
/// report surfaces these so load imbalance is visible per cell.
struct WorkerShare {
  std::uint64_t schedulesVisited = 0;
  std::uint64_t tasksStolen = 0;
};

/// How a parallel exploration distributed its work. `workers == 0` means
/// the search ran sequentially (no pool was involved at all).
struct ParallelStats {
  int workers = 0;
  std::uint64_t frontierJobs = 0;  ///< subtree tasks submitted to the pool
  /// The schedule budget bit mid-flight (whether it bites at all is
  /// order-independent, so this triggers identically at any worker
  /// count). Plain DFS keeps the first schedules of sequential DFS order
  /// from the jobs that ran them and reruns sequentially at most the part
  /// of one job before the cut; a cache-keyed search discards its sharded
  /// attempt and reruns from scratch. Either way `frontierJobs` and
  /// `byWorker` describe the sharded attempt: a cache-keyed one's shares
  /// sum to the limit, the schedules it ran and discarded
  /// (explore/parallel_explorer.hpp).
  bool fellBackSequential = false;
  std::vector<WorkerShare> byWorker;
};

/// Everything one exploration produced: the reported statistics (the
/// ExplorationStats base, one row each in the table below) plus the
/// findings only the engine and the test report carry.
struct ExplorationResult : ExplorationStats {
  std::vector<ViolationRecord> violations;
  std::vector<trace::RaceReport> races;
  ParallelStats parallel;  ///< zero-workers unless sharded (see above)

  [[nodiscard]] bool foundViolation() const noexcept { return !violations.empty(); }
};

// --- the statistics table ------------------------------------------------------

/// The report object a statistic is written in: the cell (or totals)
/// object itself, or one of its optional blocks (see statBlockPresent).
enum class StatBlock { Top, Cache, Checkpoint, Tso };

/// Contract statistics are byte-identical at any --jobs, --workers,
/// --incremental and --snapshot-budget, so `lazyhb merge`, `lazyhb diff`
/// and the golden tests compare them. Scoreboard
/// statistics depend on how the search ran (replay policy, worker split,
/// heap layout): reported, never compared.
enum class StatClass { Contract, Scoreboard };

/// How a statistic combines when explorations fold together: parallel
/// workers into one result, cells into per-explorer and campaign totals.
enum class StatFold { Sum, Max, Or, And };

struct StatSpec {
  const char* key;  ///< JSON key within its block
  StatBlock block;
  StatClass klass;
  StatFold fold;
};

/// The statistics table: calls visit(spec, field...) once per statistic of
/// ExplorationStats, in report order, passing that statistic's member of
/// every `stats` argument — so one walk writes, reads, compares or folds
/// several results in lockstep. The report codec, the merge conflict
/// check, the folds and the CSV columns all walk this table; a new
/// statistic is a member of ExplorationStats plus one row here. Walked per
/// exploration and per report, never per schedule.
template <typename Visit, typename... Stats>
void forEachStat(Visit&& visit, Stats&... stats) {
  using enum StatBlock;
  using enum StatClass;
  using enum StatFold;
  visit(StatSpec{"schedules", Top, Contract, Sum}, stats.schedulesExecuted...);
  visit(StatSpec{"terminal", Top, Contract, Sum}, stats.terminalSchedules...);
  visit(StatSpec{"pruned", Top, Contract, Sum}, stats.prunedSchedules...);
  visit(StatSpec{"violations", Top, Contract, Sum}, stats.violationSchedules...);
  visit(StatSpec{"hbrs", Top, Contract, Sum}, stats.distinctHbrs...);
  visit(StatSpec{"lazy_hbrs", Top, Contract, Sum}, stats.distinctLazyHbrs...);
  visit(StatSpec{"value_classes", Top, Contract, Sum}, stats.distinctValueClasses...);
  visit(StatSpec{"states", Top, Contract, Sum}, stats.distinctStates...);
  visit(StatSpec{"hbr_conflicts", Top, Contract, Sum}, stats.hbrConflicts...);
  visit(StatSpec{"lazy_hbr_conflicts", Top, Contract, Sum}, stats.lazyHbrConflicts...);
  visit(StatSpec{"value_conflicts", Top, Contract, Sum}, stats.valueConflicts...);
  visit(StatSpec{"events", Top, Contract, Sum}, stats.totalEvents...);
  visit(StatSpec{"events_elided", Top, Scoreboard, Sum}, stats.eventsElided...);
  visit(StatSpec{"events_replayed", Top, Scoreboard, Sum}, stats.eventsReplayed...);
  visit(StatSpec{"complete", Top, Contract, And}, stats.complete...);
  visit(StatSpec{"hit_schedule_limit", Top, Contract, Or}, stats.hitScheduleLimit...);
  visit(StatSpec{"lookups", Cache, Contract, Sum}, stats.cacheStats.lookups...);
  visit(StatSpec{"hits", Cache, Contract, Sum}, stats.cacheStats.hits...);
  visit(StatSpec{"insertions", Cache, Contract, Sum}, stats.cacheStats.insertions...);
  visit(StatSpec{"entries", Cache, Contract, Sum}, stats.cacheStats.entries...);
  visit(StatSpec{"approx_bytes", Cache, Scoreboard, Sum}, stats.cacheStats.approxBytes...);
  visit(StatSpec{"stages", Checkpoint, Scoreboard, Sum}, stats.checkpointStats.stages...);
  visit(StatSpec{"bytes_staged", Checkpoint, Scoreboard, Sum},
        stats.checkpointStats.bytesStaged...);
  visit(StatSpec{"evictions", Checkpoint, Scoreboard, Sum},
        stats.checkpointStats.evictions...);
  visit(StatSpec{"replay_fallbacks", Checkpoint, Scoreboard, Sum},
        stats.checkpointStats.replayFallbacks...);
  visit(StatSpec{"flush_events", Tso, Contract, Sum}, stats.flushEvents...);
  visit(StatSpec{"fence_events", Tso, Contract, Sum}, stats.fenceEvents...);
  visit(StatSpec{"max_buffered_stores", Tso, Scoreboard, Max}, stats.maxBufferedStores...);
}

/// "cache", "checkpoint" or "tso"; nullptr for StatBlock::Top.
[[nodiscard]] const char* statBlockName(StatBlock block) noexcept;

/// A statistic's report path: its key, prefixed "<block>." when it lives in
/// an optional block ("hbrs", "cache.hits").
[[nodiscard]] std::string statPath(const StatSpec& spec);

/// Whether a report writes `block` for `stats`: the cache and checkpoint
/// blocks when their `enabled` flag is set, the TSO block when any of its
/// statistics is nonzero (so SC reports carry none).
[[nodiscard]] bool statBlockPresent(const ExplorationStats& stats,
                                    StatBlock block) noexcept;

/// The statistics of zero explorations: the identity of foldStats (zero,
/// with the And-folded statistics true).
[[nodiscard]] ExplorationStats emptyStatFold();

/// Fold `from` into `into`, each statistic by its table fold; the cache and
/// checkpoint `enabled` flags fold with or.
void foldStats(ExplorationStats& into, const ExplorationStats& from);

/// The CacheStats snapshot of a prefix cache at the end of a search.
[[nodiscard]] CacheStats cacheStatsOf(const core::HbrCache& cache);

/// The terminal classes of one relation (Full, Lazy or Value
/// fingerprints), each mapped to the state its first schedule reached, and
/// the classes another of whose schedules reached a different state.
/// Theorems 2.1/2.2 and value soundness say there are none, so the
/// conflict set stays empty and a class costs one node, as in a plain set.
/// Whether a class reached two or more states depends neither on the order
/// its schedules arrive in nor on how they split between maps merged later,
/// so size() and conflicts() are exact for any visit order.
class ClassStates {
 public:
  /// One terminal schedule of class `cls` reached `state`.
  void record(support::Hash128 cls, support::Hash128 state) {
    const auto [it, inserted] = firstStates_.try_emplace(cls, state);
    if (!inserted && it->second != state) conflicted_.insert(cls);
  }

  /// Union in another map's classes, first states and conflicts.
  void merge(const ClassStates& other);

  [[nodiscard]] std::uint64_t size() const noexcept { return firstStates_.size(); }
  /// Classes that reached two or more states.
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicted_.size(); }

 private:
  std::unordered_map<support::Hash128, support::Hash128, support::Hash128Hasher>
      firstStates_;
  std::unordered_set<support::Hash128, support::Hash128Hasher> conflicted_;
};

/// The per-schedule accounting shared by every explorer: ExplorerBase owns
/// one, and ParallelExplorer gives each worker its own and absorbs them
/// after the run. execute() is the explore loop's hot path — no virtual
/// call and no table walk.
class ScheduleTally {
 public:
  /// Which violation records a tally keeps once it holds
  /// options.maxViolationsKept of them.
  enum class Keep {
    First,     ///< the first found, in the explorer's own visit order
    Smallest,  ///< the first in sequential DFS order (dfsOrderLess),
               ///< whatever order they were found in
  };

  explicit ScheduleTally(const ExplorerOptions& options, Keep keep = Keep::First);

  /// Run one schedule under `scheduler` — resuming the engine's rolled-back
  /// execution when it has one — and account it. Statistics are identical
  /// either way.
  runtime::Outcome execute(PrefixReplayEngine& engine,
                           trace::TraceRecorder& recorder,
                           const Program& program,
                           runtime::Scheduler& scheduler);

  /// Fold in the replay economics (elided/replayed events, checkpoint
  /// stats) of an engine that ran schedules of this exploration.
  void addReplayStats(const PrefixReplayEngine& engine);

  /// Fold another worker's tally in, before finish(): statistics by the
  /// table, terminal classes and states by union, violation records
  /// appended (unbounded, in no particular order).
  void absorb(const ScheduleTally& other);

  /// Complete the result: distinct-class and conflict counts from the
  /// class maps, distinct states, races.
  ExplorationResult& finish();

  [[nodiscard]] ExplorationResult& result() noexcept { return result_; }
  [[nodiscard]] const ExplorationResult& result() const noexcept { return result_; }
  [[nodiscard]] const core::RaceAggregator& races() const noexcept { return races_; }

 private:
  /// Record `v` if the keep policy has room for it. Keep::Smallest holds
  /// the records as a max-heap in DFS order, so the front is the one a
  /// smaller record displaces.
  void keepViolation(const runtime::Violation& v);

  runtime::Config config_;
  bool detectRaces_;
  std::size_t keepViolations_;
  Keep keep_;
  ExplorationResult result_;
  ClassStates hbrs_;
  ClassStates lazyHbrs_;
  ClassStates valueClasses_;
  std::unordered_set<support::Hash128, support::Hash128Hasher> states_;
  core::RaceAggregator races_;
};

/// The storage one sequential search runs on: the fiber stack pool, the
/// trace recorder and the incremental prefix-replay engine, used by one
/// thread at a time. Kits outlive explorations. Every exploration leases
/// one from a process-wide idle list (leaseKit): ExplorerBase one for its
/// whole life, ParallelExplorer one per pool worker for each explore().
/// configure() adopts one exploration's options, and the lease ends by
/// quiescing the kit and parking it again. A parked kit holds capacity
/// only — thread records and fibers without frames or closures, their
/// stacks, recorder arrays, pooled stage storage — and nothing of any
/// program, so any thread may lease it next and a steady-state exploration
/// builds no stack, execution, recorder table or stage.
class ExplorationKit {
 public:
  ExplorationKit();

  ExplorationKit(const ExplorationKit&) = delete;
  ExplorationKit& operator=(const ExplorationKit&) = delete;

  /// Adopt one exploration's options: race detection and `fullClocks`
  /// (see ExplorerBase) for the recorder; replay mode, whether the program
  /// is checkpointable, and `snapshotBudgetBytes` for the engine. Only on
  /// a new or quiesced kit.
  void configure(const ExplorerOptions& options, std::uint64_t snapshotBudgetBytes,
                 bool fullClocks = false);

  /// End an exploration, keeping everything built. Only while its program
  /// is alive: the last execution's deferred teardown runs the program's
  /// suspended fibers to their end, its threads drop the program's
  /// closures, staged checkpoints are dropped, the recorder is disarmed
  /// and the replay counters restart from zero.
  void quiesce();

  runtime::StackPool stackPool;
  trace::TraceRecorder recorder;
  PrefixReplayEngine engine;
};

/// Ends a lease: quiesces the kit and parks it on the idle list.
struct ParkKit {
  void operator()(ExplorationKit* kit) const noexcept;
};

/// A leased kit; destroying the lease parks the kit.
using KitLease = std::unique_ptr<ExplorationKit, ParkKit>;

/// The most recently parked kit (its storage is the warmest), or a new one
/// when every kit is leased. Thread-safe.
[[nodiscard]] KitLease leaseKit();

/// The exploration interface: run a program's schedule space once, return
/// the accumulated statistics. Sequential strategies implement it through
/// ExplorerBase below; ParallelExplorer implements it directly (its result
/// is a merge of per-worker searches, not one ExplorerBase run).
class Explorer {
 public:
  virtual ~Explorer() = default;

  Explorer() = default;
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Run the full exploration. May be called once per explorer instance.
  [[nodiscard]] virtual ExplorationResult explore(const Program& program) = 0;

  [[nodiscard]] virtual const ExplorerOptions& options() const noexcept = 0;
};

/// Shared plumbing for the sequential explorers: leases an ExplorationKit
/// (stack pool, trace recorder and prefix-replay engine) for its whole
/// life, owns the statistics, and runs one schedule at a time. The
/// destructor quiesces and parks the kit, so the program under test must
/// outlive the explorer: its suspended fibers run to their end there.
class ExplorerBase : public Explorer {
 public:
  /// `fullClocks`: the strategy reads Full clock rows from recorder()
  /// (DPOR's happens-before test). Every other strategy reads fingerprints
  /// only, so its recorder builds no clocks unless detectRaces asks for the
  /// Sync ones.
  explicit ExplorerBase(ExplorerOptions options, bool fullClocks = false);

  /// Run the full exploration. May be called once per explorer instance.
  [[nodiscard]] ExplorationResult explore(const Program& program) override;

  [[nodiscard]] const ExplorerOptions& options() const noexcept override {
    return options_;
  }

 protected:
  /// Strategy hook: run schedules (via executeSchedule) until done.
  virtual void runSearch(const Program& program) = 0;

  /// Strategy hook: the HBR prefix cache the search consulted, if any.
  /// explore() snapshots it into ExplorationStats::cacheStats.
  [[nodiscard]] virtual const core::HbrCache* prefixCache() const noexcept {
    return nullptr;
  }

  /// Execute one schedule under `scheduler`, updating all statistics. In
  /// incremental mode the execution may be the persistent rolled-back one
  /// (see prefixEngine()); statistics are identical either way. Returns
  /// the outcome.
  runtime::Outcome executeSchedule(const Program& program,
                                   runtime::Scheduler& scheduler);

  /// The incremental prefix-replay engine. Tree-search strategies hand it
  /// to their schedulers (checkpoint staging) and call prepareNext() with
  /// each divergence depth; the returned start depth seeds the next
  /// scheduler.
  [[nodiscard]] PrefixReplayEngine& prefixEngine() noexcept { return kit_->engine; }

  /// True when the schedule budget is exhausted (strategies must stop).
  [[nodiscard]] bool budgetExhausted() const noexcept;

  /// True when the search should stop for a found violation.
  [[nodiscard]] bool shouldStopForViolation() const noexcept;

  [[nodiscard]] trace::TraceRecorder& recorder() noexcept { return kit_->recorder; }
  [[nodiscard]] ExplorationResult& result() noexcept { return tally_.result(); }

  /// Mark the search as having visited every schedule class.
  void markComplete() noexcept { result().complete = true; }

 private:
  ExplorerOptions options_;
  KitLease kit_;
  ScheduleTally tally_;
  bool explored_ = false;
};

}  // namespace lazyhb::explore
