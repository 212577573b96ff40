// lazyhb/campaign/campaign.hpp
//
// The corpus campaign layer: the paper's evaluation is a *campaign* — every
// benchmark run under every technique, with the interesting quantities (the
// §3 chain, the Figure 2/3 redundancy gaps) emerging only from the
// aggregate. This layer owns the (program × explorer) matrix: it fans the
// cells out across hardware threads (support::WorkerPool), times each cell,
// checks each cell's §3 chain, feeds a thread-safe Aggregator, and folds
// the cells into per-program and per-explorer summaries plus campaign
// totals. The Figure 2 and Figure 3 summaries fold the per-program rows.
//
// Determinism contract: each cell constructs its own single-use explorer
// from its ExplorerSpec, the engine under it is single-threaded, and
// results land in a slot indexed by the cell's matrix position — so every
// per-cell count is byte-identical whatever --jobs is. Only wall-clock
// fields vary across runs.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "explore/explorer.hpp"
#include "lazyhb/progress.hpp"
#include "programs/registry.hpp"

namespace lazyhb::campaign {

/// One matrix cell: `program` explored once by `explorer`.
struct CellResult {
  int programId = 0;
  std::string program;
  std::string family;
  std::string explorer;
  explore::ExplorationResult stats;
  double wallSeconds = 0.0;
  /// Exploration throughput: logical events (elided ones included) per
  /// second; incremental replay raises it by eliding re-execution.
  double eventsPerSecond = 0.0;
  /// Hardware throughput: executed (non-elided) events per second — the
  /// per-event-cost view, immune to elision inflating the numerator.
  double executedEventsPerSecond = 0.0;
  std::string inequalityDiagnostic;      ///< empty when the §3 chain holds
  std::string error;  ///< non-empty: the explorer threw; counts are zero
  /// Loaded from a campaign journal instead of being re-run (resume); the
  /// wall-clock fields are the original run's.
  bool fromCheckpoint = false;

  [[nodiscard]] bool inequalityHolds() const noexcept {
    return inequalityDiagnostic.empty();
  }
  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// One program's row across the campaign: the §3 check plus the reduction
/// ratios the figures are built from, each section present only when the
/// campaign ran the explorers it needs.
struct ProgramSummary {
  int id = 0;
  std::string program;
  std::string family;
  bool inequalityHolds = true;  ///< across every cell of this program

  // Figure 2 view (requires a "dpor" cell): unique HBRs the lazy relation
  // proves redundant.
  bool hasDpor = false;
  std::uint64_t dporHbrs = 0;
  std::uint64_t dporLazyHbrs = 0;
  double redundantHbrPercent = 0.0;  ///< (hbrs - lazyHbrs) / hbrs * 100
  bool belowDiagonal = false;        ///< lazyHbrs < hbrs

  // Figure 3 view (requires both caching cells): terminal lazy HBRs reached
  // within the budget by regular vs. lazy HBR caching.
  bool hasCachingPair = false;
  std::uint64_t lazyHbrsByFullCaching = 0;
  std::uint64_t lazyHbrsByLazyCaching = 0;
  bool cachingDiffers = false;  ///< lazy caching reached strictly more

  // Schedule-reduction ratios against the naive DFS baseline (requires a
  // complete "dfs" cell): how many times fewer schedules each reduction ran.
  bool hasDfsBaseline = false;
  std::uint64_t dfsSchedules = 0;
  double dporScheduleRatio = 0.0;         ///< dfs / dpor (0 when dpor absent)
  double cachingLazyScheduleRatio = 0.0;  ///< dfs / caching-lazy (0 when absent)
};

/// Aggregate over every cell of one explorer mode.
struct ExplorerTotals {
  std::string explorer;
  std::uint64_t cells = 0;
  ExplorationStats stats;    ///< the cells' statistics, folded by the stat table
  double wallSeconds = 0.0;  ///< summed per-cell wall time (CPU view)
  double eventsPerSecond = 0.0;          ///< logical events / wallSeconds
  double executedEventsPerSecond = 0.0;  ///< (events - eventsElided) / wallSeconds
  int inequalityViolations = 0;
};

/// The configuration a campaign ran with: echoed into its report's config
/// block, and — with the journal-only fields of JournalConfig — into its
/// journal manifest.
struct CampaignConfig {
  std::uint64_t scheduleLimit = 0;
  std::uint32_t maxEventsPerSchedule = 0;
  std::uint64_t seed = 0;
  bool incremental = true;
  /// Intra-scenario worker threads per cell (--workers). Mandatory in a
  /// v4+ config block, so a report can never hide the parallelism it ran
  /// with.
  int workers = 1;
  /// Snapshot byte budget per cell (0 = unlimited). Mandatory in a v6+
  /// config block: a budget small enough to force evictions changes wall
  /// time, so two reports are only comparable with it in view.
  std::uint64_t snapshotBudgetBytes = 0;
  /// "sc" or "tso". Mandatory in a v8+ config block: counts are only
  /// comparable under one memory model.
  std::string memoryModel = "sc";
  /// The slice of the cell matrix this run covered: the cells with
  /// index % shardCount == shardIndex. An unsharded campaign is 0/1.
  int shardIndex = 0;
  int shardCount = 1;
};

struct CampaignResult {
  /// Program-major, explorer-minor — cells[p * explorers + e]. The order is
  /// a function of the option lists alone, never of scheduling.
  std::vector<CellResult> cells;
  std::vector<ProgramSummary> programs;
  std::vector<ExplorerTotals> perExplorer;
  ExplorationStats totals;  ///< every cell's statistics, folded by the stat table
  CampaignConfig config;    ///< what the campaign ran with
  double eventsPerSecond = 0.0;          ///< logical events / cpuSeconds
  double executedEventsPerSecond = 0.0;  ///< executed events / cpuSeconds
  int inequalityViolations = 0;  ///< cells whose §3 chain failed (expect 0)
  double wallSeconds = 0.0;      ///< end-to-end campaign wall time
  double cpuSeconds = 0.0;       ///< sum of per-cell wall times
  int jobs = 1;                  ///< worker threads actually used

  std::size_t cellsFromCheckpoint = 0;  ///< satisfied from the journal
  int cellsFailed = 0;                  ///< cells whose explorer threw
};

struct CampaignOptions {
  /// Explorer modes to run (empty: all five).
  std::vector<ExplorerSpec> explorers;
  /// Programs to run (empty: the whole registered corpus).
  std::vector<const programs::ProgramSpec*> programs;
  /// Per-cell exploration options. A cell is bounded by the schedule
  /// budget and the per-schedule event cap alone; a cell whose explorer
  /// throws is recorded once with its error and zero counts, and the
  /// campaign continues past it.
  explore::ExplorerOptions explorer;
  /// Seed for the random explorer; identical in every cell so per-cell
  /// results do not depend on matrix position.
  std::uint64_t seed = 42;
  /// Worker threads; <= 0 picks std::thread::hardware_concurrency(), at
  /// most support::kMaxWorkerThreads / explorer.workers. runCampaign()
  /// throws std::invalid_argument, before any pool exists, when jobs ×
  /// explorer.workers exceeds support::kMaxWorkerThreads.
  int jobs = 0;

  // --- sharding -------------------------------------------------------------
  /// Run only the cells with matrix index % shardCount == shardIndex
  /// (0-based round-robin over the program-major cell order, so every shard
  /// sees a balanced explorer mix). Shard reports merge back to the
  /// unsharded count set via campaign::mergeReports / `lazyhb merge`.
  int shardIndex = 0;
  int shardCount = 1;

  // --- durability -----------------------------------------------------------
  /// Non-empty: journal every finished cell into this directory (one atomic
  /// file per cell + a config manifest). When the directory already holds a
  /// matching journal, its completed cells are loaded instead of re-run
  /// (resume); a config mismatch throws std::runtime_error. See
  /// campaign/checkpoint.hpp and docs/campaign-service.md.
  std::string checkpointDir;
  /// Require `checkpointDir` to contain an existing journal (the CLI's
  /// --resume): throw std::runtime_error when there is nothing to resume.
  bool requireExistingJournal = false;

  /// Progress hook: the campaign lifecycle events of lazyhb/progress.hpp
  /// (CellStarted/CellFailed/CellFinished and one final CampaignFinished).
  /// Invoked from worker threads but serialized — never two callbacks
  /// concurrently.
  ProgressCallback onProgress;
};

/// Fold cells — already in program-major matrix order, but possibly a
/// *partial* matrix (a shard's slice, or a merge of some shards) — into the
/// per-program / per-explorer summaries and campaign totals. The one fold
/// shared by Aggregator::finish() and the report merger, so a merged report
/// can never aggregate differently from a directly-run one.
/// `explorerOrder` fixes the per-explorer total rows (an explorer with no
/// cells keeps an all-zero row, so shard reports stay column-compatible).
[[nodiscard]] CampaignResult foldCells(std::vector<CellResult> cells,
                                       const std::vector<std::string>& explorerOrder);

/// Collects finished cells from worker threads and folds them into the
/// summaries above. submit() is thread-safe; finish() must be called once,
/// after every expected cell has been submitted.
class Aggregator {
 public:
  /// `expected[index]` marks the matrix slots this run will submit (a shard
  /// marks only its slice); `explorerNames` fixes the per-explorer rows.
  Aggregator(std::vector<bool> expected, std::vector<std::string> explorerNames);

  /// Record the cell at matrix slot `index` (program-major order).
  void submit(std::size_t index, CellResult cell);

  /// Fold the submitted cells into summaries and totals. Consumes the
  /// aggregator.
  [[nodiscard]] CampaignResult finish();

 private:
  std::vector<std::string> explorerNames_;
  std::vector<CellResult> cells_;
  std::vector<bool> expected_;
  std::vector<bool> filled_;
  std::mutex mutex_;
};

/// Run the full (programs × explorers) matrix. The campaign entry point for
/// the CLI's `bench` subcommand.
[[nodiscard]] CampaignResult runCampaign(const CampaignOptions& options);

/// Verify the §3 counting chain, extended with value classes,
///     #states <= #valueClasses <= #lazyHBRs <= #HBRs <= #schedules <= limit,
/// for one exploration of `program`. It holds for any correct explorer,
/// complete or budget-bitten: lazy-equal schedules are value-equal, and a
/// value class determines the terminal state. Returns an empty string when
/// it holds, else "<program>: counting chain violated (<link>)".
[[nodiscard]] std::string checkCountingChain(const std::string& program,
                                             const ExplorationStats& stats,
                                             std::uint64_t scheduleLimit);

/// Figure 2 over the programs that ran "dpor": how many explored strictly
/// fewer lazy HBRs than HBRs ("below the diagonal"), and what share of
/// their unique HBRs the lazy relation proves redundant (the paper: 33 of
/// 79 benchmarks, 910,007 = 80%).
struct Figure2Summary {
  int benchmarks = 0;
  int belowDiagonal = 0;
  std::uint64_t hbrsBelow = 0;      ///< sum of hbrs over below-diagonal rows
  std::uint64_t lazyHbrsBelow = 0;  ///< sum of lazy hbrs over the same rows
  std::uint64_t redundantHbrs = 0;  ///< hbrsBelow - lazyHbrsBelow
  double redundantPercent = 0.0;    ///< redundantHbrs / hbrsBelow * 100
};

[[nodiscard]] Figure2Summary foldFigure2(const std::vector<ProgramSummary>& programs);

/// Figure 3 over the programs that ran both caching modes: on how many lazy
/// HBR caching reached strictly more terminal lazy HBRs than regular HBR
/// caching within the same budget, and how many more (the paper: 18
/// benchmarks, 8,969 = 84% more).
struct Figure3Summary {
  int benchmarks = 0;
  int differing = 0;                 ///< lazy caching reached strictly more
  int regularWon = 0;                ///< regular caching reached strictly more
  std::uint64_t extraLazyHbrs = 0;   ///< sum(lazy - regular) over differing rows
  std::uint64_t regularOnDiffering = 0;
  double extraPercent = 0.0;         ///< extraLazyHbrs / regularOnDiffering * 100
};

[[nodiscard]] Figure3Summary foldFigure3(const std::vector<ProgramSummary>& programs);

}  // namespace lazyhb::campaign
